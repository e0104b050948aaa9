"""Lattice point enumeration, decomposition, and normal location.

A pair (P, Q) of polyhedra with a common ambient dimension is *normally
located* when every lattice point z of P + Q splits as z = z' + z'' with
z' a lattice point of P and z'' one of Q.  A lattice polytope P is *normal
up to s_max* when for every s <= s_max each lattice point of s*P is a sum
of s lattice points of P.

Verdicts are three-valued: "located" and "not_located" are exact answers,
"verified_up_to" means the search space was truncated (a window, or a scale
bound) and no witness appeared inside it.  A witness is only present on
"not_located" and is always the lexicographically least failing point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .errors import (DimensionMismatch, EmptyPolyhedron, NotLattice,
                     NormlocError, Unbounded)
from .exact import as_int
from .fans import cone_from_generators
from .polyhedra import (HRep, Polyhedron, from_h, integer_constraint_rows,
                        minkowski_sum, scale, vertex_box)
from .reps import NO_DECOMPOSITION, NORMALITY_FAILURE, Witness

VERDICT_LOCATED = "located"
VERDICT_NOT_LOCATED = "not_located"
VERDICT_VERIFIED_UP_TO = "verified_up_to"


@dataclass(frozen=True)
class LatticePointSet:
    """Finite set of integer points, stored sorted and deduplicated."""

    dim: int
    points: tuple

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def _members(self):
        return frozenset(self.points)

    def __contains__(self, x):
        return tuple(x) in self._members


@dataclass(frozen=True)
class LocationReport:
    verdict: str
    witness: Witness | None
    checked: dict

    def to_dict(self):
        return {"verdict": self.verdict,
                "witness": self.witness.to_dict() if self.witness else None,
                "checked": dict(self.checked)}


def _rows(p: Polyhedron):
    rows = integer_constraint_rows(p)
    return tuple(a for a, _ in rows), tuple(b for _, b in rows)


def _window(p: Polyhedron, lo, hi):
    """A caller's window box for P as two int tuples.

    A window with lo > hi on some axis is bad input, not an empty search:
    it raises NormlocError.
    """
    if len(lo) != p.dim or len(hi) != p.dim:
        raise DimensionMismatch("window box has wrong length")
    lo = tuple(as_int(x) for x in lo)
    hi = tuple(as_int(x) for x in hi)
    if any(a > b for a, b in zip(lo, hi)):
        raise NormlocError(f"window has lo > hi: {list(lo)}..{list(hi)}")
    return lo, hi


def _clip_box(p: Polyhedron, lo, hi):
    """Intersect an int window box with the vertex box when P is bounded."""
    if not p.v.rays:
        plo, phi = vertex_box(p)
        lo = tuple(max(a, b) for a, b in zip(lo, plo))
        hi = tuple(min(a, b) for a, b in zip(hi, phi))
    return lo, hi


def enumerate_points(p: Polyhedron) -> LatticePointSet:
    """All lattice points of a bounded polyhedron, in lexicographic order."""
    lo, hi = vertex_box(p)
    coeffs, rhs = _rows(p)
    return LatticePointSet(p.dim, tuple(kernels.scan_points(coeffs, rhs,
                                                            lo, hi)))


def enumerate_windowed(p: Polyhedron, lo, hi) -> LatticePointSet:
    """Lattice points of P inside the box lo <= x <= hi (any P)."""
    lo, hi = _clip_box(p, *_window(p, lo, hi))
    coeffs, rhs = _rows(p)
    return LatticePointSet(p.dim, tuple(kernels.scan_points(coeffs, rhs,
                                                            lo, hi)))


def _decompose_unbounded_guard(p: Polyhedron, q: Polyhedron):
    # z' ranges over P cap (z - Q); its recession cone tail(P) cap -tail(Q)
    # does not depend on z, so one pointedness check covers every z.  With
    # both tails pointed, that meet is nonzero exactly when
    # tail(P) + tail(Q) contains a line.
    if cone_from_generators(p.dim, rays=p.v.rays + q.v.rays).lines:
        raise Unbounded("decomposition search region is unbounded: "
                        "tail(P) meets -tail(Q) outside the origin")


def _split_boxes(p: Polyhedron, q: Polyhedron, lo, hi):
    """Boxes (plo, phi, qlo, qhi) holding z' and z'' of every split
    z = z' + z'' of a point z in the box [lo, hi].

    Bounded summands give their vertex boxes.  Otherwise the boxes come
    from the vertex box of the joint region
    {(z', z'') in P x Q : lo <= z' + z'' <= hi}, which the pointedness
    guard keeps bounded; an empty region gives empty boxes (lo > hi), so
    no z in the box splits.
    """
    if not p.v.rays and not q.v.rays:
        return vertex_box(p) + vertex_box(q)
    _decompose_unbounded_guard(p, q)
    d = p.dim
    zero = (0,) * d
    ineqs = [(n + zero, b) for n, b in p.h.inequalities]
    ineqs += [(zero + n, b) for n, b in q.h.inequalities]
    eqs = [(n + zero, b) for n, b in p.h.equalities]
    eqs += [(zero + n, b) for n, b in q.h.equalities]
    for j in range(d):
        e = tuple(int(i == j) for i in range(d)) * 2
        if lo[j] == hi[j]:
            # one equality instead of two opposing inequalities: the DD
            # removes a dimension up front (decompose passes lo = hi = z)
            eqs.append((e, lo[j]))
        else:
            ineqs += [(e, hi[j]), (tuple(-x for x in e), -lo[j])]
    try:
        region = from_h(HRep(tuple(ineqs), tuple(eqs)))
    except EmptyPolyhedron:
        empty = (1,) * d, (0,) * d
        return empty + empty
    jlo, jhi = vertex_box(region)
    return jlo[:d], jhi[:d], jlo[d:], jhi[d:]


def _split_system(z, p: Polyhedron, q: Polyhedron):
    """Integer rows and box for {z' in P : z - z' in Q}."""
    pc, pb = _rows(p)
    qc, qb = _rows(q)
    coeffs = pc + tuple(tuple(-a for a in row) for row in qc)
    rhs = pb + tuple(b - sum(a * x for a, x in zip(row, z))
                     for row, b in zip(qc, qb))
    plo, phi, qlo, qhi = _split_boxes(p, q, z, z)
    lo = tuple(max(a, zz - b) for a, zz, b in zip(plo, z, qhi))
    hi = tuple(min(a, zz - b) for a, zz, b in zip(phi, z, qlo))
    return coeffs, rhs, lo, hi


def decompose(z, p: Polyhedron, q: Polyhedron):
    """Split z = z' + z'' over the lattice points of P and Q.

    Returns the pair (z', z'') with z' lexicographically least, or None when
    no split exists.  Raises Unbounded when the split region can be infinite.
    """
    if p.dim != q.dim:
        raise DimensionMismatch("P and Q live in different dimensions")
    z = tuple(as_int(x) for x in z)
    if len(z) != p.dim:
        raise DimensionMismatch("point has wrong length")
    first = kernels.scan_first(*_split_system(z, p, q))
    if first is None:
        return None
    return first, tuple(a - b for a, b in zip(z, first))


def _located_over(r: Polyhedron, p: Polyhedron, q: Polyhedron,
                  window=None) -> LocationReport:
    """Location engine: split every lattice point of R over (P, Q).

    R is the ambient set whose points must split: P + Q for the
    normal-location check, or a possibly larger set.  A witness is reported
    as no_decomposition.  Bounded or not, the check is one kernel scan over
    R's points in the window, with the split boxes of P and Q taken once
    for the whole window.
    """
    bounded = not r.v.rays
    if window is None:
        if not bounded:
            raise Unbounded("point set to split is unbounded; "
                            "pass a window box")
        rlo, rhi = vertex_box(r)
        full = True
        checked = {"window": None}
    else:
        lo, hi = _window(r, *window)
        rlo, rhi = _clip_box(r, lo, hi)
        # a window that still covers the whole vertex box loses nothing;
        # otherwise report the caller's window, since the clipped box has
        # lo > hi when the window misses the set
        full = bounded and (rlo, rhi) == vertex_box(r)
        checked = {"window": None if full else [list(lo), list(hi)]}
    rc, rb = _rows(r)
    pc, pb = _rows(p)
    qc, qb = _rows(q)
    plo, phi, qlo, qhi = _split_boxes(p, q, rlo, rhi)
    z = kernels.scan_undecomposed(rc, rb, rlo, rhi, pc, pb, plo, phi,
                                  qc, qb, qlo, qhi)
    if z is None:
        verdict = VERDICT_LOCATED if full else VERDICT_VERIFIED_UP_TO
        return LocationReport(verdict, None, checked)
    return LocationReport(VERDICT_NOT_LOCATED, Witness(z, NO_DECOMPOSITION),
                          checked)


def normally_located(p: Polyhedron, q: Polyhedron,
                     window=None) -> LocationReport:
    """Check that every lattice point of P + Q splits over P and Q.

    Bounded inputs are checked completely.  Unbounded inputs need a window
    box (lo, hi); points of P + Q inside the window are checked and the
    verdict degrades to "verified_up_to" unless the window provably covers
    all lattice points of P + Q.
    """
    if p.dim != q.dim:
        raise DimensionMismatch("P and Q live in different dimensions")
    return _located_over(minkowski_sum(p, q), p, q, window)


def is_normal(p: Polyhedron, s_max: int) -> LocationReport:
    """Check normality of a bounded lattice polytope for scales 2..s_max.

    Scale s holds when ((s-1)P, P) is normally located.  For the smallest
    failing s the two notions coincide: scales below s hold, so a splitting
    of a point of sP into s lattice points of P would in particular give a
    split over (s-1)P and P by grouping, and conversely.  The witness is
    therefore a genuine normality failure at its scale.  As P is convex,
    R = (s-1)P + P is sP, one scale of P; step s reuses step s-1's R.
    """
    if not isinstance(s_max, int) or s_max < 1:
        raise NormlocError(f"s_max must be a positive integer: {s_max}")
    if p.v.rays:
        raise Unbounded("normality is checked for bounded polytopes")
    if not p.is_lattice():
        raise NotLattice("normality needs integral vertices")
    r = p
    for s in range(2, s_max + 1):
        prev, r = r, scale(p, s)
        step = _located_over(r, prev, p)
        if step.verdict == VERDICT_NOT_LOCATED:
            w = Witness(step.witness.point, NORMALITY_FAILURE, scale=s)
            return LocationReport(VERDICT_NOT_LOCATED, w, {"scale": s})
    return LocationReport(VERDICT_VERIFIED_UP_TO, None, {"s_max": s_max})
