"""Lattice point enumeration, decomposition, and normal location.

A pair (P, Q) of polyhedra with a common ambient dimension is *normally
located* when every lattice point z of P + Q splits as z = z' + z'' with
z' a lattice point of P and z'' one of Q.  A lattice polytope P is *normal
up to s_max* when for every s <= s_max each lattice point of s*P is a sum
of s lattice points of P, and *normal* when that holds for every s.

Verdicts are three-valued: "located" and "not_located" are exact answers,
"verified_up_to" means the search space was truncated (a window, or a scale
bound) and no witness appeared inside it.  A witness is only present on
"not_located" and is always the lexicographically least failing point.  The
multiple sweep (``_multiple_sweep``) answers "verified_up_to" for the
first multiple that holds, or "exhausted" when none does.

Every scan runs in the lattice coordinates of an affine hull (a *frame*).
For a set with equality normals W, let B be ``kernel_lattice_basis(W)``,
rows b_1..b_k, and o one integer point of the hull; both come from one HNF
(``exact.solution_lattice``).  The lattice points of the hull are
x = o + sum_t y_t b_t with y in Z^k, and the kernels scan y.  B is in
Hermite form, with positive pivots in columns c_1 < ... < c_k: two y that
first differ at t give x that agree before column c_t and differ there by
(y_t - y'_t) b_t[c_t].  So x -> y keeps lex order, and the first y found is
the lex-least x.  The equalities hold by construction, so a flat set (a
fiber of a grading, say) is scanned without the opposing row pairs that the
box bounds of the scan cannot use.  A full-dimensional set gets the
identity frame (o = 0, B = I), in which every system is the one in x.

A location check uses R's frame for R, P and Q alike.  P's origin o_P is an
integer point of aff(P) + lin(R), and Q gets o - o_P, so a split
z = z' + z'' in x is y = y' + y'' in y and the split scan runs unchanged.
Equalities of P or Q that R lacks become rows in y.  A hull without an
integer point has no lattice point to scan.  Box bounds in y come from the
images of the vertices.  A window W is one more polyhedron: the scan runs
over S = R cap W, still in R's frame, with S's rows and the y-box of S's
vertices; where W flattens R, the box rows that cut S flat are rows in y
like the equalities of P and Q.

The location engine reads its sets as *scan sets* (``_ScanSet``): a
dimension, rows and canonical generators, with no facet computed.  A
``Polyhedron`` record is one as it is; a fiber P(u) of a grading with
matrix A is one of the rows -x_i <= 0 and A x = u and the vertices of
their one H-to-V pass (``gitfan._fiber_entry``), built once per degree a
call reads, and a window's S = R cap W is one of R's rows, the box rows and
the vertices of their one H-to-V pass (``_clip``).  The contract: rows
may be redundant, equalities are integer rows with integer right-hand
sides, the generators are canonical (lex-sorted vertices, sorted
primitive rays), and the equality normals W cut out an affine lattice
that holds every lattice point of the set.  The frame is W's, so it may
be larger than the hull's: every fiber of a grading is scanned in the
frame of ker A, also where some x_i = 0 is implied and aff(P(u)) is
smaller.  That is safe.  The lattice points of P(u) are the same in
either lattice, P(u)'s rows cut them out in y as they do in x, and the
Hermite basis of ker A keeps lex order, so the scan finds the same points
and the same lex-least witness.  A scan set never reaches a caller, since
``Polyhedron`` equality compares records.

The multiple sweep and ``is_normal`` check c * X for many c, and c * X
has X's rows with right-hand sides c * b and X's vertices times c.  So
its system in a frame keeps X's coefficients, and only the origin, the
right-hand sides and the y-box depend on c.  Each set is *prepared* once
(``_prepare``: its integer rows and their images on the basis, W v for
one vertex v, the least and largest integer y-images of its vertices),
and each multiple costs one origin solve and integer arithmetic
(``_Prepared.system``).  The kernel floors and ceils the exact bound of
each row, so the scaled rows scan the same points as rows built from
c * X afresh; the least y-image of c * v over the vertices is c times the
least one, so the y-box is the same too.  ``decompose`` and
``_located_over`` read the case c = 1.  No other module builds or reads
these systems: ``gitfan``'s sweeps enter through ``_multiple_sweep``, and
its fiber check through ``_located_over``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, mul, sub

from . import kernels
from .errors import DimensionMismatch, NotLattice, NormlocError, Unbounded
from .exact import (as_int, dot, hermite_normal_form, identity_matrix,
                    integer_solution, positive_int, solution_lattice)
from .polyhedra import (HRep, Polyhedron, VRep, _h_to_v, _int_vertices,
                        minkowski_sum, vertex_box)
from .reps import NO_DECOMPOSITION, NORMALITY_FAILURE, Witness

VERDICT_LOCATED = "located"
VERDICT_NOT_LOCATED = "not_located"
VERDICT_VERIFIED_UP_TO = "verified_up_to"
VERDICT_EXHAUSTED = "exhausted"


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


@dataclass(frozen=True)
class _ScanSet:
    """A set as the scan reads it: ``dim``, rows ``h`` and generators ``v``.

    ``_located_over``, ``_clip``, ``_split_points`` and ``vertex_box`` read
    only these three fields, so a ``Polyhedron`` record passes as a scan set
    as it is.  The contract a scan set keeps:

    * rows may be redundant (a scan reads which points satisfy them, and
      ``_clip`` and ``_split_points`` hand them to a DD pass that drops
      redundant rows);
    * equalities are integer rows with integer right-hand sides;
    * ``v`` is canonical: lex-sorted vertices, sorted primitive rays;
    * the equality normals W cut out an affine lattice
      {x in Z^n : W x = W v} that holds every lattice point of the set.
      W may have fewer rows than aff(set) needs; the frame of W is then
      larger than the hull's, with the same lattice points in it.

    ``gitfan._fiber_entry`` and ``_clip`` build one from rows the caller
    already knows and the vertices of one H-to-V pass; a fiber entry
    shares its grading's rows of A with every other, and a call builds
    each degree it reads once.  Multiples c * X are not built at
    all, but scanned off X's ``_Prepared`` system.  A scan set never
    reaches a caller: ``Polyhedron`` equality compares records, and a scan
    set's rows are not canonical.
    """

    dim: int
    h: HRep
    v: VRep


@dataclass(frozen=True)
class _Frame:
    """Lattice coordinates of the affine lattices {x in Z^n : W x = c}.

    ``basis`` holds the rows b_1..b_k of the canonical basis of ker(W) in
    Hermite form, with pivot columns ``pivots``; a point is
    x = o + sum_t y_t b_t for an integer point o of the lattice, its
    origin.  Back-substitution along the pivots inverts the map: with
    x_P the pivot coordinates of x, y_t = dual_t @ (x_P - o_P) / scale for
    integer rows ``dual``, which ``_Prepared.system`` reads to bound y
    over a set's vertices.  A W of full column rank leaves one point per
    c: the frame then has one zero axis pinned at 0 (no pivot, an empty
    dual row), so every scan keeps a last axis.  No W at all gives the
    identity frame, where y = x - o.
    """

    normals: tuple
    image: tuple
    basis: tuple
    pivots: tuple
    dual: tuple
    scale: int

    def origin(self, rhs):
        """An integer x with W x = rhs, or None when there is none."""
        return integer_solution(self.image, rhs, len(self.basis[0]))

    def points(self, ys, origin):
        """The x = origin + y B of the scanned y's (origin 0 if no W)."""
        if not self.normals:
            return tuple(ys)
        out = []
        for y in ys:
            x = list(origin)
            for t, row in zip(y, self.basis):
                if t:
                    x = [a + t * e for a, e in zip(x, row)]
            out.append(tuple(x))
        return tuple(out)


def _frame(normals, d) -> _Frame:
    """The frame of the equality normals W (a tuple of rows) in Q^d: one
    HNF gives both its basis and the image rows that solve for origins."""
    if not normals:
        unit = identity_matrix(d)
        return _Frame((), (), unit, tuple(range(d)), unit, 1)
    image, basis = solution_lattice(normals)
    if not basis:
        return _Frame(normals, image, ((0,) * d,), (), ((),), 1)
    pivots = tuple(next(j for j, x in enumerate(b) if x) for b in basis)
    k = len(basis)
    # inv[j] = the y of x = e_(pivots[j]): back-substitution on the upper
    # triangular m[s][t] = basis[s][pivots[t]], one unit vector at a time
    m = [[row[c] for c in pivots] for row in basis]
    inv = []
    for j in range(k):
        r = [Fraction(int(i == j)) for i in range(k)]
        for t in range(k):
            r[t] /= m[t][t]
            for u in range(t + 1, k):
                r[u] -= r[t] * m[t][u]
        inv.append(r)
    scale = lcm(*(y.denominator for r in inv for y in r))
    dual = tuple(tuple(int(inv[j][t] * scale) for j in range(k))
                 for t in range(k))
    return _Frame(normals, image, basis, pivots, dual, scale)


def _frame_of(p: Polyhedron) -> _Frame:
    return _frame(tuple(n for n, _ in p.h.equalities), p.dim)


@dataclass(frozen=True)
class _Prepared:
    """A scan set X in a frame, built once for every multiple c * X.

    ``level`` is W v for a point v of X, with W the frame's normals.  Each
    inequality (n, b) of X is the integer row (den * n, num) of
    b = num / den, and each equality, an integer row, an opposing pair:
    ``rows`` and ``rhs`` hold them in x, ``coeffs`` their images on the
    basis, and ``flat`` the indices of the rows that vanish on the frame.
    ``extent`` is (D, lo, hi) for the points whose hull bounds the scan
    (X's vertices, or split points): D the lcm of their pivot coordinates'
    denominators, and lo, hi the per-axis min and max of the integers
    dual @ (D * v_P); None for no points.  Only the origin, the right-hand
    sides and the y-box depend on c.
    """

    frame: _Frame
    level: tuple
    rows: tuple
    rhs: tuple
    coeffs: tuple
    flat: tuple
    extent: tuple | None

    def origin(self, c):
        """An integer point of c * X's frame lattice, or None.  Solved for
        each c: a hull with no integer point may gain one at c > 1."""
        return self.frame.origin(tuple(c * x for x in self.level))

    def system(self, c, origin):
        """c * X's lattice points as a kernel system in y, (coeffs, rhs,
        lo, hi), for x = origin + y B.

        c * X has X's rows with right-hand sides c * b, each the integer
        row a @ y <= c * b - a @ origin.  A row that vanishes on the frame
        is dropped when origin meets it, and kept (0 <= b < 0, so the
        system is empty) when not.  The box is that of c * hull(points)
        (lo > hi when there are none): y_t of c * v is
        (c * dual_t @ (D * v_P) - dual_t @ (D * o_P)) / q with
        q = D * scale, exact integer quotients; as c > 0 the least y_t
        over the points is that of the least dual_t @ (D * v_P), and
        ceil(min) is the min of the ceils.
        """
        frame = self.frame
        coeffs, rhs = self.coeffs, self.rhs
        if any(origin):
            rhs = [c * b - sum(map(mul, a, origin))
                   for a, b in zip(self.rows, rhs)]
        elif c != 1:
            rhs = [c * b for b in rhs]
        drop = {i for i in self.flat if rhs[i] >= 0}
        if drop:
            coeffs = tuple(a for i, a in enumerate(coeffs) if i not in drop)
            rhs = [b for i, b in enumerate(rhs) if i not in drop]
        if self.extent is None:
            k = len(frame.basis)
            return coeffs, tuple(rhs), (1,) * k, (0,) * k
        den, tlo, thi = self.extent
        q = den * frame.scale
        o = [den * origin[j] for j in frame.pivots]
        if frame.normals:
            o = [sum(map(mul, lam, o)) for lam in frame.dual]
        return (coeffs, tuple(rhs),
                tuple(-((t - c * a) // q) for a, t in zip(tlo, o)),
                tuple((c * b - t) // q for b, t in zip(thi, o)))


def _prepare(frame: _Frame, x: _ScanSet, points=None) -> _Prepared:
    """X prepared in ``frame``; the y-box bounds the hull of ``points``
    (X's vertices when None).  ``origin`` needs the frame's normals
    constant on X, and ``system`` does not (``decompose`` solves its own
    origin in the joint frame of P and Q)."""
    v = x.v.vertices[0]
    den = lcm(*(a.denominator for a in v))
    w = [a.numerator * (den // a.denominator) for a in v]
    level = tuple(dot(n, w) for n in frame.normals)
    if den > 1:
        level = tuple(Fraction(t, den) for t in level)
    rows = [(tuple(b.denominator * a for a in n), b.numerator)
            for n, b in x.h.inequalities]
    for n, b in x.h.equalities:
        rows += [(n, b.numerator), (tuple(-a for a in n), -b.numerator)]
    xs = tuple(a for a, _ in rows)
    rhs = tuple(b for _, b in rows)
    coeffs, flat = xs, ()
    if frame.normals:
        coeffs = tuple(tuple([sum(map(mul, a, row)) for row in frame.basis])
                       for a in xs)
        flat = tuple(i for i, a in enumerate(coeffs) if not any(a))
    if points is None:
        points = x.v.vertices
    extent = None
    if points:
        den = lcm(*(v[c].denominator for v in points for c in frame.pivots))
        ims = [[v[c].numerator * (den // v[c].denominator)
                for c in frame.pivots] for v in points]
        if frame.normals:
            ims = [[sum(map(mul, lam, w)) for lam in frame.dual] for w in ims]
        cols = tuple(zip(*ims))
        extent = den, tuple(map(min, cols)), tuple(map(max, cols))
    return _Prepared(frame, level, xs, rhs, coeffs, flat, extent)


def _prepared(r: _ScanSet, *others):
    """R and each of ``others`` prepared once in R's frame."""
    frame = _frame_of(r)
    return tuple(_prepare(frame, x) for x in (r,) + others)


def _first_unsplit(r: _Prepared, p: _Prepared, q: _Prepared, scales):
    """The lex-least lattice point of cr * R with no split over
    (cp * P, cq * Q), or None, for scales (cr, cp, cq).

    The three sets share R's frame.  With origins o for R and o_P for P, Q
    gets o - o_P, so z = z' + z'' in x is y = y' + y'' in y.  No integer
    point in aff(R) leaves nothing to split; none in aff(P) + lin(R) makes
    R's first lattice point the answer.
    """
    cr, cp, cq = scales
    origin = r.origin(cr)
    if origin is None:
        return None
    rsys = r.system(cr, origin)
    po = p.origin(cp)
    if po is None:
        y = kernels.scan_first(*rsys)
    else:
        qo = tuple(a - b for a, b in zip(origin, po))
        y = kernels.scan_undecomposed(*rsys, *p.system(cp, po),
                                      *q.system(cq, qo))
    if y is None:
        return None
    z, = r.frame.points((y,), origin)
    return z


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


def _clip(p: _ScanSet, lo, hi) -> _ScanSet | None:
    """P cap {lo <= x <= hi} as a scan set, or None when it is empty.

    Its rows are P's with the box rows added, and its vertices come from
    their one H-to-V pass; no facet is computed.  The equalities are P's,
    so the set is scanned in P's frame.  An axis with lo = hi, or a box
    face that only touches P, flattens the set, and the rows that cut it
    flat stay inequality rows there.
    """
    rows = []
    for j, e in enumerate(identity_matrix(p.dim)):
        rows += [(e, hi[j]), (tuple(-x for x in e), -lo[j])]
    h = HRep(p.h.inequalities + tuple(rows), p.h.equalities)
    v = _h_to_v(p.dim, h)
    return _ScanSet(p.dim, h, v) if v.vertices else None


def _enumerate(p: _ScanSet) -> LatticePointSet:
    x, = _prepared(p)
    origin = x.origin(1)
    if origin is None:
        return LatticePointSet(p.dim, ())
    ys = kernels.scan_points(*x.system(1, origin))
    return LatticePointSet(p.dim, x.frame.points(ys, origin))


def enumerate_points(p: Polyhedron) -> LatticePointSet:
    """All lattice points of a bounded polyhedron, in lexicographic order."""
    if p.v.rays:
        raise Unbounded("no finite bounding box: polyhedron has rays")
    return _enumerate(p)


def enumerate_windowed(p: Polyhedron, lo, hi) -> LatticePointSet:
    """Lattice points of P inside the box lo <= x <= hi (any P)."""
    s = _clip(p, *_window(p, lo, hi))
    return LatticePointSet(p.dim, ()) if s is None else _enumerate(s)


def _split_points(p: Polyhedron, q: Polyhedron, box):
    """Point lists whose hulls hold z' and z'' of every split
    z = z' + z'' of a point z in the box (lo, hi).

    Bounded summands give their vertices, and the box is not read: it is
    None when the set to split is bounded, and then so are its summands.
    Otherwise the points are the halves of the vertices of the joint region
    {(z', z'') in P x Q : lo <= z' + z'' <= hi}; one H-to-V pass gives them
    (the region's facets are never read).  An empty region gives empty
    lists, so no z in the box splits.

    The region is bounded exactly when tail(P) cap -tail(Q) = {0}, and its
    one pass checks that, raising Unbounded otherwise: the pass's rays span
    {(r, -r) : r in tail(P) cap -tail(Q)} whether the region is empty or
    not.  A nonempty region's rays span its recession cone, which is that
    set; an infeasible system homogenizes entirely into its t = 0 slice,
    the recession cone of its rows, and P's and Q's rows cut out their
    tails, so that is the same set.  Neither z nor the box enters it, so
    tails that meet raise at every z.
    """
    if not p.v.rays and not q.v.rays:
        return p.v.vertices, q.v.vertices
    lo, hi = box
    d = p.dim
    zero = (0,) * d
    ineqs = [(n + zero, b) for n, b in p.h.inequalities]
    ineqs += [(zero + n, b) for n, b in q.h.inequalities]
    eqs = [(n + zero, b) for n, b in p.h.equalities]
    eqs += [(zero + n, b) for n, b in q.h.equalities]
    for j, e in enumerate(identity_matrix(d)):
        e *= 2  # e_j in both halves: the sum z' + z''
        if lo[j] == hi[j]:
            # one equality instead of two opposing inequalities: the DD
            # removes a dimension up front (decompose passes lo = hi = z)
            eqs.append((e, lo[j]))
        else:
            ineqs += [(e, hi[j]), (tuple(-x for x in e), -lo[j])]
    v = _h_to_v(2 * d, HRep(tuple(ineqs), tuple(eqs)))
    if v.rays:
        raise Unbounded("decomposition search region is unbounded: "
                        "tail(P) meets -tail(Q) outside the origin")
    return [x[:d] for x in v.vertices], [x[d:] for x in v.vertices]


def decompose(z, p: Polyhedron, q: Polyhedron):
    """Split z = z' + z'' over the lattice points of P and Q.

    Returns the pair (z', z'') with z' lexicographically least, or None when
    no split exists.  Raises Unbounded when tail(P) meets -tail(Q) outside
    the origin, so that P cap (z - Q) can be infinite, whether or not it is
    empty at this z (``_split_points`` reads that off its one DD pass).

    z' is scanned in the frame of aff(P) cap (z - aff(Q)), whose equalities
    are those of P and the reflected, shifted ones of Q.
    """
    if p.dim != q.dim:
        raise DimensionMismatch("P and Q live in different dimensions")
    z = tuple(as_int(x) for x in z)
    if len(z) != p.dim:
        raise DimensionMismatch("point has wrong length")
    pverts, qverts = _split_points(p, q, (z, z))
    frame = _frame(tuple(n for n, _ in p.h.equalities + q.h.equalities),
                   p.dim)
    origin = frame.origin(tuple(b for _, b in p.h.equalities)
                          + tuple(dot(n, z) - b for n, b in q.h.equalities))
    if origin is None:
        return None
    # z'' = (z - origin) - y B lies in Q: in y, Q's system at origin
    # z - origin reflected, rows and box alike
    zq = tuple(a - b for a, b in zip(z, origin))
    pc, pb, plo, phi = _prepare(frame, p, pverts).system(1, origin)
    qc, qb, qlo, qhi = _prepare(frame, q, qverts).system(1, zq)
    y = kernels.scan_first(pc + tuple(tuple(-a for a in row) for row in qc),
                           pb + qb, tuple(max(a, -b) for a, b in zip(plo, qhi)),
                           tuple(min(a, -b) for a, b in zip(phi, qlo)))
    if y is None:
        return None
    first, = frame.points((y,), origin)
    return first, tuple(a - b for a, b in zip(z, first))


def _located_over(r: _ScanSet, p: _ScanSet, q: _ScanSet,
                  window=None) -> LocationReport:
    """Location engine: split every lattice point of R over (P, Q).

    R is the ambient set whose points must split: P + Q for the
    normal-location check, or a larger set; either way aff(P) + aff(Q)
    lies in aff(R).  A witness is reported as no_decomposition.  Bounded
    or not, the check is one kernel scan over the lattice points of
    S = R cap W, W the window, with the split boxes of P and Q taken once
    for all of S.

    The scan is ``_first_unsplit`` at c = 1, with S, P and Q prepared in
    R's frame (R's equality normals are constant on all three), and P's
    and Q's y-boxes taken over the split points of S (their vertices when
    S is bounded).

    R, P and Q are scan sets (``_ScanSet``, a record or rows known a
    priori): only their rows and generators are read, redundant rows scan
    the same points, and R's frame is that of R's equality normals, which
    may cut out a larger lattice than aff(R) (ker A for a fiber) with the
    same lattice points of R in it.  A window's S is a scan set too
    (``_clip``), with R's equalities, so it is scanned in R's frame.
    """
    bounded = not r.v.rays
    s = r
    if window is None:
        if not bounded:
            raise Unbounded("point set to split is unbounded; "
                            "pass a window box")
        full = True
    else:
        lo, hi = _window(r, *window)
        # a window that covers the integer vertex box loses no point;
        # otherwise the scan runs over R cap W, and the caller's window is
        # reported as passed
        full = bounded and all(a <= c and d <= b for a, b, c, d
                               in zip(lo, hi, *vertex_box(r)))
        if not full:
            s = _clip(r, lo, hi)
    checked = {"window": None if full else [list(lo), list(hi)]}
    z = None
    if s is not None:
        frame = _frame_of(r)
        sset = _prepare(frame, s)
        # no integer point in aff(R) leaves nothing to split: skip the
        # split points, whose unbounded case runs a DD pass
        if sset.origin(1) is not None:
            pverts, qverts = _split_points(p, q, None if bounded
                                           else vertex_box(s))
            z = _first_unsplit(sset, _prepare(frame, p, pverts),
                               _prepare(frame, q, qverts), (1, 1, 1))
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


# is_normal's default bound: every scale.  Not None, so an explicit None
# stays bad input like any other non-int bound.
_EVERY_SCALE = object()


def is_normal(p: Polyhedron, s_max: int = _EVERY_SCALE) -> LocationReport:
    """Check normality of a bounded lattice polytope.

    Scale s holds when ((s-1)P, P) is normally located.  For the smallest
    failing s the two notions coincide: scales below s hold, so a splitting
    of a point of sP into s lattice points of P would in particular give a
    split over (s-1)P and P by grouping, and conversely.  The witness is
    therefore a genuine normality failure at its scale.  As P is convex,
    R = (s-1)P + P is sP, so step s checks (sP, (s-1)P, P), three scales
    of one system of P prepared once (``_Prepared``, no DD pass).

    Bruns, Gubeladze and Trung ("Normal polytopes, triangulations, and
    Koszul algebras", 1997, Thm 1.3.3) prove that
    ((c+1)P) cap Z^n = (cP cap Z^n) + (P cap Z^n) for every c >= dim P - 1,
    flat P included.  So every scale s >= dim P holds, and only
    s = 2..min(s_max, dim P - 1) are scanned: none for points, segments and
    polygons.  With no s_max the answer is exact ("located" when P is
    normal, and checked["s_max"] is None); with one, a positive answer
    stays "verified_up_to".  A positive answer lists the scanned s in
    checked["scales_scanned"], and checked["all_scales"] says whether they
    cover 2..dim P - 1.
    """
    exact = s_max is _EVERY_SCALE
    if exact:
        s_max = None
    else:
        positive_int(s_max, "s_max")
    if p.v.rays:
        raise Unbounded("normality is checked for bounded polytopes")
    if not p.is_lattice():
        raise NotLattice("normality needs integral vertices")
    top = p.affine_dimension() - 1
    scanned = list(range(2, (top if exact else min(s_max, top)) + 1))
    x, = _prepared(p)
    for s in scanned:
        z = _first_unsplit(x, x, x, (s, s - 1, 1))
        if z is not None:
            w = Witness(z, NORMALITY_FAILURE, scale=s)
            return LocationReport(VERDICT_NOT_LOCATED, w, {"scale": s})
    verdict = VERDICT_LOCATED if exact else VERDICT_VERIFIED_UP_TO
    return LocationReport(verdict, None,
                          {"s_max": s_max, "scales_scanned": scanned,
                           "all_scales": exact or s_max >= top})


def _split_dimension(r: _ScanSet, p: _ScanSet, q: _ScanSet):
    """The affine dimension d of a bounded R when R is vertex-split over
    (P, Q), else None.

    R is vertex-split when each of its vertices is a + b with a an
    integral vertex of P and b one of Q: a check on the vertex lists.
    Then R's vertices are lattice points, and d is the rank of their
    differences."""
    ints = [[tuple(map(int, v)) for v in x.v.vertices
             if all(a.denominator == 1 for a in v)] for x in (p, q)]
    sums = {tuple(map(add, a, b)) for a in ints[0] for b in ints[1]}
    verts = _int_vertices(r.v.vertices)
    if not sums.issuperset(verts):
        return None
    v0, *rest = verts
    diffs = [tuple(map(sub, v, v0)) for v in rest]
    return sum(map(any, hermite_normal_form(diffs)))


def _multiple_sweep(k_max: int, s_max: int, r: _ScanSet, p: _ScanSet,
                    q: _ScanSet):
    """Search k <= k_max with every lattice point of m * R splitting over
    (m * P, m * Q) for m = s * k and every s <= s_max.  R, P and Q are scan
    sets (``_ScanSet``) at m = 1, and R contains P + Q (R is P + Q for a
    pair, and P(u1 + u2) contains P(u1) + P(u2)).

    The three sets are prepared once in R's frame, and each multiple is
    one ``_first_unsplit`` at scales (m, m, m): only right-hand sides,
    origins and y-boxes change with m.  No step has a window, so each is
    located or not; an R with rays raises Unbounded before the first step
    (every m gives R the same rays).  A step depends on (k, s) only
    through m, so each m is checked once and its answer reused, as for
    (1, 2) and (2, 1).

    Call level m *located* when every lattice point of m * R splits over
    the lattice points of (m * P, m * Q).  Let d be the affine dimension
    of R, and call R *vertex-split* when each vertex of R is a + b with a
    an integral vertex of P and b one of Q (``_split_dimension``).  For
    vertex-split R:

    (a) if levels 1..d are located, every level is;
    (b) if level m - 1 >= d is located, so is level m.

    Checking vertex sums is exact: were a vertex v of R a + b over any
    lattice points a of P and b of Q, then v would lie in P + Q, inside R,
    and so be a vertex of P + Q, the only maximizer over P + Q of some
    linear c.  Then c.a + c.b is the sum of the maxima of c over P and Q,
    so a and b maximize c there, and uniquely: another maximizer a' of P
    would make a' + b a second one of P + Q.  So a and b are vertices.

    Proof.  Let v_i = a_i + b_i be R's vertices, all lattice points, and z
    a lattice point of m * R.  z / m lies in R = conv(v_i), inside aff R
    of dimension d, so by Caratheodory in aff R it is a convex combination
    of at most d + 1 affinely independent vertices: z = sum lambda_i v_i
    with lambda_i >= 0, sum lambda_i = m, at most d + 1 terms.

    (a) Put z0 = z - sum floor(lambda_i) v_i = sum {lambda_i} v_i, a
    lattice point as the v_i are.  m' = sum {lambda_i} is an integer, as
    m and every floor are, and each of at most d + 1 fractional parts is
    below 1, so 0 <= m' <= min(m, d).  For m' = 0, z0 = 0 and
    z = sum floor(lambda_i) a_i + sum floor(lambda_i) b_i, lattice points
    of m * P and m * Q (a sum of j points of a convex set X lies in j X).
    Otherwise z0 / m' is a convex combination of vertices, so z0 is a
    lattice point of m' * R, and level m' <= d splits it as z0' + z0''.
    Then z = (z0' + sum floor(lambda_i) a_i)
    + (z0'' + sum floor(lambda_i) b_i), over m' * P + (m - m') * P = m * P
    and the same for Q.  For d = 0, R is the one lattice point a + b,
    every m' is 0, and every level holds with nothing scanned.

    (b) Now m >= d + 1 and at most d + 1 terms sum to m, so some
    lambda_i >= m / (d + 1) >= 1.  Then z - v_i has the coefficients
    lambda_i - 1 >= 0 and the others, summing to m - 1, so it is a lattice
    point of (m - 1) * R (of 0 * R = {0} for d = 0 and m = 1, which splits
    as 0 + 0).  Level m - 1 splits it as w' + w'', and
    z = (w' + a_i) + (w'' + b_i).

    So at step k the sweep scans s = 1..min(s_max, ceil(d / k)) only:
    were every level s * k up to that cap c located, c * k >= d and (b)
    would give every later level.  The cap drops no failure, so verdicts,
    witnesses and failures are those of the full loop; an R that is not
    vertex-split (rational vertices, or vertices that split over no lattice
    points) is scanned at every (k, s) as before.  A ``verified_up_to``
    report says in checked["all_scales"] whether step k holds for every s:
    true exactly when R is vertex-split and k * s_max >= d."""
    positive_int(k_max, "k_max")
    positive_int(s_max, "s_max")
    if r.v.rays:
        raise Unbounded("the multiple sweep checks bounded sets only, "
                        "and the set to split has rays")
    d = _split_dimension(r, p, q)
    sets = _prepared(r, p, q)
    witnesses = {}
    failures = []
    for k in range(1, k_max + 1):
        top = s_max if d is None else min(s_max, -(-d // k))
        for s in range(1, top + 1):
            m = s * k
            if m not in witnesses:
                witnesses[m] = _first_unsplit(*sets, (m, m, m))
            z = witnesses[m]
            if z is not None:
                failures.append([k, s, list(z)])
                break
        else:
            return LocationReport(VERDICT_VERIFIED_UP_TO, None,
                                  {"k": k, "k_max": k_max, "s_max": s_max,
                                   "all_scales": d is not None
                                   and k * s_max >= d})
    return LocationReport(VERDICT_EXHAUSTED, None,
                          {"k_max": k_max, "s_max": s_max,
                           "failures": failures})
