"""Rational polyhedra with exact double descriptions.

Every :class:`Polyhedron` carries a canonical vertex description (vertices
sorted lexicographically, recession rays primitive and sorted) and a
canonical halfspace description (irredundant facets ``normal @ x <= rhs``
with primitive integer normals, equalities as an HNF-reduced system).  The
tail cone is cone(``v.rays``): those rays are already its extreme rays.
Construction derives each description the caller did not give with the
double description engine, so two polyhedra are equal as sets iff their
records compare equal.

Only pointed polyhedra are supported: a constraint system whose solution set
contains a line has no vertex description and raises NotPointed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from numbers import Real
from operator import add

from . import dd
from .errors import (DimensionMismatch, EmptyPolyhedron, NormlocError,
                     NotPointed, Unbounded, ZeroVector)
from .exact import (as_int, dot, hermite_normal_form, positive_int,
                    primitive)
from .reps import HRep, VRep


@dataclass(frozen=True)
class Polyhedron:
    dim: int
    h: HRep
    v: VRep

    def contains(self, x) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has length {len(x)}, "
                                    f"polyhedron lives in {self.dim}")
        return (all(dot(n, x) == rhs for n, rhs in self.h.equalities)
                and all(dot(n, x) <= rhs for n, rhs in self.h.inequalities))

    def is_bounded(self) -> bool:
        return not self.v.rays

    def is_lattice(self) -> bool:
        """Whether every vertex is integral."""
        return all(x.denominator == 1 for v in self.v.vertices for x in v)

    def affine_dimension(self) -> int:
        """Dimension of aff(P): ``dim`` less the canonical equalities, which
        are independent (the nonzero rows of one HNF)."""
        return self.dim - len(self.h.equalities)


def vrep(vertices, rays=()) -> VRep:
    verts = tuple(tuple(Fraction(x) for x in v) for v in vertices)
    return VRep(verts, tuple(primitive(r) for r in rays))


def _homogenize_h(d, h: HRep):
    """Rows for the cone {(x, t) : t >= 0, x/t in P}: one primitive(n, -b)
    per row (n, b), which no positive rescaling of the row changes.  An int
    b stays an int, so all-integer rows take ``primitive``'s one gcd; any
    other b is read exactly as ``Fraction(b)``."""
    def row(n, b):
        if not any(n):
            raise ZeroVector("constraint with zero normal")
        return primitive(tuple(n) + (-(b if isinstance(b, int)
                                       else Fraction(b)),))

    ineqs = [row(n, b) for n, b in h.inequalities]
    eqs = [row(n, b) for n, b in h.equalities]
    ineqs.append((0,) * d + (-1,))
    return eqs, ineqs


def _h_to_v(d, h: HRep):
    eqs, ineqs = _homogenize_h(d, h)
    lines, rays = dd.generators_from_constraints(d + 1, eqs, ineqs)
    verts = []
    rec = []
    for r in rays:
        t = r[-1]
        if t > 0:
            verts.append(tuple(Fraction(x, t) for x in r[:-1]))
        else:
            rec.append(primitive(r[:-1]))
    # an infeasible system can still homogenize to a nontrivial cone (all of
    # it in the t = 0 slice), so emptiness must be decided before pointedness
    if not verts:
        raise EmptyPolyhedron("constraint system is infeasible")
    if lines:
        raise NotPointed("solution set contains a line; no vertex exists")
    return sorted(verts), sorted(rec)


def _v_to_h(d, verts, rec):
    """Canonical facets and equalities via the polar of the homogenization."""
    hverts = [primitive(v + (1,)) for v in verts]
    gens = set(hverts)
    gens.update(tuple(r) + (0,) for r in rec)
    plines, prays = dd.generators_from_constraints(d + 1, (), sorted(gens))
    ineqs = []
    for m in prays:
        if not any(dot(m, g) == 0 for g in hverts):
            # the t >= 0 facet of the homogenization, fixed only modulo the
            # polar lines; every facet of a pointed P contains a vertex
            continue
        sp, c = m[:-1], m[-1]
        g = gcd(*sp)
        ineqs.append((tuple(x // g for x in sp), Fraction(-c, g)))
    eq_rows = []
    for m in plines:
        sp, c = m[:-1], m[-1]
        eq_rows.append(sp + (-c,))
    eqs = []
    if eq_rows:
        for row in hermite_normal_form(tuple(eq_rows)):
            if any(row):
                eqs.append((row[:-1], Fraction(row[-1])))
    return sorted(ineqs), eqs


def from_h(h: HRep) -> Polyhedron:
    """Polyhedron of a halfspace description.

    One H-to-V pass gives the canonical vertices, and the facets are
    recomputed from them.  Raises EmptyPolyhedron if the system is
    infeasible and NotPointed if the solution set contains a line.
    """
    rows = tuple(h.inequalities) + tuple(h.equalities)
    if not rows:
        raise NormlocError("empty constraint system")
    d = len(rows[0][0])
    if any(len(n) != d for n, _ in rows):
        raise DimensionMismatch("constraint normals of mixed lengths")
    return _from_canonical_v(d, *_h_to_v(d, h))


def _from_canonical_v(d, verts, rec) -> Polyhedron:
    """Record of a canonical vertex description (lex-sorted vertices, the
    sorted primitive extreme rays), computing only the facets."""
    ineqs, eqs = _v_to_h(d, verts, rec)
    return Polyhedron(d, HRep(tuple(ineqs), tuple(eqs)),
                      VRep(tuple(verts), tuple(rec)))


def from_v(v: VRep) -> Polyhedron:
    """Polyhedron of a vertex description (at least one vertex required).

    Raises NotPointed when the rays' cone contains a line.  One V-to-H
    pass is canonical, flat sets included: the polar DD starts from
    identity lines and pivots on the first line meeting each new row, so
    its rays vanish on the columns where the generators gain no rank, and
    a facet normal's representative modulo the equalities depends only on
    the span of the homogenized generators, that is on aff(P).
    """
    if not v.vertices:
        raise NormlocError("a polyhedron needs at least one vertex")
    d = len(v.vertices[0])
    if any(len(p) != d for p in v.vertices) or any(len(r) != d
                                                   for r in v.rays):
        raise DimensionMismatch("generators of mixed lengths")
    if not d:
        raise NormlocError("a vertex needs at least one coordinate")
    v = vrep(v.vertices, v.rays)
    ineqs, eqs = _v_to_h(d, v.vertices, v.rays)
    if not ineqs and not eqs:
        raise NotPointed("the rays span the whole space; no vertex exists")
    h = HRep(tuple(ineqs), tuple(eqs))
    verts, rec = _h_to_v(d, h)
    return Polyhedron(d, h, VRep(tuple(verts), tuple(rec)))


def _int_vertices(vertices):
    """Each integral vertex as a tuple of ints, the others as they are."""
    return [tuple(map(int, v)) if all(x.denominator == 1 for x in v) else v
            for v in vertices]


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """Pointwise sum: pairwise vertex sums plus the union of the rays.

    Sums of integral vertices are added and sorted as ints; ``from_v``
    reads them back as Fractions, so the record does not change.
    """
    if p.dim != q.dim:
        raise DimensionMismatch("summands live in different dimensions")
    verts = sorted({tuple(map(add, vp, vq))
                    for vp in _int_vertices(p.v.vertices)
                    for vq in _int_vertices(q.v.vertices)})
    rays = sorted(set(p.v.rays) | set(q.v.rays))
    return from_v(VRep(tuple(verts), tuple(rays)))


def scale(p: Polyhedron, k: int) -> Polyhedron:
    """The dilation k * P for a positive integer k (P itself for k = 1).

    Scaling keeps the vertices' lex order and the rays, so only the facets
    are recomputed.
    """
    if positive_int(k, "scale factor") == 1:
        return p
    verts = tuple(tuple(k * x for x in v) for v in p.v.vertices)
    return _from_canonical_v(p.dim, verts, p.v.rays)


def translate(p: Polyhedron, t) -> Polyhedron:
    """The translate P + t, each entry of t taken exactly (a float as its
    binary value; NormlocError for a bool or a non-finite number).  Only
    the facets are recomputed: the shift keeps the vertex order and rays.
    """
    if len(t) != p.dim:
        raise DimensionMismatch("translation vector has wrong length")
    if not all(isinstance(s, Real) and not isinstance(s, bool) for s in t):
        raise NormlocError(f"translation entries must be numbers: {list(t)}")
    try:
        t = tuple(Fraction(s) for s in t)
    except (OverflowError, ValueError):
        raise NormlocError(f"translation entries must be finite: "
                           f"{list(t)}") from None
    verts = tuple(tuple(x + s for x, s in zip(v, t)) for v in p.v.vertices)
    return _from_canonical_v(p.dim, verts, p.v.rays)


def vertex_box(p: Polyhedron):
    """Integer box [lo, hi] containing all lattice points of a bounded P."""
    if p.v.rays:
        raise Unbounded("no finite bounding box: polyhedron has rays")
    lo = tuple(ceil(min(v[i] for v in p.v.vertices)) for i in range(p.dim))
    hi = tuple(floor(max(v[i] for v in p.v.vertices)) for i in range(p.dim))
    return lo, hi


def polyhedron_to_dict(p: Polyhedron):
    return {"dim": p.dim,
            "vertices": [[str(x) for x in v] for v in p.v.vertices],
            "rays": [list(r) for r in p.v.rays]}


def _number(x) -> Fraction:
    """x exactly; NormlocError for a bool (JSON true), as in ``as_int``."""
    if isinstance(x, bool):
        raise NormlocError(f"not a number: {x!r}")
    return Fraction(x)


def polyhedron_from_dict(data) -> Polyhedron:
    """Accepts either the vertex form or the halfspace form.

    Raises NormlocError when ``data`` is neither: not an object, missing
    keys, or entries that do not parse as numbers (bools included).
    """
    if not isinstance(data, dict):
        raise NormlocError("a polyhedron must be a JSON object, got "
                           f"{type(data).__name__}")
    try:
        if "vertices" in data:
            verts = [tuple(_number(x) for x in v) for v in data["vertices"]]
            rays = [tuple(as_int(x) for x in r) for r in data.get("rays", [])]
            rep = VRep(tuple(verts), tuple(rays))
        else:
            rep = HRep(*(tuple((tuple(as_int(x) for x in row["normal"]),
                                _number(row["rhs"]))
                               for row in data.get(key, []))
                         for key in ("inequalities", "equalities")))
    except NormlocError:
        raise
    except (KeyError, OverflowError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise NormlocError(f"malformed polyhedron: {exc!r}") from None
    return from_v(rep) if isinstance(rep, VRep) else from_h(rep)
