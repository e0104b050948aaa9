"""Polyhedral cones and fans with exact canonical forms.

A :class:`Cone` stores both descriptions at once, each canonicalized so that
equal cones compare equal: lines and equality normals as saturated HNF bases,
rays and facet normals primitive, reduced modulo the respective span, and
sorted.  Inequality normals follow the convention ``n @ x <= 0``.

Normal fans are taken with respect to maximizers: the cone attached to a
vertex v of Q consists of the functionals whose maximum over Q is attained
at v, and is generated by the outer normals of the facets through v.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dd
from .errors import DimensionMismatch, SupportMismatch
from .exact import IMat, dot, primitive, project_off, saturated_basis


@dataclass(frozen=True)
class Cone:
    dim: int
    rays: IMat
    lines: IMat
    ineq_normals: IMat
    eq_normals: IMat

    @property
    def span_dim(self) -> int:
        return self.dim - len(self.eq_normals)

    def is_pointed(self) -> bool:
        return not self.lines

    def contains_point(self, x) -> bool:
        return (all(dot(n, x) == 0 for n in self.eq_normals)
                and all(dot(n, x) <= 0 for n in self.ineq_normals))

    def sort_key(self):
        return (self.rays, self.lines)

    def to_dict(self):
        return {"rays": [list(r) for r in self.rays],
                "lines": [list(ln) for ln in self.lines]}


def _reduce_mod(vectors, basis) -> IMat:
    if not basis:
        return tuple(sorted(tuple(v) for v in vectors))
    return tuple(sorted(primitive(project_off(v, basis)) for v in vectors))


def _assemble(dim, lines, rays, eq_normals, ineq_normals) -> Cone:
    lines_c = saturated_basis(lines)
    eqs_c = saturated_basis(eq_normals)
    return Cone(dim,
                _reduce_mod(rays, lines_c),
                lines_c,
                _reduce_mod(ineq_normals, eqs_c),
                eqs_c)


def _clean(dim, vectors):
    out = []
    for v in vectors:
        v = tuple(v)
        if len(v) != dim:
            raise DimensionMismatch(f"expected vectors of length {dim}")
        if any(v):
            out.append(primitive(v))
    return out


def cone_from_generators(dim: int, rays=(), lines=()) -> Cone:
    """The cone lin(lines) + cone(rays).  Zero generators are dropped.

    The record of its polar, ``cone_from_h`` of the same vectors, holds the
    same four lists with rays and facet normals, and lines and equality
    normals, in swapped roles."""
    c = cone_from_h(dim, ineqs=rays, eqs=lines)
    return Cone(dim, c.ineq_normals, c.eq_normals, c.rays, c.lines)


def cone_from_h(dim: int, ineqs=(), eqs=()) -> Cone:
    """The cone of solutions of ``eqs @ x = 0`` and ``ineqs @ x <= 0``."""
    ineqs0 = _clean(dim, ineqs)
    eqs0 = _clean(dim, eqs)
    lines, rays = dd.generators_from_constraints(dim, eqs0, ineqs0)
    ceqs, cineqs = dd.generators_from_constraints(dim, lines, rays)
    return _assemble(dim, lines, rays, ceqs, cineqs)


def intersect_cones(a: Cone, b: Cone) -> Cone:
    if a.dim != b.dim:
        raise SupportMismatch("cones live in different dimensions")
    return cone_from_h(a.dim,
                       ineqs=a.ineq_normals + b.ineq_normals,
                       eqs=a.eq_normals + b.eq_normals)


def dual_cone(c: Cone) -> Cone:
    """All functionals nonnegative on c (zero on its lines), read off c's
    record with no DD pass: lines and equality normals swap roles, and so
    do rays and facet normals, negated (which keeps them primitive and
    reduced) and sorted again."""
    def neg(vectors):
        return tuple(sorted(tuple(-x for x in v) for v in vectors))
    return Cone(c.dim, neg(c.ineq_normals), c.eq_normals, neg(c.rays),
                c.lines)


def cone_contains(outer: Cone, inner: Cone) -> bool:
    """Set containment, checked on the inner cone's generators."""
    for r in inner.rays:
        if not outer.contains_point(r):
            return False
    for ln in inner.lines:
        if not (all(dot(n, ln) == 0 for n in outer.eq_normals)
                and all(dot(n, ln) == 0 for n in outer.ineq_normals)):
            return False
    return True


def relative_interior_contains(c: Cone, x) -> bool:
    """Strict membership: on the span of c and off every facet."""
    return (all(dot(n, x) == 0 for n in c.eq_normals)
            and all(dot(n, x) < 0 for n in c.ineq_normals))


@dataclass(frozen=True)
class Fan:
    """A finite fan, stored through its maximal cones."""

    dim: int
    maximal_cones: tuple[Cone, ...]

    def to_dict(self):
        return {"dim": self.dim,
                "maximal_cones": [c.to_dict() for c in self.maximal_cones]}


def fan_from_cones(dim: int, cones) -> Fan:
    """Dedupe, drop cones contained in strictly larger ones, sort."""
    unique = sorted(set(cones), key=Cone.sort_key)
    keep = [c for i, c in enumerate(unique)
            if not any(j != i and cone_contains(d, c)
                       for j, d in enumerate(unique))]
    return Fan(dim, tuple(keep))


def normal_fan(q) -> Fan:
    """Fan of maximizer cones of a polyhedron, one per vertex.

    The cone at vertex v is generated by the outer normals of the facets
    active at v, plus the span of the equality normals.  Distinct vertices
    have distinct cones, none inside another, so they are only sorted.
    """
    eq_normals = [n for n, _ in q.h.equalities]
    cones = []
    for v in q.v.vertices:
        active = [n for n, rhs in q.h.inequalities if dot(n, v) == rhs]
        cones.append(cone_from_generators(q.dim, rays=active,
                                          lines=eq_normals))
    return Fan(q.dim, tuple(sorted(cones, key=Cone.sort_key)))


def support(f: Fan) -> Cone:
    """Conic hull of the fan's support (exact for convex supports)."""
    rays = [r for c in f.maximal_cones for r in c.rays]
    lines = [ln for c in f.maximal_cones for ln in c.lines]
    return cone_from_generators(f.dim, rays=rays, lines=lines)


def _is_face(gens, m: Cone, c: Cone) -> bool:
    """Whether f = m cap c, a subset of c generated by ``gens`` (its rays
    and lines), is a face of c.

    The face of c on the normals tight on f is lin(c.lines) + cone(c's
    tight rays) and holds f; f is it iff f has c's lines and tight rays.
    Those are points of c, so membership in f is membership in m.
    """
    tight = [n for n in c.ineq_normals if all(dot(n, g) == 0 for g in gens)]
    return (all(dot(n, ln) == 0 for ln in c.lines
                for n in m.eq_normals + m.ineq_normals)
            and all(m.contains_point(r) for r in c.rays
                    if all(dot(n, r) == 0 for n in tight)))


def is_face(f: Cone, c: Cone) -> bool:
    """Whether f is a face of c (False unless f is contained in c)."""
    return cone_contains(c, f) and _is_face(f.rays + f.lines, f, c)


def is_fan(f: Fan) -> bool:
    """Pairwise intersections of maximal cones must be common faces.

    Each meet needs only generators, from one DD pass over both cones'
    rows; membership in it is tested against the other cone.
    """
    cones = f.maximal_cones
    if len({c.dim for c in cones}) > 1:
        raise SupportMismatch("cones live in different dimensions")
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            a, b = cones[i], cones[j]
            lines, rays = dd.generators_from_constraints(
                a.dim, a.eq_normals + b.eq_normals,
                a.ineq_normals + b.ineq_normals)
            if not (_is_face(rays + lines, b, a)
                    and _is_face(rays + lines, a, b)):
                return False
    return True


def _tiles(w: Cone, cones) -> bool:
    """Whether full-dimensional pointed cones form a fan with support w, a
    full-dimensional cone; read off rays and facet normals, with no DD.

    False unless w and every cone span the space and the cones are pointed
    (so a cone's facet is the cone of its tight rays and the sum of its rays
    is interior), and these hold:

    (a) every ray of every cone lies in w, so every cone lies in w;
    (b) every facet whose normal n is not a facet normal of w is matched:
        some other cone has a facet with normal -n and the same tight rays;
    (c) no (normal, tight rays) pair occurs twice, so the match is unique;
    (d) the ray sum x0 of the first cone lies in no other cone.

    Proof.  Call x generic if it lies in int w and on no facet hyperplane
    of any cone, and let N(x) count the cones containing x.  Join two
    generic points by a segment in int w that misses every meet of two
    distinct facet hyperplanes.  Where it crosses a boundary, at q, each
    cone with q on its boundary has q in the relative interior of a facet
    in one hyperplane H.  That facet's normal is not a facet normal of w,
    whose facet hyperplanes miss int w, so by (b) and (c) these cones pair
    off through shared facets, one cone of each pair on either side of H:
    N is the same just before and just after q.  So N is constant, and it
    is 1 by (d): x0 is interior to the first cone (so in int w) and has a
    neighbourhood that meets no other cone.  Hence the interiors are
    disjoint and, with (a), the cones cover w, the closure of int w.

    Face to face: let p lie in a cone C, F be the face of C with p in its
    relative interior, and S the cones reached from C by crossing matched
    facets that contain F; F is a face of each of them.  Near p the cones
    of S meet only along such facets or lie against facets of w through p,
    so the same count on their tangent cones at p shows that S covers w
    near p.  A cone C' through p has interior points near p, which lie in
    a cone of S, so N = 1 puts C' in S and F is a face of C' as well.
    Taking p in the relative interior of G = C cap C', G lies in F (the
    smallest face of C through p) and F lies in both cones, so G = F, a
    face of each.

    Conversely a fan of such cones with support w passes (a)-(d).  This is
    the interior-facet characterization of triangulations (De Loera,
    Rambau and Santos, *Triangulations*, 2010, section 4.5), which the
    argument extends from simplices to pointed cones.
    """
    if w.eq_normals or not cones:
        return False
    boundary = set(w.ineq_normals)
    facets = set()
    for c in cones:
        if c.dim != w.dim or c.lines or c.eq_normals:
            return False
        if not all(w.contains_point(r) for r in c.rays):
            return False
        for n in c.ineq_normals:
            key = (n, tuple(r for r in c.rays if dot(n, r) == 0))
            if key in facets:
                return False
            facets.add(key)
    for n, tight in facets:
        if n not in boundary and (tuple(-x for x in n), tight) not in facets:
            return False
    x0 = tuple(sum(col) for col in zip(*cones[0].rays))
    return not any(c.contains_point(x0) for c in cones[1:])


def refines(f1: Fan, f2: Fan) -> bool:
    """Whether every maximal cone of f1 sits inside some cone of f2."""
    if support(f1) != support(f2):
        raise SupportMismatch("fans have different supports")
    return all(any(cone_contains(c2, c1) for c2 in f2.maximal_cones)
               for c1 in f1.maximal_cones)


def common_refinement(f1: Fan, f2: Fan) -> Fan:
    """Coarsest fan refining both: all pairwise intersections."""
    if f1.dim != f2.dim:
        raise SupportMismatch("fans live in different dimensions")
    if support(f1) != support(f2):
        raise SupportMismatch("fans have different supports")
    cells = [intersect_cones(c1, c2)
             for c1 in f1.maximal_cones for c2 in f2.maximal_cones]
    return fan_from_cones(f1.dim, cells)
