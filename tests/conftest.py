"""Shared generators and independent oracles for the test suite.

Oracles deliberately avoid the code paths they check: lattice point counts
come from exhaustive box membership with rational dot products, ranks and
vertex sets from Fraction elimination (on d-subsets of the constraint rows
for vertices), decompositions from pairwise sums of the oracle point lists,
and splits over unbounded summands from a box search over one summand.
The Hermite normal form that also builds its unimodular transform
(``hnf_with_transform``), and the two-HNF kernel and saturation routes and
integral solver built on it, are references for the transform-free
versions in ``normloc.exact``.  The split-region guard and the GIT cone
also keep their cone-based forms here: tail(P) cap -tail(Q) as a
canonical cone, and each vertex-support cone of a fresh ``from_h`` fiber
built whole before the intersection.  ``is_generating_candidate_ref`` and
``refinement_iff_interior_ref`` test degrees against a canonical GIT cone
record: the references for the per-support row tests of
``is_generating_candidate`` and ``refinement_iff_interior``, which build
no GIT cone.
The per-point lattice scan (``scan_undecomposed_ref``) is the reference
for the line-at-a-time ``kernels.scan_undecomposed``, and the three-pass
``from_v_ref`` for the ``from_v`` that reuses its first facets.
``is_face_ref`` decides faces by carving c with a canonical ``cone_from_h``
and comparing, and ``git_fan_ref`` splits every cell along every wall and
takes one GIT cone per cell by its definition, the intersection of the
orbit cones (``orbit_cones_ref``, all 2^n of them) containing a cell
point; they are the references for ``fans.is_face`` and ``gitfan.git_fan``.
``is_normal_ref`` and ``located_multiple_search_ref`` build each dilated
sum as a Minkowski sum of freshly scaled copies through
``normally_located``, and ``from_h_ref`` rescales every row to a primitive
normal (``hrep``) before the H-to-V pass; they are the references for the
versions that scale a sum once and normalize each row once.
``located_multiple_search_ref`` and ``refinement_iff_interior_ref`` decide
refinement by building both normal fans and running ``refines``: the
reference for ``gitfan.normal_fan_refines``, which counts vertices.
The three sweep references run their own (k, s) loop (``_sweep_ref``)
over every s <= s_max, where the package caps s at the dimension of the
set to split, and ``split_dimension_ref`` decides their ``all_scales`` by
one ``decompose`` per vertex, where the package reads vertex sums.
``multiple_making_sums_exact_ref`` checks each step with one
``fiber_point_sum_exact_ref`` of the two degrees, on the fibers' canonical
records, where the package passes the three fibers at the multiple s*k to
the location engine directly, as scan sets of their defining rows.
``scaled_scan_set_ref`` builds m * P as a scan set of Fraction products
(rows (n, m * b), vertices m * v), ``frame_box_ref`` takes a y-box by
solving for each point's y over Q, and ``multiple_sweep_ref`` checks
each step on three such sets through ``_located_over``: the references
for the sweeps that build each set's scan system once and scale it by
integers.
``scale_ref`` and ``translate_ref`` rebuild the mapped vertices through
``from_v`` (both DD directions), ``fiber_point_sum_exact_ref`` relabels a
witness by membership in the Minkowski sum of the fibers, and
``is_fan_ref`` intersects each pair of cones canonically; they are the
references for the versions that run only the V-to-H pass, one emptiness
test and one DD pass per pair.  ``fiber_sum_exact_ref`` compares the
records of P(u1) + P(u2) and P(u1 + u2), the reference for the
``fiber_sum_exact`` that reads vertex lists only.
``dot_ref`` and ``primitive_ref`` are the generator-expression dot
product and the denominator-clearing ``primitive`` that every input took,
and ``lines_ref`` the row-major line scan with its ``minrest`` table;
they are the references for the versions on C builtins (``map(mul)``,
one ``gcd`` on int entries, a column-major recursion over slacks).
``x_system`` gives a set's scan system in x, each equality as two opposing
rows: the form every scan took before the scans moved to the lattice
coordinates of the affine hull.  The kernels run on it are the reference
for the frame scans of ``latpoints``, and ``fiber_from_h_ref`` (a fresh
``from_h`` per degree) for the fibers built by scaling and for the fibers
that ``realize_pair`` lifts off the pair instead of building them.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm

from normloc import dd, kernels
from normloc.errors import (DimensionMismatch, EmptyPolyhedron,
                            NormlocError, NotLattice, Unbounded,
                            WeightOutsideCone, ZeroVector)
from normloc.exact import (IMat, IVec, as_int, dot, identity_matrix,
                           primitive, transpose)
from normloc.fans import (Cone, _assemble, _clean, cone_contains,
                          cone_from_generators, cone_from_h, fan_from_cones,
                          intersect_cones, normal_fan, refines,
                          relative_interior_contains, support)
from normloc.gitfan import (GENERATING_BY_THEOREM, INDETERMINATE_BOUNDARY,
                            NOT_GENERATING_BY_THEOREM, CrossCheckReport,
                            GradedProjection, fiber, git_cone, realize_pair,
                            weight_cone)
from normloc.latpoints import (LatticePointSet, LocationReport,
                               VERDICT_EXHAUSTED, VERDICT_LOCATED,
                               VERDICT_NOT_LOCATED, VERDICT_VERIFIED_UP_TO,
                               _located_over, _ScanSet, decompose,
                               normally_located)
from normloc.polyhedra import (HRep, Polyhedron, VRep, _h_to_v, _v_to_h,
                               from_h, from_v, minkowski_sum, scale, vrep)
from normloc.reps import NORMALITY_FAILURE, NOT_IN_SUM, Witness


def rank(rows) -> int:
    """Rank over Q of int/Fraction row vectors, by Fraction elimination."""
    work = [list(map(Fraction, r)) for r in rows]
    n = len(work[0]) if work else 0
    rk = 0
    for c in range(n):
        piv = next((i for i in range(rk, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        pr = work[rk]
        for i in range(len(work)):
            if i != rk and work[i][c] != 0:
                f = work[i][c] / pr[c]
                work[i] = [a - f * b for a, b in zip(work[i], pr)]
        rk += 1
        if rk == len(work):
            break
    return rk


def solve_rational(a, b):
    """One rational solution of ``a @ x = b`` (free variables 0), or None.

    Fraction Gauss-Jordan elimination; ``a`` is a sequence of rows, ``b``
    the right hand side, entries ints or Fractions.
    """
    m = [list(map(Fraction, row)) + [Fraction(bb)] for row, bb in zip(a, b)]
    if not m:
        return None
    n = len(m[0]) - 1
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr = m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / pr[c]
                m[i] = [x - f * y for x, y in zip(m[i], pr)]
        pivots.append(c)
        r += 1
    for i in range(r, len(m)):
        if m[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = m[i][n] / m[i][c]
    return tuple(x)


def matmul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def hnf_with_transform(m: IMat) -> tuple[IMat, IMat]:
    """Row Hermite normal form with its unimodular transform.

    Returns ``(h, u)`` with ``h = u @ m``, ``u`` unimodular, pivots of ``h``
    positive with strictly increasing column indices, entries above each
    pivot reduced into ``[0, pivot)``, and zero rows at the bottom.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(r) for r in m]
    u = [list(r) for r in identity_matrix(rows)]
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # knock column c down to a single nonzero entry at or below row r
        while True:
            nz = [i for i in range(r, rows) if h[i][c] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            for i in nz:
                if i == i0:
                    continue
                q = h[i][c] // h[i0][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[i0])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[i0])]
        nz = [i for i in range(r, rows) if h[i][c] != 0]
        if not nz:
            continue
        i0 = nz[0]
        h[r], h[i0] = h[i0], h[r]
        u[r], u[i0] = u[i0], u[r]
        if h[r][c] < 0:
            h[r] = [-a for a in h[r]]
            u[r] = [-a for a in u[r]]
        p = h[r][c]
        for i in range(r):
            q = h[i][c] // p
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
        r += 1
    return tuple(map(tuple, h)), tuple(map(tuple, u))


def kernel_lattice_basis_ref(m: IMat) -> IMat:
    """Saturated kernel basis by two HNFs: the rows of ``u`` that ``h``
    sends to zero, then the HNF of those rows."""
    if not m:
        return ()
    n = len(m[0])
    h, u = hnf_with_transform(transpose(m))
    ker = [u[i] for i in range(n) if all(x == 0 for x in h[i])]
    if not ker:
        return ()
    hk, _ = hnf_with_transform(tuple(ker))
    return tuple(r for r in hk if any(x != 0 for x in r))


def solve_integral(m: IMat, target: IVec) -> IVec | None:
    """One integral solution of ``m @ x = target``, or None.

    Uses the HNF of the transpose: with h = u @ m^T, solve h^T z = target by
    forward substitution along the pivots, then x = u^T z.
    """
    rows = len(m)
    if rows == 0:
        return None
    n = len(m[0])
    h, u = hnf_with_transform(transpose(m))
    residual = list(target)
    z = [0] * n
    for j in range(n):
        piv = next((c for c in range(rows) if h[j][c] != 0), None)
        if piv is None:
            break
        if residual[piv] % h[j][piv] != 0:
            return None
        z[j] = residual[piv] // h[j][piv]
        if z[j]:
            for c in range(rows):
                residual[c] -= z[j] * h[j][c]
    if any(residual):
        return None
    x = [0] * n
    for j in range(n):
        if z[j]:
            for i in range(n):
                x[i] += z[j] * u[j][i]
    return tuple(x)


def saturated_basis_ref(vectors) -> IMat:
    """HNF basis of span(vectors) cap Z^n through the two-HNF kernels."""
    vs = [primitive(v) for v in vectors if any(x != 0 for x in v)]
    if not vs:
        return ()
    comp = kernel_lattice_basis_ref(tuple(vs))
    if not comp:
        n = len(vs[0])
        return identity_matrix(n)
    return kernel_lattice_basis_ref(comp)


def box_of(p: Polyhedron):
    lo = tuple(ceil(min(v[i] for v in p.v.vertices)) for i in range(p.dim))
    hi = tuple(floor(max(v[i] for v in p.v.vertices)) for i in range(p.dim))
    return lo, hi


def x_system(p: Polyhedron):
    """P's kernel system in x: its inequality rows, each equality as an
    opposing pair of rows, and its vertex box (P bounded)."""
    rows = [(tuple(b.denominator * x for x in n), b.numerator)
            for n, b in p.h.inequalities]
    for n, b in p.h.equalities:
        nn = tuple(b.denominator * x for x in n)
        rows += [(nn, b.numerator), (tuple(-x for x in nn), -b.numerator)]
    lo, hi = box_of(p)
    return tuple(a for a, _ in rows), tuple(b for _, b in rows), lo, hi


def oracle_points(p: Polyhedron):
    """Lattice points by brute box search with exact membership tests."""
    lo, hi = box_of(p)
    out = []

    def walk(prefix):
        i = len(prefix)
        if i == p.dim:
            if p.contains(prefix):
                out.append(tuple(prefix))
            return
        for v in range(lo[i], hi[i] + 1):
            walk(prefix + [v])

    walk([])
    return out


def oracle_vertices(p: Polyhedron):
    """Vertices from rank-d subsets of the constraint rows."""
    d = p.dim
    rows = list(p.h.inequalities)
    for n, b in p.h.equalities:
        rows.append((n, b))
        rows.append((tuple(-x for x in n), -b))
    verts = set()
    for sub in combinations(rows, d):
        mat = tuple(tuple(Fraction(x) for x in n) for n, _ in sub)
        if rank(mat) != d:
            continue
        sol = solve_rational(mat, tuple(b for _, b in sub))
        if sol is None:
            continue
        if p.contains(sol):
            verts.add(tuple(sol))
    return sorted(verts)


def oracle_sums(points_a, points_b):
    return sorted({tuple(x + y for x, y in zip(u, v))
                   for u in points_a for v in points_b})


def lattice_sum(a: LatticePointSet, b: LatticePointSet) -> LatticePointSet:
    """Pointwise sumset {x + y : x in a, y in b} of two point sets."""
    return LatticePointSet(a.dim, tuple(oracle_sums(a.points, b.points)))


def oracle_split(p: Polyhedron, q: Polyhedron, z):
    """Lex-least lattice split z = z' + z'' over (P, Q), or None.

    z' ranges over the box [min P, z - min Q] of vertex minima, which holds
    every split when the tails of P and Q lie in the nonnegative orthant.
    """
    assert all(x >= 0 for r in p.v.rays + q.v.rays for x in r)
    pmin = [ceil(min(v[i] for v in p.v.vertices)) for i in range(p.dim)]
    qmin = [ceil(min(v[i] for v in q.v.vertices)) for i in range(q.dim)]
    for zp in product(*(range(a, c - b + 1)
                        for a, c, b in zip(pmin, z, qmin))):
        zq = tuple(c - a for c, a in zip(z, zp))
        if p.contains(zp) and q.contains(zq):
            return zp, zq
    return None


def oracle_window_points(r: Polyhedron, lo, hi):
    """Lattice points of R in the box [lo, hi], lex order, by membership."""
    return [z for z in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            if r.contains(z)]


def random_polytope(rng: random.Random, d: int, bound: int,
                    npoints=None, full_dim=True) -> Polyhedron:
    """Hull of random nonnegative lattice points inside [0, bound]^d."""
    npoints = npoints or d + 3
    while True:
        pts = {tuple(rng.randint(0, bound) for _ in range(d))
               for _ in range(npoints)}
        try:
            p = from_v(VRep(tuple(sorted(pts)), ()))
        except NormlocError:
            continue
        if not full_dim or p.affine_dimension() == d:
            return p


# rays of common tails in the nonnegative orthant, by dimension: the
# tails a realized pair may have
TAILS = {1: (((1,),),),
         2: (((1, 0),), ((0, 1),), ((1, 1),), ((1, 0), (0, 1)),
             ((1, 0), (1, 2)), ((0, 1), (3, 1))),
         3: (((0, 0, 1),), ((1, 1, 1),), ((1, 0, 0), (0, 1, 0)),
             ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
             ((1, 1, 0), (0, 1, 1), (1, 0, 1)), ((1, 2, 0), (0, 0, 1)))}


def reeve(h: int) -> Polyhedron:
    """The Reeve tetrahedron of height h: its only lattice points are its
    four vertices, and for h >= 2 it is not normal."""
    return from_v(VRep(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, h)), ()))


def decompose_unbounded_guard_ref(p: Polyhedron, q: Polyhedron):
    """Raise Unbounded when the cone tail(P) cap -tail(Q) is not {0}."""
    p_tail = cone_from_generators(p.dim, rays=p.v.rays)
    q_tail = cone_from_generators(q.dim, rays=q.v.rays)
    neg = cone_from_generators(q.dim, rays=[tuple(-x for x in r)
                                            for r in q_tail.rays],
                               lines=q_tail.lines)
    meet = intersect_cones(p_tail, neg)
    if meet.rays or meet.lines:
        raise Unbounded("decomposition search region is unbounded: "
                        "tail(P) meets -tail(Q) outside the origin")


def fiber_from_h_ref(g: GradedProjection, u) -> Polyhedron:
    """P(u) by one fresh ``from_h`` of {x >= 0 : pi(x) = u}."""
    eqs = tuple(zip(g.matrix, u))
    ineqs = tuple((tuple(-int(i == j) for j in range(g.n)), 0)
                  for i in range(g.n))
    return from_h(HRep(ineqs, eqs))


def git_cone_ref(g: GradedProjection, u) -> Cone:
    """GIT cone of u from whole vertex-support cones of a fresh fiber."""
    f = fiber_from_h_ref(g, u)
    supports = sorted({tuple(i for i, x in enumerate(v) if x != 0)
                       for v in f.v.vertices})
    cones = [cone_from_generators(g.m, rays=[g.weights[i] for i in sup])
             for sup in supports]
    return cone_from_h(g.m,
                       ineqs=[n for c in cones for n in c.ineq_normals],
                       eqs=[n for c in cones for n in c.eq_normals])


def is_generating_candidate_ref(g: GradedProjection, u1, u2) -> str:
    """is_generating_candidate on the canonical record of lam(u1 + u2)
    (``git_cone_ref``): both degrees in it, then both in its relative
    interior."""
    lam = git_cone_ref(g, tuple(a + b for a, b in zip(u1, u2)))
    if not (lam.contains_point(u1) and lam.contains_point(u2)):
        return NOT_GENERATING_BY_THEOREM
    if (relative_interior_contains(lam, u1)
            and relative_interior_contains(lam, u2)):
        return GENERATING_BY_THEOREM
    return INDETERMINATE_BOUNDARY

def cone_from_generators_ref(dim: int, rays=(), lines=()) -> Cone:
    """lin(lines) + cone(rays) by two DD passes: the facet normals off the
    generators, then the canonical generators off the facet normals."""
    rays0, lines0 = _clean(dim, rays), _clean(dim, lines)
    eqs, ineqs = dd.generators_from_constraints(dim, lines0, rays0)
    glines, grays = dd.generators_from_constraints(dim, eqs, ineqs)
    return _assemble(dim, glines, grays, eqs, ineqs)


def dual_cone_ref(c: Cone) -> Cone:
    """The dual of c rebuilt by ``cone_from_h``, two DD passes: the
    functionals y with -r @ y <= 0 for c's rays r and zero on its lines."""
    return cone_from_h(c.dim,
                       ineqs=tuple(tuple(-x for x in r) for r in c.rays),
                       eqs=c.lines)


def is_face_ref(f: Cone, c: Cone) -> bool:
    """Whether f is a face of c: c carved by the normals tight on f is f."""
    if not cone_contains(c, f):
        return False
    tight = [n for n in c.ineq_normals
             if all(dot(n, r) == 0 for r in f.rays)
             and all(dot(n, ln) == 0 for ln in f.lines)]
    carved = cone_from_h(c.dim, ineqs=c.ineq_normals,
                         eqs=c.eq_normals + tuple(tight))
    return carved == f


def orbit_cones_ref(g: GradedProjection):
    """All cones spanned by subsets of the weights, the zero cone included,
    deduplicated and sorted: every one of the 2^n subsets, no cap."""
    distinct = sorted({primitive(w) for w in g.weights if any(w)})
    cones = {cone_from_generators(g.m, rays=sub)
             for size in range(len(distinct) + 1)
             for sub in combinations(distinct, size)}
    return tuple(sorted(cones, key=Cone.sort_key))


def git_cone_by_orbits_ref(orbits, u) -> Cone:
    """GIT cone of u by definition: the intersection of every orbit cone
    in ``orbits`` that contains u."""
    lam = None
    for oc in orbits:
        if oc.contains_point(u):
            lam = oc if lam is None else intersect_cones(lam, oc)
    return lam


def wall_normals_ref(g: GradedProjection):
    """Primitive normals (first nonzero entry positive) of the hyperplanes
    spanned by m-1 weights: the saturated kernel of every (m-1)-subset of
    distinct primitive weights whose kernel is a line; (1,) for m = 1."""
    if g.m == 1:
        return [(1,)]
    distinct = sorted({primitive(w) for w in g.weights if any(w)})
    normals = set()
    for sub in combinations(distinct, g.m - 1):
        ker = kernel_lattice_basis_ref(sub)
        if len(ker) == 1:
            normals.add(ker[0])  # HNF row: primitive, lead > 0
    return sorted(normals)


def git_fan_ref(g: GradedProjection):
    """``to_dict()`` of the GIT fan: every cell split along every wall,
    lower-dimensional pieces dropped, one GIT cone per cell from the orbit
    cones, pairwise intersections checked by ``is_face_ref``."""
    wc = weight_cone(g)
    orbits = orbit_cones_ref(g)
    cells = {wc}
    for nrm in wall_normals_ref(g):
        neg = tuple(-x for x in nrm)
        nxt = set()
        for cell in cells:
            for side in (nrm, neg):
                piece = cone_from_h(g.m, ineqs=cell.ineq_normals + (side,),
                                    eqs=cell.eq_normals)
                if piece.span_dim == wc.span_dim:
                    nxt.add(piece)
        cells = nxt
    chambers = set()
    for cell in sorted(cells, key=Cone.sort_key):
        sample = tuple(sum(col) for col in zip(*cell.rays)) if cell.rays \
            else (0,) * g.m
        chambers.add(git_cone_by_orbits_ref(orbits, sample))
    fan = fan_from_cones(g.m, chambers)
    verified = support(fan) == wc and is_fan_ref(fan.maximal_cones)
    return {"weight_cone": wc.to_dict(),
            "git_cones": [c.to_dict() for c in fan.maximal_cones],
            "fan_verified": verified}


def is_fan_ref(cones) -> bool:
    """Pairwise intersections are faces of both cones, by ``is_face_ref``."""
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            cap = intersect_cones(cones[i], cones[j])
            if not (is_face_ref(cap, cones[i]) and is_face_ref(cap, cones[j])):
                return False
    return True


def from_v_ref(v: VRep) -> Polyhedron:
    """from_v by three DD passes: V to H, then from_h's H to V and V to H."""
    v = vrep(v.vertices, v.rays)
    ineqs, eqs = _v_to_h(len(v.vertices[0]), v.vertices, v.rays)
    return from_h(HRep(tuple(ineqs), tuple(eqs)))


def scale_ref(p: Polyhedron, k: int) -> Polyhedron:
    """scale through ``from_v`` on the dilated vertices and the rays."""
    if not isinstance(k, int) or k < 1:
        raise NormlocError(f"scale factor must be a positive integer: {k}")
    if k == 1:
        return p
    verts = tuple(tuple(k * x for x in v) for v in p.v.vertices)
    return from_v(VRep(verts, p.v.rays))


def translate_ref(p: Polyhedron, t) -> Polyhedron:
    """translate through ``from_v`` on the exactly shifted vertices."""
    if len(t) != p.dim:
        raise DimensionMismatch("translation vector has wrong length")
    t = tuple(Fraction(s) for s in t)
    verts = tuple(tuple(x + s for x, s in zip(v, t)) for v in p.v.vertices)
    return from_v(VRep(verts, p.v.rays))


def in_weight_cone_ref(g: GradedProjection, u):
    """u as an int tuple, or WeightOutsideCone unless the weight cone holds
    it: decided on ``weight_cone(g)``'s facets, not on the fiber."""
    u = tuple(as_int(x) for x in u)
    if len(u) != g.m:
        raise DimensionMismatch(f"degree has length {len(u)}")
    if not weight_cone(g).contains_point(u):
        raise WeightOutsideCone(f"degree {u} lies outside the weight cone")
    return u


def fiber_point_sum_exact_ref(g: GradedProjection, u1, u2,
                              window=None) -> LocationReport:
    """fiber_point_sum_exact with a witness relabelled not_in_sum when the
    Minkowski sum P(u1) + P(u2) does not contain it."""
    u1 = in_weight_cone_ref(g, u1)
    u2 = in_weight_cone_ref(g, u2)
    u12 = tuple(a + b for a, b in zip(u1, u2))
    f1 = fiber(g, u1)
    f2 = fiber(g, u2)
    report = _located_over(fiber(g, u12), f1, f2, window)
    witness = report.witness
    if witness and not minkowski_sum(f1, f2).contains(witness.point):
        witness = Witness(witness.point, NOT_IN_SUM)
    checked = dict(report.checked)
    checked["u1"], checked["u2"] = list(u1), list(u2)
    return LocationReport(report.verdict, witness, checked)


def fiber_sum_exact_ref(g: GradedProjection, u1, u2) -> bool:
    """P(u1) + P(u2) = P(u1 + u2) as canonical records: the Minkowski sum
    of two fresh ``from_h`` fibers against a third."""
    u12 = tuple(a + b for a, b in zip(u1, u2))
    return (minkowski_sum(fiber_from_h_ref(g, u1), fiber_from_h_ref(g, u2))
            == fiber_from_h_ref(g, u12))


def dot_ref(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive_ref(v):
    """Shortest integer vector along ``v``: denominators cleared first."""
    den = lcm(*(x.denominator for x in v))
    w = tuple(x.numerator * (den // x.denominator) for x in v)
    g = 0
    for x in w:
        g = gcd(g, abs(x))
    if not g:
        raise ZeroVector(f"no primitive vector for {tuple(v)}")
    return tuple(x // g for x in w)


def lines_ref(coeffs, rhs, lo, hi):
    """(prefix, lo_last, hi_last) for every nonempty line, row by row.

    Each row's bound on axis j is rhs minus its partial sum minus
    ``minrest[i][j + 1]``, the row's minimum over the box on the axes
    after j, divided by the coefficient.
    """
    d = len(lo)
    if any(a > b for a, b in zip(lo, hi)):
        return
    m = len(coeffs)
    minrest = []
    for row in coeffs:
        acc = [0] * (d + 1)
        for j in range(d - 1, -1, -1):
            c = row[j]
            acc[j] = acc[j + 1] + (c * lo[j] if c >= 0 else c * hi[j])
        minrest.append(acc)
    last = d - 1
    x = [0] * last

    def rec(j, partial):
        lo_j, hi_j = lo[j], hi[j]
        for i in range(m):
            c = coeffs[i][j]
            rem = rhs[i] - partial[i] - minrest[i][j + 1]
            if c > 0:
                b = rem // c
                if b < hi_j:
                    hi_j = b
            elif c < 0:
                b = -((-rem) // c)
                if b > lo_j:
                    lo_j = b
            elif rem < 0:
                return
        if j == last:
            if lo_j <= hi_j:
                yield tuple(x), lo_j, hi_j
            return
        for v in range(lo_j, hi_j + 1):
            x[j] = v
            nxt = [partial[i] + coeffs[i][j] * v for i in range(m)]
            yield from rec(j + 1, nxt)

    yield from rec(0, [0] * m)


def scan_undecomposed_ref(rcoeffs, rrhs, rlo, rhi,
                          pcoeffs, prhs, plo, phi,
                          qcoeffs, qrhs, qlo, qhi):
    """First point z of the R system admitting no split, point by point.

    Every lattice point of R in lex order gets the previous split, shifted
    to it, and the inner search when the shift misses.  The R scan and
    each inner search are one ``kernels.iter_points`` call apiece.
    """
    def member(coeffs, rhs, lo, hi, x):
        return (all(a <= v <= b for v, a, b in zip(x, lo, hi))
                and all(sum(a * v for a, v in zip(row, x)) <= b
                        for row, b in zip(coeffs, rhs)))

    d = len(rlo)
    icoeffs = [tuple(row) for row in pcoeffs]
    icoeffs += [tuple(-a for a in row) for row in qcoeffs]
    split = None
    for z in kernels.iter_points(rcoeffs, rrhs, rlo, rhi):
        if split is not None:
            zp, zq = split
            shifted = tuple(a - b for a, b in zip(z, zq))
            if member(pcoeffs, prhs, plo, phi, shifted):
                split = shifted, zq
                continue
            shifted = tuple(a - b for a, b in zip(z, zp))
            if member(qcoeffs, qrhs, qlo, qhi, shifted):
                split = zp, shifted
                continue
        ilo = tuple(max(plo[j], z[j] - qhi[j]) for j in range(d))
        ihi = tuple(min(phi[j], z[j] - qlo[j]) for j in range(d))
        irhs = list(prhs)
        for row, b in zip(qcoeffs, qrhs):
            irhs.append(b - sum(a * zz for a, zz in zip(row, z)))
        zp = next(kernels.iter_points(icoeffs, irhs, ilo, ihi), None)
        if zp is None:
            return z
        split = zp, tuple(a - b for a, b in zip(z, zp))
    return None


def hrep(inequalities, equalities=()) -> HRep:
    """Coerce rows (normal, rhs) into canonical scaling."""
    def row(n, b):
        if not any(n):
            raise ZeroVector("constraint with zero normal")
        p = primitive(n)
        j = next(i for i, x in enumerate(p) if x != 0)
        return p, Fraction(b) * p[j] / n[j]

    return HRep(tuple(row(n, b) for n, b in inequalities),
                tuple(row(n, b) for n, b in equalities))


def from_h_ref(h: HRep) -> Polyhedron:
    """from_h with every row rescaled by ``hrep`` before the H-to-V pass.
    The pass answers an infeasible system with no vertex, and the
    reference raises EmptyPolyhedron for it."""
    rows = tuple(h.inequalities) + tuple(h.equalities)
    if not rows:
        raise NormlocError("empty constraint system")
    d = len(rows[0][0])
    if any(len(n) != d for n, _ in rows):
        raise DimensionMismatch("constraint normals of mixed lengths")
    h = hrep(h.inequalities, h.equalities)
    v = _h_to_v(d, h)
    if not v.vertices:
        raise EmptyPolyhedron("constraint system is infeasible")
    ineqs, eqs = _v_to_h(d, v.vertices, v.rays)
    return Polyhedron(d, HRep(tuple(ineqs), tuple(eqs)), v)


def is_normal_ref(p: Polyhedron, s_max: int) -> LocationReport:
    """is_normal with scale s checked as normally_located((s-1)P, P)."""
    if not isinstance(s_max, int) or s_max < 1:
        raise NormlocError(f"s_max must be a positive integer: {s_max}")
    if p.v.rays:
        raise Unbounded("normality is checked for bounded polytopes")
    if not p.is_lattice():
        raise NotLattice("normality needs integral vertices")
    for s in range(2, s_max + 1):
        step = normally_located(scale(p, s - 1), p)
        if step.verdict == VERDICT_NOT_LOCATED:
            w = Witness(step.witness.point, NORMALITY_FAILURE, scale=s)
            return LocationReport(VERDICT_NOT_LOCATED, w, {"scale": s})
    return LocationReport(VERDICT_VERIFIED_UP_TO, None, {"s_max": s_max})


def split_dimension_ref(r, p, q):
    """dim aff R when every vertex of R is a lattice point that
    ``decompose`` splits over the lattice points of (P, Q), else None: the
    reference for the sweeps' vertex-split check on vertex sums, with d
    the ``affine_dimension`` of a fresh ``from_v`` record of R's
    vertices."""
    verts = r.v.vertices
    if any(Fraction(x).denominator != 1 for v in verts for x in v):
        return None
    if any(decompose(v, p, q) is None for v in verts):
        return None
    return from_v(VRep(verts, ())).affine_dimension()


def _sweep_ref(k_max: int, s_max: int, step, split) -> LocationReport:
    """The (k, s) loop of both sweeps, with step(k, s) a LocationReport:
    the first k whose every s is located, or each k's first failure.
    Every s <= s_max is checked.  split() gives ``split_dimension_ref``
    of the sweep's sets, read for checked["all_scales"] on a positive
    answer."""
    for name, x in (("k_max", k_max), ("s_max", s_max)):
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise NormlocError(f"{name} must be a positive integer: {x}")
    failures = []
    for k in range(1, k_max + 1):
        for s in range(1, s_max + 1):
            rep = step(k, s)
            if rep.verdict != VERDICT_LOCATED:
                assert rep.verdict == VERDICT_NOT_LOCATED, rep
                failures.append([k, s, list(rep.witness.point)])
                break
        else:
            d = split()
            return LocationReport(VERDICT_VERIFIED_UP_TO, None,
                                  {"k": k, "k_max": k_max, "s_max": s_max,
                                   "all_scales": d is not None
                                   and k * s_max >= d})
    return LocationReport(VERDICT_EXHAUSTED, None,
                          {"k_max": k_max, "s_max": s_max,
                           "failures": failures})


def scaled_scan_set_ref(p, m: int) -> _ScanSet:
    """m * P as a scan set: rows (n, m * b) and vertices m * v, each entry
    one product, so a Fraction stays a Fraction; no DD pass."""
    return _ScanSet(p.dim,
                    HRep(tuple((n, m * b) for n, b in p.h.inequalities),
                         tuple((n, m * b) for n, b in p.h.equalities)),
                    VRep(tuple(tuple(m * x for x in v)
                               for v in p.v.vertices), p.v.rays))


def frame_box_ref(frame, points, origin):
    """The integer y-box of the hull of ``points`` for x = origin + y B:
    each point's y by Fraction elimination on B's columns, then the ceil of
    the least and the floor of the largest y_t."""
    cols = transpose(frame.basis)
    ys = [solve_rational(cols, [a - o for a, o in zip(v, origin)])
          for v in points]
    return (tuple(ceil(min(t)) for t in zip(*ys)),
            tuple(floor(max(t)) for t in zip(*ys)))


def multiple_sweep_ref(k_max: int, s_max: int, r, p, q) -> LocationReport:
    """The multiple sweep with each step one ``_located_over`` of the three
    sets scaled by s*k (``scaled_scan_set_ref``), built afresh per step."""
    def step(k, s):
        return _located_over(*(scaled_scan_set_ref(x, s * k)
                               for x in (r, p, q)))

    return _sweep_ref(k_max, s_max, step,
                      lambda: split_dimension_ref(r, p, q))


def located_multiple_search_ref(q1: Polyhedron, q2: Polyhedron,
                                k_max: int, s_max: int) -> LocationReport:
    """located_multiple_search with each step a fresh normally_located of
    the two scaled copies (their Minkowski sum rebuilt every step)."""
    ok = refines(normal_fan(q1), normal_fan(q2))

    def step(k, s):
        return normally_located(scale(q1, s * k), scale(q2, s * k))

    def split():
        total = from_v(VRep(tuple(oracle_sums(q1.v.vertices,
                                              q2.v.vertices)), ()))
        return split_dimension_ref(total, q1, q2)

    rep = _sweep_ref(k_max, s_max, step, split)
    return LocationReport(rep.verdict, rep.witness,
                          {**rep.checked, "refines": ok})


def multiple_making_sums_exact_ref(g: GradedProjection, u1, u2,
                                   k_max: int, s_max: int) -> LocationReport:
    """multiple_making_sums_exact with each step one
    ``fiber_point_sum_exact_ref`` of the degrees s*k*u1 and s*k*u2, on the
    fibers' canonical records."""
    u1 = in_weight_cone_ref(g, u1)
    u2 = in_weight_cone_ref(g, u2)

    def step(k, s):
        return fiber_point_sum_exact_ref(g, tuple(s * k * x for x in u1),
                                         tuple(s * k * x for x in u2))

    def split():
        u12 = tuple(a + b for a, b in zip(u1, u2))
        return split_dimension_ref(*(fiber_from_h_ref(g, u)
                                     for u in (u12, u1, u2)))

    return _sweep_ref(k_max, s_max, step, split)


def refinement_iff_interior_ref(q1: Polyhedron,
                                q2: Polyhedron) -> CrossCheckReport:
    """refinement_iff_interior with the fan side from both normal fans and
    the GIT side from the record of ``git_cone`` of u1."""
    rp = realize_pair(q1, q2)
    fan_side = refines(normal_fan(rp.q1), normal_fan(rp.q2))
    lam = git_cone(rp.projection, rp.u1)
    git_side = (relative_interior_contains(lam, rp.u1)
                and lam.contains_point(rp.u2))
    return CrossCheckReport(fan_side, git_side, fan_side == git_side, rp)
