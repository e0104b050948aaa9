"""GIT fans of graded polynomial rings and realizations of polytope pairs.

A grading is a projection pi: Z^n -> Z^m sending the i-th unit vector to the
weight w_i.  The fiber over a degree u is the polyhedron
P(u) = {x in Q^n : x >= 0, pi(x) = u}.  Orbit cones are the cones spanned by
subsets of the weights; the GIT cone of u is the intersection of all orbit
cones containing u, and the GIT cones form a fan covering the weight cone.

The sum conditions connect this back to lattice geometry:

* fiber_sum_exact:        P(u1) + P(u2)  =  P(u1 + u2)        (polyhedra)
* fiber_point_sum_exact:  the same on lattice points           (splitting)
* multiple_making_sums_exact: some multiple k makes the point
  condition hold for all s*k*u1, s*k*u2 up to a scale bound

realize_pair embeds any pair of lattice polyhedra with a common pointed tail
as two fibers of one grading, turning normal-location questions into degree
arithmetic, and refinement_iff_interior cross-checks the fan refinement
criterion against GIT cone membership on such a realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from operator import add

from . import dd
from .errors import (DimensionMismatch, NormlocError, NotFullDimensional,
                     NotLattice, RealizationError, SupportMismatch,
                     TailConeMismatch, WeightOutsideCone)
from .exact import (as_int, canonical_sign, dot, hermite_normal_form,
                    identity_matrix, transpose)
from .fans import Cone, _tiles, cone_from_generators, cone_from_h
from .latpoints import (LocationReport, _located_over, _multiple_sweep,
                        _ScanSet)
from .polyhedra import (HRep, Polyhedron, _from_canonical_v, _h_to_v,
                        minkowski_sum, translate)
from .reps import NOT_IN_SUM, Witness

GENERATING_BY_THEOREM = "generating_by_theorem"
NOT_GENERATING_BY_THEOREM = "not_generating_by_theorem"
INDETERMINATE_BOUNDARY = "indeterminate_boundary"


@dataclass(frozen=True)
class GradedProjection:
    """A surjective grading Z^n -> Z^m given by its weights pi(e_i) = w_i."""

    n: int
    m: int
    weights: tuple

    @cached_property
    def matrix(self):
        """The m x n integer matrix of the projection (weights as columns)."""
        return transpose(self.weights)

    def to_dict(self):
        return {"n": self.n, "m": self.m,
                "weights": [list(w) for w in self.weights]}


def graded_projection(weights) -> GradedProjection:
    """Validated grading from a list of n weights in Z^m.

    Requires n >= m and surjectivity onto Z^m (checked through the Hermite
    form of the weight rows: their row lattice must be all of Z^m).
    """
    ws = tuple(tuple(as_int(x) for x in w) for w in weights)
    if not ws:
        raise NormlocError("a grading needs at least one weight")
    m = len(ws[0])
    if m < 1:
        raise NormlocError("a weight needs at least one coordinate")
    if any(len(w) != m for w in ws):
        raise DimensionMismatch("weights of mixed lengths")
    n = len(ws)
    if n < m:
        raise NormlocError(f"need at least m = {m} weights, got {n}")
    ident = identity_matrix(m)
    nonzero = [row for row in hermite_normal_form(ws) if any(row)]
    if list(nonzero) != list(ident):
        raise NormlocError("weights do not span Z^m; grading not surjective")
    return GradedProjection(n, m, ws)


def graded_projection_from_dict(data) -> GradedProjection:
    """Grading of ``{"weights": [[...], ...]}``; NormlocError otherwise."""
    try:
        weights = [[as_int(x) for x in w] for w in data["weights"]]
    except NormlocError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise NormlocError(f"malformed grading: {exc!r}") from None
    return graded_projection(weights)


@lru_cache(maxsize=256)
def weight_cone(g: GradedProjection) -> Cone:
    """Cone spanned by all weights; every fiber degree must lie in it."""
    return cone_from_generators(g.m, rays=g.weights)


def _degree(g: GradedProjection, u):
    """The degree u as m integers; DimensionMismatch on any other length."""
    u = tuple(as_int(x) for x in u)
    if len(u) != g.m:
        raise DimensionMismatch(f"degree has length {len(u)}, grading "
                                f"maps onto Z^{g.m}")
    return u


def _fiber_entry(g: GradedProjection, u) -> _ScanSet:
    """P(u) of a checked degree u (``_degree``) as a ``latpoints._ScanSet``:
    the rows -x_i <= 0 and A x = u (A = ``g.matrix``) with the canonical
    vertices and rays of their one H-to-V pass.  The fiber is empty exactly
    when u lies outside the weight cone, which raises WeightOutsideCone: a
    cheap test for wide projections, whose weight cone can have very many
    facets.

    Every fiber reader builds each degree it reads once per call
    (``fiber``, ``git_cone``, ``_checked_pair``) and passes the entry
    along, which computes no facet: GIT cones and ``fiber_sum_exact`` read
    the vertices, the scans the whole set, and ``fiber`` builds a record
    from the vertices (a realized pair lifts its fibers, ``_realize``).

    The equality normals are A's rows, so every fiber of the grading is
    scanned in the one frame of ker A.  Where some x_i = 0 is implied on
    P(u), ker A is larger than the direction of aff(P(u)), but the lattice
    points of P(u) are the same in either frame, and the Hermite basis of
    ker A keeps lex order, so a witness is still the lex-least one.
    """
    h = HRep(tuple((tuple(-x for x in e), 0) for e in identity_matrix(g.n)),
             tuple(zip(g.matrix, u)))
    v = _h_to_v(g.n, h)
    if not v.vertices:
        raise WeightOutsideCone(f"degree {u} lies outside the weight cone")
    return _ScanSet(g.n, h, v)


def _checked_pair(g: GradedProjection, u1, u2):
    """(u1, u2, P(u1 + u2), P(u1), P(u2)) of a degree pair, the degrees as
    ``_degree`` checks them; u1 is checked and built before u2 is read, and
    u1 + u2 lies in the cone too.  Each distinct degree is built once:
    u1 == u2, or a zero degree, shares an entry."""
    u1 = _degree(g, u1)
    built = {u1: _fiber_entry(g, u1)}
    u2 = _degree(g, u2)
    u12 = tuple(map(add, u1, u2))
    for u in (u2, u12):
        if u not in built:
            built[u] = _fiber_entry(g, u)
    return u1, u2, built[u12], built[u1], built[u2]


def fiber(g: GradedProjection, u) -> Polyhedron:
    """The fiber polyhedron P(u) = {x >= 0 : pi(x) = u} in Q^n, as
    ``from_h`` gives it, its facets computed off the vertices of the one
    ``_fiber_entry`` of the checked degree."""
    v = _fiber_entry(g, _degree(g, u)).v
    return _from_canonical_v(g.n, v.vertices, v.rays)


def _support_rows(g: GradedProjection, sup):
    """(eqs, ineqs) of the cone spanned by the weights indexed by sup, one
    polar pass: integer cofactors and no DD for a simplicial support (m
    independent weights) in the closed form's reach, one DD pass
    otherwise."""
    eqs, ineqs = dd.generators_from_constraints(g.m, (),
                                                [g.weights[i] for i in sup])
    return tuple(eqs), tuple(ineqs)


def _vertex_support_rows(g: GradedProjection, vertices):
    """The ``_support_rows`` of every distinct support of the vertices (any
    order), in lex order of the supports."""
    return [_support_rows(g, sup)
            for sup in sorted({tuple(i for i, x in enumerate(v) if x != 0)
                               for v in vertices})]


def git_cone(g: GradedProjection, u) -> Cone:
    """Intersection of all orbit cones containing u.

    Computed without subset enumeration: the orbit cones spanned by the
    supports of the fiber's vertices suffice.  Each of them contains u, and
    any orbit cone containing u contains a point x of the fiber supported on
    its spanning set; the minimal face of the fiber through x (cut out by
    the coordinate hyperplanes vanishing on x) carries a vertex v with
    supp(v) inside supp(x), so the vertex-support cone sits inside that
    orbit cone.  At a fiber vertex the active rows have full rank, which
    forces the supporting weights to be linearly independent; GIT cones are
    therefore intersections of simplicial cones, in particular pointed.

    Only the fiber's vertex list is read (``_fiber_entry``, no facets).
    """
    return _vertex_support_cone(g, _fiber_entry(g, _degree(g, u)).v.vertices)


def _vertex_support_cone(g: GradedProjection, vertices) -> Cone:
    """``git_cone`` off a fiber's vertices: one ``cone_from_h`` of the
    ``_vertex_support_rows``."""
    rows = _vertex_support_rows(g, vertices)
    return cone_from_h(g.m, ineqs=[n for _, ineqs in rows for n in ineqs],
                       eqs=[n for eqs, _ in rows for n in eqs])


def _git_membership(g: GradedProjection, vertices, *degrees):
    """(u in lam, u in relint lam) for each degree u, lam the GIT cone of
    the degree u0 whose fiber has these vertices, tested against each
    vertex-support cone cone(w_sigma) (``_vertex_support_rows``) without
    building lam.

    lam is the intersection of the cone(w_sigma) (``git_cone``), so u lies
    in lam exactly when it satisfies the rows of every sigma.  Each vertex
    v of the fiber writes u0 as the sum of v_i w_i over sigma = supp(v),
    every v_i > 0, so u0 lies in the relative interior of every
    cone(w_sigma): the simplicial cone of the independent w_sigma, whose
    relative interior is where its equality rows vanish and its facet rows
    are negative.  The relative interiors therefore meet, and then the
    relative interior of the intersection is the intersection of the
    relative interiors (Rockafellar, *Convex Analysis*, 1970, Theorem
    6.5): u lies in relint lam exactly when every sigma's equality rows
    vanish at u and its facet rows are negative there."""
    rows = _vertex_support_rows(g, vertices)
    out = []
    for u in degrees:
        on_span = not any(dot(e, u) for eqs, _ in rows for e in eqs)
        facets = [dot(n, u) for _, ineqs in rows for n in ineqs]
        out.append((on_span and all(x <= 0 for x in facets),
                    on_span and all(x < 0 for x in facets)))
    return out


@dataclass(frozen=True)
class GitFan:
    grading: GradedProjection
    weight_cone: Cone
    git_cones: tuple
    fan_verified: bool

    def to_dict(self):
        return {"weight_cone": self.weight_cone.to_dict(),
                "git_cones": [c.to_dict() for c in self.git_cones],
                "fan_verified": self.fan_verified}


def _bases(g: GradedProjection):
    """The facet rows of cone(w_sup) for every basis sup (m linearly
    independent weights), in lex order of index tuples: the ``_support_rows``
    of the m-subsets, which have no equality exactly for a basis.  A basis
    is a simplicial support, so for m <= 3 its rows are integer cofactors,
    read with no DD, and only the dependent m-subsets run one."""
    rows = (_support_rows(g, sup) for sup in combinations(range(g.n), g.m))
    return tuple(ineqs for eqs, ineqs in rows if not eqs)


def git_fan(g: GradedProjection) -> GitFan:
    """The fan of all GIT cones, covering the weight cone.

    The weight cone W is cut into cells along every hyperplane spanned by
    m-1 weights (a wall) that crosses them; orbit cones are bounded by
    walls, so each cell lies in a single GIT cone, namely the one of any of
    its interior points.  The walls are the facet hyperplanes of the basis
    cones (``_bases``), read off their rows up to sign: each facet of
    cone(w_sigma) is spanned by m-1 of its weights, and m-1 independent
    weights extend to a basis (the weights span Q^m) whose cone has their
    hyperplane as a facet.  A cell is a live double-description state
    (``dd._state`` of W's rows, then ``dd._cut``): a wall n crossing it is
    inserted once as n and once as -n, one insertion per half.  Final
    cells are pointed: a line in a final cell lies in every wall, and for
    m >= 2 the walls meet only at 0 (m = 1 has the one wall {0}).  So a
    final cell's rays are its canonical rays, and their sum u is interior.

    The chamber of a cell is the GIT cone of u, named by the bases.  Being
    interior, u lies on no wall, and then the vertex supports of the fiber
    P(u) are exactly the bases sigma (m independent weights) with u in
    cone(w_sigma): a vertex support is independent, with fewer than m
    weights it would put u in the span of m-1 weights, a wall, and each
    such sigma has the basic solution x_sigma > 0, a vertex.  So one
    dot-product test per basis (``_bases``), and no fiber, finds the set
    of bases that ``git_cone(g, u)`` intersects.  Cells with the same set
    lie in one chamber, and together they cover it: GIT cones are
    constant on the interior points off the walls, which are dense in the
    chamber.  So the chamber is the conic hull of those cells' rays, one
    ``cone_from_generators`` per chamber, and the chambers are only sorted.

    The result is cross-checked and the outcome recorded in fan_verified
    rather than trusted: ``fans._tiles`` matches the chambers' facets,
    with no DD pass, and passes only if the chambers meet face to face
    and cover the weight cone exactly once (a gap, an overlap or a nested
    chamber fails it).  The surjective grading makes the weight cone
    full-dimensional, and chambers are GIT cones of interior cell points,
    full-dimensional and pointed, as the check needs.
    """
    wc = weight_cone(g)
    bases = _bases(g)
    cells = [dd._state(g.m, wc.eq_normals, wc.ineq_normals)]
    for nrm in sorted({canonical_sign(n) for ineqs in bases for n in ineqs}):
        nxt = []
        for cell in cells:
            lines, rays, _, _ = cell
            signs = {s > 0 for s in (dot(nrm, r) for r, _ in rays) if s}
            if len(signs) < 2 and not any(dot(nrm, ln) for ln in lines):
                nxt.append(cell)
                continue
            nxt.append(dd._cut(cell, nrm))
            nxt.append(dd._cut(cell, tuple(-x for x in nrm)))
        cells = nxt
    chambers = {}
    for _, ray_masks, _, _ in cells:
        rays = [r for r, _ in ray_masks]
        u = tuple(sum(col) for col in zip(*rays))
        sups = tuple(i for i, ineqs in enumerate(bases)
                     if all(dot(n, u) <= 0 for n in ineqs))
        chambers.setdefault(sups, set()).update(rays)
    found = sorted((cone_from_generators(g.m, rays=rays)
                    for rays in chambers.values()), key=Cone.sort_key)
    return GitFan(g, wc, tuple(found), _tiles(wc, found))


def fiber_sum_exact(g: GradedProjection, u1, u2) -> bool:
    """Whether P(u1) + P(u2) = P(u1 + u2) as polyhedra.

    The sum always lies in P(u1 + u2), and all three fibers have the tail
    {x >= 0 : A x = 0}.  So they are equal exactly when every vertex of
    P(u1 + u2) is a vertex of the sum, that is a sum of a vertex of P(u1)
    and one of P(u2): a check on the entries' vertex lists, no record.
    """
    _, _, f12, f1, f2 = _checked_pair(g, u1, u2)
    sums = {tuple(map(add, a, b))
            for a in f1.v.vertices for b in f2.v.vertices}
    return sums.issuperset(f12.v.vertices)


def fiber_point_sum_exact(g: GradedProjection, u1, u2,
                          window=None) -> LocationReport:
    """Whether every lattice point of P(u1 + u2) splits over P(u1), P(u2).

    Stronger than normal location of the pair: a witness can lie outside
    P(u1) + P(u2) entirely (kind "not_in_sum") or inside it but without a
    lattice split (kind "no_decomposition").  The scan reports every
    witness as no_decomposition; one outside the sum is relabelled here.
    A witness z of P(u1 + u2) lies in the sum iff some x of P(u1) has
    x <= z (then z - x >= 0 has degree u2), one H-to-V emptiness test.
    """
    u1, u2, f12, f1, f2 = _checked_pair(g, u1, u2)
    report = _located_over(f12, f1, f2, window)
    witness = report.witness
    if witness:
        caps = tuple(zip(identity_matrix(g.n), witness.point))
        if not _h_to_v(g.n, HRep(f1.h.inequalities + caps,
                                 f1.h.equalities)).vertices:
            witness = Witness(witness.point, NOT_IN_SUM)
    checked = dict(report.checked)
    checked["u1"], checked["u2"] = list(u1), list(u2)
    return LocationReport(report.verdict, witness, checked)


def multiple_making_sums_exact(g: GradedProjection, u1, u2,
                               k_max: int, s_max: int) -> LocationReport:
    """Search a multiple k <= k_max making the lattice point splitting of
    the fibers over s*k*u1, s*k*u2 exact for every s <= s_max.

    Verdict "verified_up_to" reports the first such k (in checked["k"]),
    and checked["all_scales"] says whether it holds for every s
    (``latpoints._multiple_sweep``); "exhausted" means every k failed,
    with the first failing scale and witness per k recorded in
    checked["failures"].
    The fiber at m * u is m * P(u), so the sweep builds the entries of
    u1 + u2, u1 and u2 only (``_checked_pair``), however many multiples it
    checks, and scales their systems.  Fibers with rays raise Unbounded.
    """
    return _multiple_sweep(k_max, s_max, *_checked_pair(g, u1, u2)[2:])


def is_generating_candidate(g: GradedProjection, u1, u2) -> str:
    """Classify the pair by position in the GIT fan.

    Some GIT cone contains both degrees iff both lie in the GIT cone of
    u1 + u2 (any common cone contains the segment between them, hence
    u1 + u2, hence the face it generates there, which pins down every orbit
    cone through u1 + u2).  Pairs interior to that common cone are
    generating; pairs with no common cone are not; pairs touching the
    boundary are left undecided by these criteria.

    The GIT cone of u1 + u2 is not built: both degrees are tested against
    the rows of each vertex support of P(u1 + u2) (``_git_membership``).
    u1 + u2 lies in the relative interior of every such support cone, so
    by Rockafellar's Theorem 6.5 a degree is interior to the GIT cone
    exactly when it is interior to each of them.
    """
    u1, u2, f12, _, _ = _checked_pair(g, u1, u2)
    (in1, inner1), (in2, inner2) = _git_membership(g, f12.v.vertices, u1, u2)
    if not (in1 and in2):
        return NOT_GENERATING_BY_THEOREM
    if inner1 and inner2:
        return GENERATING_BY_THEOREM
    return INDETERMINATE_BOUNDARY


@dataclass(frozen=True)
class RealizedPair:
    """Two polyhedra embedded as fibers of one grading.

    q1 and q2 are the translated copies the construction actually realizes;
    the functionals are the rows of the linear part, so the grading sends
    (x, y) in Z^d x Z^m to (y_i + functionals[i] . x)_i.
    """

    projection: GradedProjection
    u1: tuple
    u2: tuple
    functionals: tuple
    translation: tuple
    q1: Polyhedron
    q2: Polyhedron

    def to_dict(self):
        return {"projection": self.projection.to_dict(),
                "u1": list(self.u1), "u2": list(self.u2),
                "functionals": [list(f) for f in self.functionals],
                "translation": list(self.translation)}


def realize_pair(q1: Polyhedron, q2: Polyhedron) -> RealizedPair:
    """Embed lattice polyhedra Q1, Q2 with a common tail as two fibers.

    Both are translated into the positive orthant by one shared shift t.
    The functionals are the facet normals of the shifted sum Q1' + Q2',
    that is the rays of N(Q1') ^ N(Q2'), the normal fan of the sum; with
    l_1 > ... > l_m in lexicographic order and a_i, b_i their maxima over
    the shifted Q1, Q2, the grading on Z^(d+m) has weights (columns of
    the functional matrix, then unit vectors) and the fibers over u1 = a,
    u2 = b and u1 + u2 project isomorphically onto the shifted Q1, Q2 and
    their sum, as the construction checks on facet lists (``_realize``).
    """
    return _realize(q1, q2)[0]


def _realize(q1: Polyhedron, q2: Polyhedron):
    """The pair, whether N(Q1') refines N(Q2'), off one sum Q1' + Q2', and
    the vertices of P(u1) = {(x, u1 - F x) : x >= 0, F x <= u1}, F the
    functionals.  x >= 0 is slack on Q1' and Q2' (both in {x >= 1}), so
    P(u1) lifts Q1' iff every facet normal of Q1' is a row of F, the same
    for Q2', and P(u1 + u2) lifts the sum iff u1 + u2 are its right-hand
    sides: checks on facet lists, no fiber pass.  The identity block of the
    weights (F | I) makes the grading surjective, with no Hermite form."""
    if q1.dim != q2.dim:
        raise DimensionMismatch("polyhedra live in different dimensions")
    d = q1.dim
    for q in (q1, q2):
        if not q.is_lattice():
            raise NotLattice("realization needs integral vertices")
        if q.affine_dimension() != d:
            raise NotFullDimensional("realization needs full-dimensional "
                                     "polyhedra")
    if q1.v.rays != q2.v.rays:
        raise TailConeMismatch("realization needs a common tail cone")
    if any(x < 0 for r in q1.v.rays for x in r):
        raise TailConeMismatch("tail cone must lie in the nonnegative "
                               "orthant")
    lo = [min(min(v[i] for v in q.v.vertices) for q in (q1, q2))
          for i in range(d)]
    shift = tuple(max(0, 1 - int(x)) for x in lo)
    q1t, q2t = (translate(q, shift) for q in (q1, q2))
    total, refining = _refining_sum(q1t, q2t)
    rhs = dict(total.h.inequalities)
    funcs = sorted(rhs, reverse=True)
    # lattice vertices (checked above), so the support values are int dots
    ivs = [[tuple(map(int, v)) for v in q.v.vertices] for q in (q1t, q2t)]
    u1, u2 = (tuple(max(dot(f, v) for v in vs) for f in funcs) for vs in ivs)
    u12 = tuple(map(add, u1, u2))
    for u, ok in ((u1, rhs.keys() >= {n for n, _ in q1t.h.inequalities}),
                  (u2, rhs.keys() >= {n for n, _ in q2t.h.inequalities}),
                  (u12, rhs == dict(zip(funcs, u12)))):
        if not ok:
            raise RealizationError(f"fiber over {u} does not project onto "
                                   "its polyhedron")
    m = len(funcs)
    g = GradedProjection(d + m, m, transpose(funcs) + identity_matrix(m))
    return (RealizedPair(g, u1, u2, tuple(funcs), shift, q1t, q2t), refining,
            [v + tuple(a - dot(f, v) for f, a in zip(funcs, u1))
             for v in ivs[0]])


@dataclass(frozen=True)
class CrossCheckReport:
    refines_normal_fans: bool
    interior_of_common_git_cone: bool
    agree: bool
    pair: RealizedPair

    def to_dict(self):
        return {"refines_normal_fans": self.refines_normal_fans,
                "interior_of_common_git_cone":
                    self.interior_of_common_git_cone,
                "agree": self.agree,
                "pair": self.pair.to_dict()}


def _refining_sum(q1: Polyhedron, q2: Polyhedron):
    """Q1 + Q2 and whether N(Q1) refines N(Q2).

    N(Q1 + Q2) = N(Q1) ^ N(Q2) refines N(Q1) on the same support, one
    maximal cone per vertex, so equal vertex counts of Q1 + Q2 and Q1 make
    N(Q1) = N(Q1) ^ N(Q2), which is N(Q1) refining N(Q2).  Different
    dimensions or tail cones (normal fans with different supports) raise
    SupportMismatch.
    """
    if q1.dim != q2.dim or q1.v.rays != q2.v.rays:
        raise SupportMismatch("fans have different supports")
    total = minkowski_sum(q1, q2)
    return total, len(total.v.vertices) == len(q1.v.vertices)


def normal_fan_refines(q1: Polyhedron, q2: Polyhedron) -> bool:
    """Whether N(Q1) refines N(Q2), read off the vertex counts of Q1 + Q2
    and Q1; no normal fan is built."""
    return _refining_sum(q1, q2)[1]


def refinement_iff_interior(q1: Polyhedron, q2: Polyhedron)\
        -> CrossCheckReport:
    """Cross-check the refinement criterion on a realized pair.

    N(Q1) refines N(Q2) exactly when some GIT cone of the realization has
    u1 in its relative interior and contains u2 (that cone can only be the
    GIT cone of u1).  The fan side is ``normal_fan_refines`` on the realized
    copies, the vertex counts of Q1 + Q2 and Q1, read off the sum the
    realization builds anyway.  The GIT side tests u1 and u2 against the
    rows of each vertex support of P(u1), whose vertices the realization
    lifts from Q1', with no GIT cone built (``_git_membership``): u2 must
    satisfy every support's rows, and u1 must lie in every support cone's
    relative interior, which by Rockafellar's Theorem 6.5 is the relative
    interior of the GIT cone, since u1 lies in all of them.  That last test
    holds whenever the lifted vertices are those of P(u1); it is computed,
    not assumed, so that the cross-check still checks them.
    Disagreement indicates a defect and is reported, not hidden.
    """
    rp, fan_side, verts = _realize(q1, q2)
    (_, inner1), (in2, _) = _git_membership(rp.projection, verts,
                                            rp.u1, rp.u2)
    git_side = inner1 and in2
    return CrossCheckReport(fan_side, git_side, fan_side == git_side, rp)


def located_multiple_search(q1: Polyhedron, q2: Polyhedron,
                            k_max: int, s_max: int) -> LocationReport:
    """Search a multiple k <= k_max with (s*k*Q1, s*k*Q2) normally located
    for every s <= s_max.

    When N(Q1) refines N(Q2) some multiple k works for every s; the theorem
    says nothing when it does not, so the sweep runs either way and records
    the refinement in checked["refines"], decided as ``normal_fan_refines``
    does on the Q1 + Q2 the sweep scales.  Different dimensions or tail
    cones (normal fans with different supports) raise SupportMismatch, and
    pairs with rays raise Unbounded.  The sweep scales the systems of
    (Q1 + Q2, Q1, Q2), so the DD runs only for the sum.  For lattice Q1
    and Q2 it scans s <= ceil(d / k) only, d = dim(Q1 + Q2), and a
    positive answer's checked["all_scales"] says whether k works for
    every s (``latpoints._multiple_sweep``).
    """
    total, ok = _refining_sum(q1, q2)
    rep = _multiple_sweep(k_max, s_max, total, q1, q2)
    return LocationReport(rep.verdict, rep.witness,
                          {**rep.checked, "refines": ok})
