"""Metamorphic relations of the public API, as derandomized hypothesis
properties.

A relation compares two calls whose inputs an exact map relates, so it
reaches coordinates far beyond the boxes that the brute-force oracles of
``conftest`` enumerate, and a failure shrinks to a small pair.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import TAILS, reeve
from normloc.errors import NormlocError
from normloc.fans import Cone, cone_from_generators
from normloc.gitfan import (fiber, fiber_point_sum_exact, git_fan,
                            graded_projection, multiple_making_sums_exact,
                            refinement_iff_interior)
from normloc.latpoints import decompose, is_normal, normally_located
from normloc.polyhedra import VRep, from_v, minkowski_sum, translate
from normloc.reps import Witness


@st.composite
def polyhedra(draw, d, tail):
    """conv(o, o + e_1, ..., o + e_d and up to three more lattice points)
    plus the tail: full-dimensional by construction."""
    point = st.tuples(*[st.integers(-3, 3)] * d)
    o = draw(point)
    corners = {tuple(x + (i == j) for j, x in enumerate(o))
               for i in range(d)}
    extra = draw(st.lists(point, max_size=3))
    return from_v(VRep(tuple(sorted({o, *corners, *extra})), tail))


@st.composite
def translated_pairs(draw):
    """(Q1, Q2, t): a pair in dimension 1-3, bounded or with a common
    tail, refining (Q1 = Q2 + R) or not, and a lattice vector t."""
    d = draw(st.integers(1, 3))
    tail = draw(st.one_of(st.just(()), st.sampled_from(TAILS[d])))
    q1, q2 = draw(polyhedra(d, tail)), draw(polyhedra(d, tail))
    if draw(st.booleans()):
        q1 = minkowski_sum(q1, q2)
    t = draw(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * d))
    return q1, q2, t


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=translated_pairs())
def test_refinement_iff_interior_keeps_its_verdicts_under_translation(case):
    # normal fans do not see a translation, and the realization shifts the
    # pair into the orthant anyway: both verdicts and the functionals stay
    q1, q2, t = case
    a = refinement_iff_interior(q1, q2)
    b = refinement_iff_interior(translate(q1, t), translate(q2, t))
    assert (b.refines_normal_fans, b.interior_of_common_git_cone, b.agree,
            b.pair.functionals) == (a.refines_normal_fans,
                                    a.interior_of_common_git_cone, a.agree,
                                    a.pair.functionals)


def _moved(w, t):
    """The witness w moved by the lattice vector t, None for no witness."""
    return w and Witness(tuple(map(sum, zip(w.point, t))), w.kind, w.scale)


@st.composite
def located_pairs(draw):
    """(P, Q, t1, t2): bounded P and Q in dimension 2 or 3 and two lattice
    vectors."""
    d = draw(st.integers(2, 3))
    shift = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * d)
    return (draw(polyhedra(d, ())), draw(polyhedra(d, ())), draw(shift),
            draw(shift))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=located_pairs())
def test_normal_location_is_symmetric_and_moves_with_translations(case):
    # the unsplit set of P + Q is symmetric in P and Q, and lex order is
    # translation-invariant: swapping keeps the verdict and the witness,
    # and translating P by t1 and Q by t2 moves the witness by t1 + t2
    p, q, t1, t2 = case
    a = normally_located(p, q)
    b = normally_located(q, p)
    assert (b.verdict, b.witness) == (a.verdict, a.witness)
    c = normally_located(translate(p, t1), translate(q, t2))
    assert (c.verdict, c.witness) == (
        a.verdict, _moved(a.witness, map(sum, zip(t1, t2))))


@settings(max_examples=100, derandomize=True, deadline=None)
@example(p=reeve(2), t=(10 ** 6, -7, 3))
@given(p=polyhedra(3, ()),
       t=st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 3))
def test_normality_witness_moves_with_a_translation(p, t):
    # s(P + t) = sP + s t, so the witness at scale s moves by s t
    a = is_normal(p)
    b = is_normal(translate(p, t))
    s = a.witness.scale if a.witness else 0
    assert (b.verdict, b.witness) == (
        a.verdict, _moved(a.witness, [s * x for x in t]))


@st.composite
def regraded_degrees(draw):
    """(weights, u1, u2, U): m = 1-3, m + 1 to m + 3 nonzero weights in
    [0, 3]^m spanning Z^m (so every fiber is bounded), two degrees in
    their semigroup, and a unimodular U of up to four row operations with
    multipliers +-1, +-2 (a multiplier on its own row negates it)."""
    m = draw(st.integers(1, 3))
    weight = st.tuples(*[st.integers(0, 3)] * m).filter(any)
    ws = draw(st.lists(weight, min_size=m + 1, max_size=m + 3))
    try:
        graded_projection(ws)
    except NormlocError:
        assume(False)
    coef = st.lists(st.integers(0, 2), min_size=len(ws), max_size=len(ws))
    u1, u2 = (tuple(map(sum, zip(*([c * x for x in w]
                                    for c, w in zip(draw(coef), ws)))))
              for _ in range(2))
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    row = st.integers(0, m - 1)
    for i, j, c in draw(st.lists(st.tuples(row, row,
                                           st.sampled_from((-2, -1, 1, 2))),
                                 max_size=4)):
        u[i] = ([-x for x in u[i]] if i == j
                else [x + c * y for x, y in zip(u[i], u[j])])
    return ws, u1, u2, tuple(map(tuple, u))


def _image(u, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in u)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=regraded_degrees())
def test_fibers_and_fans_follow_a_unimodular_regrading(case):
    # U A x = U u exactly when A x = u, so each fiber is the same set: its
    # record, the point-sum verdict and witness and the multiple sweep stay,
    # and the GIT fan of U A is the image under U of the fan of A
    ws, u1, u2, u = case
    ga = graded_projection(ws)
    gb = graded_projection([_image(u, w) for w in ws])
    v1, v2 = _image(u, u1), _image(u, u2)
    for a, b in ((u1, v1), (u2, v2), (map(sum, zip(u1, u2)),
                                      map(sum, zip(v1, v2)))):
        assert repr(fiber(gb, tuple(b))) == repr(fiber(ga, tuple(a)))
    a, b = (fiber_point_sum_exact(g, x, y) for g, x, y in ((ga, u1, u2),
                                                          (gb, v1, v2)))
    assert (b.verdict, b.witness) == (a.verdict, a.witness)
    a, b = (multiple_making_sums_exact(g, x, y, 2, 2)
            for g, x, y in ((ga, u1, u2), (gb, v1, v2)))
    assert b.to_dict() == a.to_dict()
    fa, fb = git_fan(ga), git_fan(gb)
    images = sorted((cone_from_generators(
        ga.m, rays=[_image(u, r) for r in c.rays],
        lines=[_image(u, ln) for ln in c.lines]) for c in fa.git_cones),
        key=Cone.sort_key)
    assert fb.git_cones == tuple(images)
    assert fb.fan_verified == fa.fan_verified


@st.composite
def split_cases(draw):
    """(z, P, Q, t1, t2): P and Q in dimension 1-3, bounded or with a
    common tail, a lattice point z near a sum of their vertices, and two
    lattice vectors."""
    d = draw(st.integers(1, 3))
    tail = draw(st.one_of(st.just(()), st.sampled_from(TAILS[d])))
    p, q = draw(polyhedra(d, tail)), draw(polyhedra(d, tail))
    a, b = (draw(st.sampled_from(x.v.vertices)) for x in (p, q))
    z = tuple(int(x + y) + draw(st.integers(-2, 2)) for x, y in zip(a, b))
    shift = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * d)
    return z, p, q, draw(shift), draw(shift)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=split_cases())
def test_decompose_moves_with_translations(case):
    # z' + t1 and z'' + t2 split z + t1 + t2 over (P + t1, Q + t2), and
    # lex order is translation-invariant: the least split moves, and no
    # split stays no split
    z, p, q, t1, t2 = case
    a = decompose(z, p, q)
    b = decompose(tuple(map(sum, zip(z, t1, t2))), translate(p, t1),
                  translate(q, t2))
    assert b == (a and (tuple(map(sum, zip(a[0], t1))),
                        tuple(map(sum, zip(a[1], t2)))))


@st.composite
def lattice_maps(draw, d):
    """A unimodular d x d matrix: a permutation of the coordinates, or up
    to four row operations with multipliers +-1, +-2 (a multiplier on its
    own row negates it)."""
    if draw(st.booleans()):
        perm = draw(st.permutations(range(d)))
        return tuple(tuple(int(j == i) for j in range(d)) for i in perm)
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    row = st.integers(0, d - 1)
    for i, j, c in draw(st.lists(st.tuples(row, row,
                                           st.sampled_from((-2, -1, 1, 2))),
                                 max_size=4)):
        u[i] = ([-x for x in u[i]] if i == j
                else [x + c * y for x, y in zip(u[i], u[j])])
    return tuple(map(tuple, u))


@st.composite
def mapped_pairs(draw):
    """(P, Q, U): bounded P and Q in dimension 2 or 3 and a unimodular U."""
    d = draw(st.integers(2, 3))
    return (draw(polyhedra(d, ())), draw(polyhedra(d, ())),
            draw(lattice_maps(d)))


def _mapped(u, p):
    """The image U P of a polyhedron under a unimodular U."""
    return from_v(VRep(tuple(_image(u, v) for v in p.v.vertices),
                       tuple(_image(u, r) for r in p.v.rays)))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(case=mapped_pairs())
def test_normal_location_keeps_its_verdict_under_a_unimodular_map(case):
    # U is a bijection of Z^d that maps P + Q onto U P + U Q, so the
    # unsplit points correspond and the verdict stays; U need not keep lex
    # order, so only the image of the witness is checked: it has no split
    p, q, u = case
    a = normally_located(p, q)
    up, uq = _mapped(u, p), _mapped(u, q)
    b = normally_located(up, uq)
    assert b.verdict == a.verdict
    if a.witness:
        assert decompose(_image(u, a.witness.point), up, uq) is None
