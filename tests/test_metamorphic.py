"""Metamorphic relations of the public API, as derandomized hypothesis
properties.

A relation compares two calls whose inputs an exact map relates, so it
reaches coordinates far beyond the boxes that the brute-force oracles of
``conftest`` enumerate, and a failure shrinks to a small pair.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TAILS
from normloc.gitfan import refinement_iff_interior
from normloc.polyhedra import VRep, from_v, minkowski_sum, translate


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
