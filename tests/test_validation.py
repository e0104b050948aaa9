"""Malformed library input raises the package's own error types."""

import pytest

from normloc.errors import DimensionMismatch, NormlocError, SupportMismatch
from normloc.fans import (Fan, common_refinement, cone_from_generators,
                          intersect_cones, is_fan, normal_fan)
from normloc.gitfan import (graded_projection, located_multiple_search,
                            multiple_making_sums_exact)
from normloc.latpoints import decompose, is_normal, normally_located
from normloc.polyhedra import (HRep, VRep, from_h, from_v, minkowski_sum,
                               polyhedron_from_dict, scale, translate)

SQUARE = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
SEGMENT = from_v(VRep(((0,), (1,)), ()))
QUADRANT = from_v(VRep(((0, 0),), ((1, 0), (0, 1))))
PLANE = cone_from_generators(2, rays=((1, 0), (0, 1), (-1, -1)))
SPACE = cone_from_generators(3, rays=((1, 0, 0),))

CASES = {
    "translate-length": (lambda: translate(SQUARE, (1, 2, 3)),
                         DimensionMismatch, "wrong length"),
    "minkowski-dims": (lambda: minkowski_sum(SQUARE, SEGMENT),
                       DimensionMismatch, "different dimensions"),
    "from-h-mixed": (lambda: from_h(HRep((((1, 0), 1), ((1,), 0)))),
                     DimensionMismatch, "mixed lengths"),
    "from-v-no-vertex": (lambda: from_v(VRep((), ())),
                         NormlocError, "at least one vertex"),
    "grading-empty-weights": (lambda: graded_projection(((), ())),
                              NormlocError, "at least one coordinate"),
    "decompose-dims": (lambda: decompose((0, 0), SQUARE, SEGMENT),
                       DimensionMismatch, "different dimensions"),
    "decompose-point": (lambda: decompose((0, 0, 0), SQUARE, SQUARE),
                        DimensionMismatch, "point has wrong length"),
    "window-length": (lambda: normally_located(SQUARE, SQUARE,
                                               window=((0,), (5,))),
                      DimensionMismatch, "window box has wrong length"),
    "intersect-dims": (lambda: intersect_cones(PLANE, SPACE),
                       SupportMismatch, "different dimensions"),
    "is-fan-dims": (lambda: is_fan(Fan(2, (PLANE, SPACE))),
                    SupportMismatch, "different dimensions"),
    "refinement-dims": (lambda: common_refinement(normal_fan(SQUARE),
                                                  normal_fan(SEGMENT)),
                        SupportMismatch, "different dimensions"),
    "refinement-support": (lambda: common_refinement(normal_fan(SQUARE),
                                                     normal_fan(QUADRANT)),
                           SupportMismatch, "different supports"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_malformed_library_input_raises(name):
    call, exc, message = CASES[name]
    with pytest.raises(exc, match=message) as info:
        call()
    assert info.type is exc


def test_bools_are_not_coordinates():
    # Fraction(True) is 1: a bool entry used to shift or place a vertex
    triangle = [[0, 0], [0, 1], [1, 0]]
    bad = [{"vertices": [[True, 0], [0, 1], [0, 0]]},
           {"vertices": triangle, "rays": [[False, 1]]},
           {"inequalities": [{"normal": [-1, 0], "rhs": False},
                             {"normal": [0, -1], "rhs": 0},
                             {"normal": [1, 1], "rhs": 1}]},
           {"inequalities": [{"normal": [-1, 0], "rhs": 0},
                             {"normal": [0, -1], "rhs": 0},
                             {"normal": [1, 1], "rhs": 2}],
            "equalities": [{"normal": [1, -1], "rhs": True}]}]
    for data in bad:
        with pytest.raises(NormlocError) as info:
            polyhedron_from_dict(data)
        assert info.type is NormlocError, data
    for t in ((True, 0), (0, False)):
        with pytest.raises(NormlocError, match="must be numbers") as info:
            translate(SQUARE, t)
        assert info.type is NormlocError
    assert polyhedron_from_dict({"vertices": triangle}) == \
        from_v(VRep(tuple(map(tuple, triangle)), ()))


@pytest.mark.parametrize("bad", [True, False, 0, -1, 2.0, "2", None])
def test_scales_and_sweep_bounds_must_be_positive_ints(bad):
    # a bool is no bound (is_normal(p, True) used to report verified_up_to
    # with s_max True), and a float sweep bound used to escape as a bare
    # TypeError
    g = graded_projection(((1, 0), (0, 1), (1, 1)))
    calls = [
        ("scale factor", lambda: scale(SQUARE, bad)),
        ("s_max", lambda: is_normal(SQUARE, bad)),
        ("k_max", lambda: located_multiple_search(SQUARE, SQUARE, bad, 1)),
        ("s_max", lambda: located_multiple_search(SQUARE, SQUARE, 1, bad)),
        ("k_max", lambda: multiple_making_sums_exact(g, (1, 1), (1, 0),
                                                     bad, 1)),
        ("s_max", lambda: multiple_making_sums_exact(g, (1, 1), (1, 0),
                                                     1, bad)),
    ]
    for name, call in calls:
        with pytest.raises(NormlocError) as info:
            call()
        assert info.type is NormlocError
        assert str(info.value) == f"{name} must be a positive integer: {bad}"
