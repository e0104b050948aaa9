"""Malformed library input raises the package's own error types."""

import pytest

from normloc.errors import DimensionMismatch, NormlocError, SupportMismatch
from normloc.fans import (Fan, common_refinement, cone_from_generators,
                          intersect_cones, is_fan, normal_fan)
from normloc.latpoints import decompose, normally_located
from normloc.polyhedra import (HRep, VRep, from_h, from_v, minkowski_sum,
                               translate)

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
