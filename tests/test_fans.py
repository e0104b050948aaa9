import random

import pytest

from conftest import is_face_ref, is_fan_ref, random_polytope
from normloc.errors import DimensionMismatch, SupportMismatch
from normloc.fans import (Cone, Fan, common_refinement, cone_contains,
                          cone_from_generators, cone_from_h, dual_cone,
                          fan_from_cones, intersect_cones,
                          is_face, is_fan, normal_fan, refines,
                          relative_interior_contains, support)
from normloc.polyhedra import VRep, from_v, minkowski_sum


def test_cone_canonical_generators():
    c = cone_from_generators(2, rays=((2, 4), (3, 0), (1, 2), (1, 0)))
    assert c.rays == ((1, 0), (1, 2))
    for r in ((2, 4), (3, 0), (1, 2), (1, 0)):
        assert c.contains_point(r)
    assert not c.contains_point((0, 1))


def test_cone_from_h_and_duality():
    c = cone_from_h(2, ineqs=((-1, 0), (0, -1)))
    assert c.rays == ((0, 1), (1, 0))
    d = dual_cone(c)
    assert dual_cone(d) == c


def test_dual_cone_involution_random():
    rng = random.Random(5)
    for _ in range(25):
        dim = rng.randint(1, 3)
        rays = tuple(tuple(rng.randint(-3, 3) for _ in range(dim))
                     for _ in range(rng.randint(1, 4)))
        rays = tuple(r for r in rays if any(r))
        c = cone_from_generators(dim, rays=rays)
        assert dual_cone(dual_cone(c)) == c


def test_cone_with_lines():
    c = cone_from_generators(3, rays=((0, 0, 1),), lines=((1, 1, 0),))
    assert c.lines == ((1, 1, 0),)
    assert not c.is_pointed()
    assert c.contains_point((-2, -2, 5))
    assert c.span_dim == 2


def test_intersection_and_faces():
    quad = cone_from_generators(2, rays=((1, 0), (0, 1)))
    upper = cone_from_h(2, ineqs=((0, -1),))
    cap = intersect_cones(quad, upper)
    assert cap == quad
    xaxis = cone_from_generators(2, rays=((1, 0),))
    assert is_face(xaxis, quad)
    diag = cone_from_generators(2, rays=((1, 1),))
    assert cone_contains(quad, diag)
    assert not is_face(diag, quad)


def test_quadrant_is_no_face_of_half_plane():
    # the half-plane's line lies in the quadrant only one way round, so a
    # test that checks +l alone would call the quadrant a face
    half = cone_from_generators(2, rays=((0, 1),), lines=((1, 0),))
    quad = cone_from_generators(2, rays=((1, 0), (0, 1)))
    assert cone_contains(half, quad)
    assert is_face(quad, half) is False
    assert is_face_ref(quad, half) is False
    assert is_face(half, half)
    assert is_face(cone_from_generators(2, lines=((1, 0),)), half)


def _face_pair(rng):
    """A cone c, often with lines, and a cone f that is a carved face of c,
    a subcone from c's generators, c cut by a random cone, or any cone."""
    dim = rng.randint(1, 4)

    def vecs(k):
        return [tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(k)]

    c = cone_from_generators(dim, rays=vecs(rng.randint(0, 4)),
                             lines=vecs(rng.choice((0, 1, 1, 2))))
    kind = rng.randrange(4)
    if kind == 0:
        pick = tuple(n for n in c.ineq_normals if rng.random() < 0.5)
        return cone_from_h(dim, ineqs=c.ineq_normals,
                           eqs=c.eq_normals + pick), c
    if kind == 1:
        gens = list(c.rays) + [tuple(s * x for x in ln)
                               for ln in c.lines for s in (1, -1)]
        return cone_from_generators(
            dim, rays=[g for g in gens if rng.random() < 0.6],
            lines=[ln for ln in c.lines if rng.random() < 0.4]), c
    other = cone_from_generators(dim, rays=vecs(rng.randint(0, 3)),
                                 lines=vecs(rng.choice((0, 0, 1))))
    return (intersect_cones(c, other) if kind == 2 else other), c


def test_is_face_matches_carving_reference():
    rng = random.Random(2024)
    seen = {"lines": 0, "face": 0, "not_face": 0}
    for _ in range(2400):
        f, c = _face_pair(rng)
        got = is_face(f, c)
        assert got == is_face_ref(f, c), (f, c)
        seen["lines"] += bool(c.lines)
        seen["face" if got else "not_face"] += 1
    assert min(seen.values()) >= 600, seen


def test_hexagram_pair_is_no_fan():
    # neither cone holds a generator of the other, yet they meet in 3-d
    a = cone_from_generators(3, rays=((2, 0, 1), (-1, 2, 1), (-1, -2, 1)))
    b = cone_from_generators(3, rays=((-2, 0, 1), (1, -2, 1), (1, 2, 1)))
    assert not any(b.contains_point(r) for r in a.rays)
    assert not any(a.contains_point(r) for r in b.rays)
    assert intersect_cones(a, b).span_dim == 3
    assert is_fan(Fan(3, (a, b))) is False
    assert is_fan(fan_from_cones(3, [a, b])) is False
    assert is_fan_ref((a, b)) is False


def _cone_family(rng):
    """Up to four cones in 2 or 3 dimensions: maximal cones of the normal
    fan of a random, often flat, polytope (so with lines), plus random
    cones that may overlap them, as a ``Fan`` or through fan_from_cones."""
    dim = rng.choice((2, 3))

    def random_cone():
        return cone_from_generators(
            dim, rays=[tuple(rng.randint(-2, 2) for _ in range(dim))
                       for _ in range(rng.randint(1, 3))],
            lines=[tuple(rng.randint(-2, 2) for _ in range(dim))
                   for _ in range(rng.choice((0, 0, 1)))])

    p = random_polytope(rng, dim, 3, npoints=rng.randint(1, 4),
                        full_dim=False)
    cones = [c for c in normal_fan(p).maximal_cones if rng.random() < 0.8]
    cones += [random_cone() for _ in range(rng.choice((0, 1, 1, 2)))]
    cones = cones[:4] or [random_cone()]
    if rng.random() < 0.5:
        return "fan_from_cones", fan_from_cones(dim, cones)
    return "Fan", Fan(dim, tuple(cones))


def test_is_fan_matches_pairwise_reference():
    rng = random.Random(41)
    seen = {"dim2": 0, "dim3": 0, "lines": 0, "Fan": 0, "fan_from_cones": 0,
            "fan": 0, "not_fan": 0}
    for _ in range(1200):
        built, f = _cone_family(rng)
        got = is_fan(f)
        assert got == is_fan_ref(f.maximal_cones), f
        seen[f"dim{f.dim}"] += 1
        seen["lines"] += any(c.lines for c in f.maximal_cones)
        seen[built] += 1
        seen["fan" if got else "not_fan"] += 1
    assert min(seen.values()) >= 360, seen


def test_relative_interior():
    quad = cone_from_generators(2, rays=((1, 0), (0, 1)))
    assert relative_interior_contains(quad, (1, 1))
    assert not relative_interior_contains(quad, (1, 0))
    ray = cone_from_generators(2, rays=((1, 0),))
    assert relative_interior_contains(ray, (2, 0))
    assert not relative_interior_contains(ray, (0, 0))


def test_normal_fan_triangle():
    p = from_v(VRep(((165, 0), (175, 0), (0, 385)), ()))
    f = normal_fan(p)
    rays = sorted({r for c in f.maximal_cones for r in c.rays})
    assert rays == [(-7, -3), (0, -1), (11, 5)]
    assert is_fan(f)
    assert len(f.maximal_cones) == 3


def test_normal_fan_of_polygon_is_complete():
    sq = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
    f = normal_fan(sq)
    assert len(f.maximal_cones) == 4
    assert support(f) == cone_from_generators(
        2, rays=((1, 0), (-1, 0)), lines=((0, 1),)) \
        or support(f).span_dim == 2


def test_common_refinement_is_normal_fan_of_sum():
    rng = random.Random(29)
    for _ in range(20):
        d = rng.randint(2, 3)
        p = random_polytope(rng, d, 5)
        q = random_polytope(rng, d, 5)
        np_, nq = normal_fan(p), normal_fan(q)
        ref = common_refinement(np_, nq)
        assert ref == normal_fan(minkowski_sum(p, q))
        assert refines(ref, np_) and refines(ref, nq)
        assert is_fan(ref)


def test_refines_needs_matching_support():
    p = from_v(VRep(((0, 0), (1, 0), (0, 1)), ()))
    unbounded = from_v(VRep(((0, 0),), ((1, 0), (0, 1))))
    with pytest.raises(SupportMismatch):
        refines(normal_fan(p), normal_fan(unbounded))


def test_refinement_order():
    tri = from_v(VRep(((0, 0), (1, 0), (0, 1)), ()))
    hexish = minkowski_sum(tri, from_v(VRep(((0, 0), (1, 1)), ())))
    assert refines(normal_fan(hexish), normal_fan(tri))
    assert not refines(normal_fan(tri), normal_fan(hexish))


def test_fan_dict_roundtrip():
    p = from_v(VRep(((0, 0), (2, 0), (0, 2)), ()))
    f = normal_fan(p)
    data = f.to_dict()
    cones = [cone_from_generators(2, rays=c["rays"], lines=c["lines"])
             for c in data["maximal_cones"]]
    assert fan_from_cones(data["dim"], cones) == f


def test_fan_from_cones_prunes_contained():
    quad = cone_from_generators(2, rays=((1, 0), (0, 1)))
    ray = cone_from_generators(2, rays=((1, 1),))
    f = fan_from_cones(2, [quad, ray, quad])
    assert f.maximal_cones == (quad,)


def test_normal_fan_of_unbounded_polyhedron():
    p = from_v(VRep(((1, 1),), ((1, 0), (0, 1))))
    f = normal_fan(p)
    # single vertex: one maximal cone, the dual of the tail
    assert len(f.maximal_cones) == 1
    assert f.maximal_cones[0].rays == ((-1, 0), (0, -1))


def test_generators_of_wrong_length_raise_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cone_from_generators(2, rays=[(1, 0, 0)])
    with pytest.raises(DimensionMismatch):
        cone_from_generators(2, lines=[(1,)])
    with pytest.raises(DimensionMismatch):
        cone_from_h(2, ineqs=[(1, 0, 0)])
    with pytest.raises(DimensionMismatch):
        cone_from_h(2, eqs=[(1,)])
