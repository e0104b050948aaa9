import random
from itertools import product

import pytest

from conftest import (cone_from_generators_ref, dual_cone_ref, is_face_ref,
                      is_fan_ref, random_polytope)
from normloc import dd
from normloc.errors import DimensionMismatch, NormlocError, SupportMismatch
from normloc.exact import dot
from normloc.fans import (Cone, Fan, _tiles, common_refinement,
                          cone_contains, cone_from_generators, cone_from_h,
                          dual_cone, fan_from_cones, intersect_cones,
                          is_face, is_fan, normal_fan, refines,
                          relative_interior_contains, support)
from normloc.gitfan import git_fan, graded_projection
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


def test_cones_by_polarity_match_two_pass_references():
    # cone_from_generators swaps the roles in its polar's cone_from_h
    # record, and dual_cone negates and swaps c's own record; the
    # references run both DD passes
    rng = random.Random(31)
    lines = eqs = 0
    for _ in range(1500):
        dim = rng.randint(1, 4)

        def vecs(k):
            return [tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(k)]
        rays, lins = vecs(rng.randint(0, 5)), vecs(rng.choice((0, 0, 1, 2)))
        c = cone_from_generators(dim, rays=rays, lines=lins)
        assert c == cone_from_generators_ref(dim, rays, lins), (rays, lins)
        h = cone_from_h(dim, ineqs=vecs(rng.randint(0, 5)),
                        eqs=vecs(rng.choice((0, 0, 1, 2))))
        for x in (c, h):
            assert dual_cone(x) == dual_cone_ref(x), x
        lines += bool(c.lines)
        eqs += bool(c.eq_normals)
    assert lines >= 500 and eqs >= 500, (lines, eqs)


def test_dual_cone_runs_no_dd_pass(monkeypatch):
    cones = [cone_from_generators(3, rays=((1, 0, 0), (0, 1, 0))),
             cone_from_generators(3, rays=((0, 0, 1),), lines=((1, 1, 0),)),
             cone_from_h(2, ineqs=((-1, 0), (0, -1)))]
    want = [dual_cone_ref(c) for c in cones]

    def no_dd(*args):
        raise AssertionError("dual_cone ran a DD pass")
    monkeypatch.setattr(dd, "generators_from_constraints", no_dd)
    assert [dual_cone(c) for c in cones] == want


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


def _covers_box(w, cones, bound):
    """Brute-force coverage: every lattice point of w in [-bound, bound]^m
    lies in some cone.  The points go by lines along the last axis: on a
    line, each cone (and w) holds the integers of one interval, read off
    its facet normals, and the cones' intervals must cover w's."""
    def interval(c, head):
        lo, hi = -bound, bound
        for n in c.ineq_normals:     # n[:-1] . head + n[-1] * t <= 0
            a, b = n[-1], -dot(n[:-1], head)
            if a > 0:
                hi = min(hi, b // a)
            elif a < 0:
                lo = max(lo, -(b // -a))
            elif b < 0:
                return None
        return (lo, hi) if lo <= hi else None

    for head in product(range(-bound, bound + 1), repeat=w.dim - 1):
        span = interval(w, head)
        if span is None:
            continue
        t = span[0]
        for lo, hi in sorted(filter(None, (interval(c, head)
                                           for c in cones))):
            if lo > t:
                break
            t = max(t, hi + 1)
        if t <= span[1]:
            return False
    return True


def _tiles_oracle(w, cones, bound):
    """Distinct cones inside w that form a fan (``is_fan``) and cover the
    lattice points of w in a box."""
    return (len(set(cones)) == len(cones)
            and all(w.contains_point(r) for c in cones for r in c.rays)
            and is_fan(Fan(w.dim, tuple(cones)))
            and _covers_box(w, cones, bound))


def _random_full_cone(rng, w):
    """A pointed full-dimensional cone on random small vectors of w."""
    while True:
        vecs = [tuple(rng.randint(-3, 3) for _ in range(w.dim))
                for _ in range(rng.randint(w.dim, w.dim + 2))]
        c = cone_from_generators(w.dim, rays=[v for v in vecs
                                              if w.contains_point(v)])
        if c.is_pointed() and c.span_dim == w.dim and c.rays:
            return c


def _ray_sum(rays):
    return tuple(sum(col) for col in zip(*rays))


def _perturb(rng, w, cones):
    """One edit of a cone list: keep it, drop a cone (a gap), duplicate or
    add a cone (overlap), nest a subcone, subdivide a cone at an interior
    point (a fan again) or at a point of one facet (a facet cut in two),
    merge two cones into the cone over their rays, or, when w is the whole
    space, add a second complete fan (every point covered twice)."""
    cones = list(cones)
    kind = rng.choice(("keep", "drop", "dup", "add", "nest", "star",
                       "star_facet", "merge", "twice"))
    i = rng.randrange(len(cones))
    c = cones[i]
    if kind == "drop" and len(cones) > 1:
        del cones[i]
    elif kind == "dup":
        cones.append(c)
    elif kind == "add":
        cones.append(_random_full_cone(rng, w))
    elif kind == "nest":
        sub = cone_from_generators(w.dim, rays=[tuple(2 * x + y for x, y in
                                                      zip(r, _ray_sum(c.rays)))
                                                for r in c.rays])
        cones.insert(rng.randrange(len(cones) + 1), sub)
    elif kind in ("star", "star_facet") and w.dim > 1:
        if kind == "star":
            y = _ray_sum(c.rays)
        else:
            n = rng.choice(c.ineq_normals)
            y = _ray_sum([r for r in c.rays if dot(n, r) == 0])
        pieces = []
        for n in c.ineq_normals:
            tight = [r for r in c.rays if dot(n, r) == 0]
            if dot(n, y) < 0:
                pieces.append(cone_from_generators(w.dim, rays=tight + [y]))
        cones[i:i + 1] = pieces
    elif kind == "twice" and not w.ineq_normals:
        cones += normal_fan(random_polytope(rng, w.dim, 3)).maximal_cones
    elif kind == "merge" and len(cones) > 1:
        j = rng.choice([j for j in range(len(cones)) if j != i])
        merged = cone_from_generators(w.dim,
                                      rays=cones[i].rays + cones[j].rays)
        if merged.is_pointed():
            cones = [d for k, d in enumerate(cones) if k not in (i, j)]
            cones.insert(rng.randrange(len(cones) + 1), merged)
    return cones


def _seeded_collection(rng):
    """(w, cones) from a GIT fan of a random grading (m = 1-3, weight cones
    with lines too) or the normal fan of a random 2- or 3-polytope (w the
    whole space, or at times a half-space that the fan spills out of),
    with one or two edits; redrawn until no ray entry exceeds 12, which
    keeps the oracle's box small."""
    while True:
        if rng.random() < 0.5:
            m = rng.choice((1, 2, 2, 3))
            lo = rng.choice((0, -1, -2))
            ws = tuple(tuple(rng.randint(lo, 3) for _ in range(m))
                       for _ in range(rng.randint(m, m + 3)))
            try:
                gf = git_fan(graded_projection(ws))
            except NormlocError:
                continue
            w, cones = gf.weight_cone, list(gf.git_cones)
        else:
            d = rng.choice((2, 3))
            w = cone_from_h(d) if rng.random() < 0.8 else cone_from_h(
                d, ineqs=[tuple(rng.randint(-1, 1) for _ in range(d))])
            cones = list(normal_fan(random_polytope(rng, d, 3)).maximal_cones)
        rng.shuffle(cones)
        for _ in range(rng.choice((1, 1, 2))):
            cones = _perturb(rng, w, cones)
        if max(abs(x) for c in cones for r in c.rays for x in r) <= 12:
            return w, cones


def test_tiles_matches_fan_and_coverage_oracle():
    # the box is twice the largest ray entry; on these collections it finds
    # a lattice point in every gap, where the largest entry alone missed two
    rng = random.Random(22)
    seen = {"dim1": 0, "dim2": 0, "dim3": 0, "lines": 0, "fan": 0,
            "gap": 0, "overlap": 0, "outside": 0, "x0_again": 0}
    for _ in range(700):
        w, cones = _seeded_collection(rng)
        bound = 2 * max(abs(x) for c in cones for r in c.rays for x in r)
        got = _tiles(w, cones)
        assert got == _tiles_oracle(w, cones, bound), (w, cones)
        seen[f"dim{w.dim}"] += 1
        seen["lines"] += bool(w.lines)
        # a box of the origin alone leaves only the coverage test out
        fan_in_w = _tiles_oracle(w, cones, 0)
        seen["fan" if got else "gap" if fan_in_w else "overlap"] += 1
        seen["outside"] += not all(w.contains_point(r)
                                   for c in cones for r in c.rays)
        seen["x0_again"] += len(cones) > 1 and any(
            c.contains_point(_ray_sum(cones[0].rays)) for c in cones[1:])
    assert min(seen.values()) >= 60, seen


def test_tiles_rejects_the_quadrant_gap_the_support_rule_accepts():
    quad = cone_from_generators(2, rays=((1, 0), (0, 1)))
    low = cone_from_generators(2, rays=((1, 0), (2, 1)))
    high = cone_from_generators(2, rays=((1, 2), (0, 1)))
    gap = Fan(2, (low, high))
    # the rule git_fan used: (1, 1) lies in neither cone, yet it passes
    assert support(gap) == quad and is_fan(gap)
    assert not any(c.contains_point((1, 1)) for c in gap.maximal_cones)
    assert _tiles(quad, [low, high]) is False
    middle = cone_from_generators(2, rays=((2, 1), (1, 2)))
    assert _tiles(quad, [low, middle, high]) is True
    assert _tiles(quad, [high, low, middle]) is True
    across = cone_from_generators(2, rays=((3, 1), (1, 3)))
    assert cone_contains(across, middle)
    assert _tiles(quad, [low, high, across]) is False
    assert is_fan(Fan(2, (low, high, across))) is False


def test_tiles_runs_no_dd(monkeypatch):
    g = graded_projection(((4, 1), (2, 1), (1, 2), (1, 3)))
    gfs = [git_fan(g), git_fan(graded_projection(
        tuple((1, i) for i in range(21)) + ((21, 1),)))]
    quad = cone_from_generators(2, rays=((1, 0), (0, 1)))
    gap = [cone_from_generators(2, rays=((1, 0), (2, 1))),
           cone_from_generators(2, rays=((1, 2), (0, 1)))]
    cube = normal_fan(from_v(VRep(tuple(product((0, 1), repeat=3)), ())))
    whole = cone_from_h(3)

    def boom(*args):
        raise AssertionError("DD pass in the facet-matching check")

    monkeypatch.setattr(dd, "generators_from_constraints", boom)
    assert all(_tiles(gf.weight_cone, gf.git_cones) for gf in gfs)
    assert _tiles(whole, cube.maximal_cones)
    assert not _tiles(whole, cube.maximal_cones[1:])
    assert not _tiles(quad, gap)


def test_tiles_needs_every_condition():
    plane = cone_from_h(2)
    signs = ((1, 1), (-1, 1), (-1, -1), (1, -1))
    quadrants = [cone_from_generators(2, rays=((a, 0), (0, b)))
                 for a, b in signs]
    turned = [cone_from_generators(2, rays=((a, b), (-b, a)))
              for a, b in signs]
    assert _tiles(plane, quadrants) and _tiles(plane, turned)
    # every facet matched once, yet every point covered twice: only the
    # ray-sum test sees it
    assert _tiles(plane, quadrants + turned) is False
    # a complete fan on a half-plane: matched facets, but rays outside w
    upper = cone_from_h(2, ineqs=((0, -1),))
    spill = [cone_from_generators(2, rays=r) for r in
             (((1, -1), (0, 1)), ((0, 1), (-1, -1)), ((-1, -1), (1, -1)))]
    assert _tiles(plane, spill) and _tiles(upper, spill) is False
    # lines or flat cones fall outside the check's domain
    half = cone_from_generators(2, rays=((0, 1),), lines=((1, 0),))
    assert _tiles(upper, [half]) is False
    assert _tiles(cone_from_generators(2, rays=((1, 0),)),
                  [cone_from_generators(2, rays=((1, 0),))]) is False
    assert _tiles(plane, []) is False
