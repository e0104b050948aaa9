import random
from fractions import Fraction

import pytest

from conftest import (box_of, decompose_unbounded_guard_ref, frame_box_ref,
                      is_normal_ref, lattice_sum, multiple_sweep_ref,
                      oracle_points, oracle_split, oracle_sums,
                      oracle_window_points, random_polytope, reeve,
                      scaled_scan_set_ref, scan_undecomposed_ref, x_system)
from normloc import kernels, latpoints, polyhedra
from normloc.cases import boundary_grading
from normloc.errors import NotLattice, NormlocError, Unbounded
from normloc.gitfan import (_fiber_entry, fiber, fiber_point_sum_exact,
                            graded_projection)
from normloc.latpoints import (_multiple_sweep, decompose, enumerate_points,
                               enumerate_windowed, is_normal,
                               normally_located)
from normloc.polyhedra import (HRep, VRep, from_h, from_v, minkowski_sum,
                               scale)


def test_enumerate_unit_square():
    sq = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
    pts = enumerate_points(sq)
    assert list(pts) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(pts) == 4
    assert (1, 1) in pts and (2, 0) not in pts
    # a window corner is a lattice point: integral floats pass, others raise
    assert list(enumerate_windowed(sq, (1.0, 0), (1, 1))) == [(1, 0), (1, 1)]
    with pytest.raises(NormlocError):
        enumerate_windowed(sq, (0.9, 0), (1, 1))


def test_enumerate_matches_membership_oracle():
    rng = random.Random(31)
    for _ in range(25):
        d = rng.randint(1, 3)
        p = random_polytope(rng, d, 7, full_dim=False)
        pts = enumerate_points(p)
        assert list(pts) == oracle_points(p)
        lo, hi = box_of(p)
        probes = [lo, hi, tuple(a - 1 for a in lo), tuple(b + 1 for b in hi)]
        for x in probes + list(pts):
            assert (x in pts) == (x in pts.points)


def test_enumerate_fractional_vertices():
    p = from_h(HRep((((2, 0), 3), ((-2, 0), -1), ((0, 2), 3), ((0, -2), -1))))
    assert list(enumerate_points(p)) == [(1, 1)]


def test_enumerate_unbounded_raises():
    cone = from_v(VRep(((0, 0),), ((1, 0), (0, 1))))
    with pytest.raises(Unbounded):
        enumerate_points(cone)
    windowed = enumerate_windowed(cone, (0, 0), (2, 2))
    assert len(windowed) == 9


def test_lattice_sum_matches_pairwise():
    rng = random.Random(37)
    for _ in range(10):
        p = random_polytope(rng, 2, 4)
        q = random_polytope(rng, 2, 4)
        a, b = enumerate_points(p), enumerate_points(q)
        sums = lattice_sum(a, b)
        assert list(sums) == oracle_sums(list(a), list(b))
        # point sums lie in P + Q and fill it exactly when located
        r = enumerate_points(minkowski_sum(p, q))
        assert set(sums) <= set(r)
        assert (len(sums) == len(r)) == \
            (normally_located(p, q).verdict == "located")


def test_decompose_basic():
    tri = from_v(VRep(((0, 0), (1, 0), (0, 1)), ()))
    pair = decompose((1, 1), tri, tri)
    assert pair == ((0, 1), (1, 0))
    z1, z2 = pair
    assert tri.contains(z1) and tri.contains(z2)
    assert decompose((2, 2), tri, tri) is None
    assert decompose((1.0, 1), tri, tri) == pair
    with pytest.raises(NormlocError):
        decompose((1.7, 0.9), tri, tri)


def test_decompose_lex_least_first_summand():
    sq = from_v(VRep(((0, 0), (2, 0), (0, 2), (2, 2)), ()))
    z1, z2 = decompose((2, 2), sq, sq)
    assert z1 == (0, 0) and z2 == (2, 2)


def test_decompose_witness_of_triangle_pair():
    p = from_v(VRep(((165, 0), (175, 0), (0, 385)), ()))
    q = from_v(VRep(((0, 0), (35, 0), (0, 77)), ()))
    assert decompose((1, 383), p, q) is None
    assert decompose((0, 385), p, q) == ((0, 385), (0, 0))


def test_decompose_unbounded_tails():
    # both polyhedra share the tail cone spanned by (1, 0): region bounded
    p = from_v(VRep(((0, 0),), ((1, 0),)))
    q = from_v(VRep(((0, 1),), ((1, 0),)))
    assert decompose((3, 1), p, q) == ((0, 0), (3, 1))
    # opposite tails make the split region unbounded
    r = from_v(VRep(((0, 0),), ((-1, 0),)))
    with pytest.raises(Unbounded):
        decompose((0, 1), p, r)


def test_location_checks_run_no_pointedness_guard(monkeypatch):
    # a windowed normally_located has its tails checked by minkowski_sum,
    # and the fibers of one grading share the pointed tail
    # {x >= 0 : A x = 0}, so neither runs the guard; decompose still does.
    # The zero weight gives the boundary grading's fibers the ray e_5
    tail = ((1, 0), (1, 2))
    p = from_v(VRep(((0, 0), (2, 1), (1, 3)), tail))
    q = from_v(VRep(((0, 0), (3, 1)), tail))
    g, _, _ = boundary_grading()
    g = graded_projection(g.weights + ((0, 0),))

    def answers():
        return (normally_located(p, q, ((0, 0), (12, 12))).to_dict(),
                fiber_point_sum_exact(g, (4, 2), (2, 4),
                                      ((0,) * 5, (6,) * 5)).to_dict())
    want = answers()
    assert want[1]["witness"]["point"] == [1, 0, 1, 1, 0]

    def guard(*args):
        raise AssertionError("pointedness guard ran")
    monkeypatch.setattr(latpoints, "_decompose_unbounded_guard", guard)
    assert answers() == want
    monkeypatch.undo()
    # tails that meet raise also where P cap (z - Q) is empty
    ray = from_v(VRep(((0, 0),), ((1, 0),)))
    back = from_v(VRep(((0, 0),), ((-1, 0),)))
    with pytest.raises(Unbounded):
        decompose((0, 5), ray, back)


def test_unbounded_guard_matches_cone_oracle():
    # the quadrant meets -tail(Q) = cone((1, 2), (2, 1)) in a 2-d cone
    p = from_v(VRep(((0, 0),), ((1, 0), (0, 1))))
    q = from_v(VRep(((0, 0),), ((-1, -2), (-2, -1))))
    pairs = [(p, q), (q, p)]
    rng = random.Random(43)
    while len(pairs) < 120:
        d = rng.choice((2, 3))

        def poly(nrays):
            verts = [tuple(Fraction(rng.randint(-2, 3), rng.choice((1, 2)))
                           for _ in range(d))
                     for _ in range(rng.randint(1, 3))]
            rays = [tuple(rng.randint(-2, 2) for _ in range(d))
                    for _ in range(nrays)]
            return from_v(VRep(tuple(verts), tuple(r for r in rays if any(r))))
        try:
            pair = (poly(rng.randint(1, 3)), poly(rng.randint(0, 3)))
        except NormlocError:
            continue    # a line, or rays spanning the whole space
        pairs.append(pair if rng.random() < 0.5 else pair[::-1])
    raised = 0
    for p, q in pairs:
        try:
            decompose_unbounded_guard_ref(p, q)
            expect = False
        except Unbounded:
            expect = True
        z = tuple(rng.randint(-3, 4) for _ in range(p.dim))
        try:
            decompose(z, p, q)
            got = False
        except Unbounded:
            got = True
        assert got == expect, (p.v, q.v)
        raised += got
    assert raised >= 20 and len(pairs) - raised >= 20


def test_normally_located_positive_and_negative():
    sq = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
    rep = normally_located(sq, sq)
    assert rep.verdict == "located" and rep.witness is None
    p = from_v(VRep(((165, 0), (175, 0), (0, 385)), ()))
    q = from_v(VRep(((0, 0), (35, 0), (0, 77)), ()))
    rep = normally_located(p, q)
    assert rep.verdict == "not_located"
    assert rep.witness.point == (1, 383)
    assert rep.witness.kind == "no_decomposition"


def test_normally_located_witness_is_lex_least():
    rng = random.Random(41)
    hits = 0
    for _ in range(40):
        p = random_polytope(rng, 2, 6)
        q = random_polytope(rng, 2, 6)
        rep = normally_located(p, q)
        pts_p = list(enumerate_points(p))
        pts_q = list(enumerate_points(q))
        sums = set(oracle_sums(pts_p, pts_q))
        missing = [z for z in enumerate_points(minkowski_sum(p, q))
                   if z not in sums]
        if rep.verdict == "located":
            assert not missing
        else:
            hits += 1
            assert rep.witness.point == min(missing)
    assert hits  # the seed above does produce failing pairs


def test_normally_located_window_modes():
    p = from_v(VRep(((0, 0),), ((1, 0), (0, 1))))
    with pytest.raises(Unbounded):
        normally_located(p, p)
    rep = normally_located(p, p, window=((0, 0), (4, 4)))
    assert rep.verdict == "verified_up_to"
    assert rep.checked["window"] == [[0, 0], [4, 4]]
    sq = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
    rep = normally_located(sq, sq, window=((0, 0), (5, 5)))
    assert rep.verdict == "located"
    with pytest.raises(NormlocError):
        normally_located(sq, sq, window=((0.5, 0), (1.5, 2)))
    # an inverted window is bad input, not an empty search
    for poly in (sq, p):
        with pytest.raises(NormlocError):
            normally_located(poly, poly, window=((2, 2), (0, 0)))
        with pytest.raises(NormlocError):
            enumerate_windowed(poly, (0, 3), (4, 2))


TAIL_RAYS = {2: ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)),
             3: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 2),
                 (0, 1, 1), (2, 1, 1))}


def _unbounded_pair(rng, d):
    """Lattice P and Q with one common tail of 1 to d-1 nonnegative rays."""
    rays = tuple(sorted(rng.sample(TAIL_RAYS[d], rng.randint(1, d - 1))))

    def summand():
        pts = {tuple(rng.randint(0, 4) for _ in range(d))
               for _ in range(rng.randint(1, 3))}
        return from_v(VRep(tuple(sorted(pts)), rays))

    return summand(), summand()


def _oracle_first_unsplit(r, p, q, lo, hi):
    """First lattice point of R in [lo, hi] with no oracle split, or None."""
    return next((z for z in oracle_window_points(r, lo, hi)
                 if oracle_split(p, q, z) is None), None)


def test_unbounded_location_matches_split_oracle():
    rng = random.Random(56)
    verdicts = {}
    for trial in range(64):
        d = 2 if trial % 8 < 3 else 3
        p, q = _unbounded_pair(rng, d)
        lo = tuple(rng.randint(-2, 2) for _ in range(d))
        hi = tuple(min(12, a + rng.randint(4, 14 - 3 * d)) for a in lo)
        rep = normally_located(p, q, window=(lo, hi))
        r = minkowski_sum(p, q)
        missing = _oracle_first_unsplit(r, p, q, lo, hi)
        assert rep.checked == {"window": [list(lo), list(hi)]}
        if missing is None:
            assert rep.verdict == "verified_up_to" and rep.witness is None
        else:
            assert rep.verdict == "not_located"
            assert rep.witness.point == missing
            assert rep.witness.kind == "no_decomposition"
        key = (d, rep.verdict)
        verdicts[key] = verdicts.get(key, 0) + 1
        probes = oracle_window_points(r, lo, hi)[:3] + [lo, hi]
        for z in probes + ([missing] if missing else []):
            assert decompose(z, p, q) == oracle_split(p, q, z), (p, q, z)
    # 2-d pairs with a common tail split everywhere; 3-d ones need not
    assert verdicts == {(2, "verified_up_to"): 24, (3, "verified_up_to"): 33,
                        (3, "not_located"): 7}


def test_degenerate_pairs_match_split_oracle():
    point = from_v(VRep(((2, 3),), ()))
    tri = from_v(VRep(((0, 0), (2, 0), (0, 2)), ()))
    seg_a = from_v(VRep(((0, 0), (1, 2)), ()))
    seg_b = from_v(VRep(((0, 0), (2, 1)), ()))
    flat_a = from_v(VRep(((0, 0, 1), (1, 2, 1)), ()))
    flat_b = from_v(VRep(((0, 0, 0), (2, 1, 0), (1, 1, 0)), ()))
    cases = [
        (point, point, "located", None),
        (point, tri, "located", None),
        (tri, point, "located", None),
        (seg_a, seg_a, "located", None),
        (seg_a, seg_b, "not_located", (1, 1)),
        (flat_a, flat_b, "not_located", (2, 2, 1)),
        (flat_a, from_v(VRep(((0, 0, 0), (2, 1, 0)), ())), "not_located",
         (1, 1, 1)),
    ]
    for p, q, verdict, witness in cases:
        rep = normally_located(p, q)
        assert rep.verdict == verdict
        assert (rep.witness.point if rep.witness else None) == witness
        r = minkowski_sum(p, q)
        assert _oracle_first_unsplit(r, p, q, *box_of(r)) == witness
        assert rep.checked == {"window": None}


def test_windows_missing_the_set():
    sq = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
    rep = normally_located(sq, sq, window=((5, 5), (6, 6)))
    assert rep.verdict == "verified_up_to" and rep.witness is None
    assert rep.checked == {"window": [[5, 5], [6, 6]]}
    far = from_v(VRep(((3, 3),), ((1, 0), (0, 1))))
    # no point of far + far = (6, 6) + quadrant in the window, and no split
    # of any window point: the split region is empty
    rep = normally_located(far, far, window=((0, 0), (4, 4)))
    assert rep.verdict == "verified_up_to" and rep.witness is None
    assert oracle_window_points(minkowski_sum(far, far), (0, 0),
                                (4, 4)) == []
    for z in ((0, 0), (4, 4), (5, 6)):
        assert decompose(z, far, far) is None
        assert oracle_split(far, far, z) is None
    # a window that meets the set in one corner point
    rep = normally_located(far, far, window=((0, 0), (6, 6)))
    assert rep.verdict == "verified_up_to"
    assert decompose((6, 6), far, far) == ((3, 3), (3, 3))


def _windowed_pair(rng, d, kind):
    """P and Q of one kind: bounded lattice, flat with half-integral
    vertices on a hyperplane x_d = c or x_1 + ... + x_d = c, or lattice
    with a common tail."""
    rays = ()
    if kind == "unbounded":
        rays = tuple(sorted(rng.sample(TAIL_RAYS[d], rng.randint(1, d - 1))))
    oblique = rng.random() < 0.5
    # both planes hold lattice points, or neither does
    half = rng.randint(0, 1)

    def summand():
        n = rng.randint(1, d + 1)
        if kind == "flat":
            c = Fraction(rng.choice((0, 2)) + half, 2)
            pts = set()
            for _ in range(n):
                f = tuple(Fraction(rng.randint(0, 6), 2)
                          for _ in range(d - 1))
                pts.add(f + (c - sum(f) if oblique else c,))
        else:
            pts = {tuple(rng.randint(0, 4) for _ in range(d))
                   for _ in range(n)}
        return from_v(VRep(tuple(sorted(pts)), rays))

    return summand(), summand()


def _window_for(rng, r, mode):
    """A window near R's least corner: partial, with lo_j = hi_j on one
    axis, or missing R below its least x_j."""
    base, _ = box_of(r)
    lo = [b + rng.randint(-1, 2) for b in base]
    hi = [a + rng.randint(1, 3) for a in lo]
    j = rng.randrange(r.dim)
    if mode == "flat":
        lo[j] = hi[j] = rng.randint(lo[j], hi[j])
    elif mode == "missing":
        lo[j], hi[j] = base[j] - 3, base[j] - 1
    return tuple(lo), tuple(hi)


def test_windowed_checks_match_oracles():
    # the scan runs over R cap W in R's frame.  Here R lies on the plane
    # x1 + x2 + x3 = 0 and W bounds x3, which is no frame axis: (1, 1, -2)
    # does not split but lies outside W, so W must cut the scan
    p = from_v(VRep(((0, 0, 0), (1, 2, -3)), ()))
    q = from_v(VRep(((0, 0, 0), (2, 1, -3)), ()))
    lo, hi = (0, 0, -4), (3, 3, -3)
    assert normally_located(p, q).witness.point == (1, 1, -2)
    assert normally_located(p, q, window=(lo, hi)).witness.point == (2, 2, -4)
    assert _oracle_first_unsplit(minkowski_sum(p, q), p, q,
                                 lo, hi) == (2, 2, -4)
    # seeded: partial windows on bounded R, windows that flatten R or miss
    # it, on lattice, half-integral flat and unbounded pairs
    rng = random.Random(18)
    seen = {}
    for trial in range(216):
        d = 2 + trial % 2
        kind = ("bounded", "flat", "unbounded")[trial // 2 % 3]
        mode = ("partial", "flat", "missing")[trial // 6 % 3]
        p, q = _windowed_pair(rng, d, kind)
        r = minkowski_sum(p, q)
        lo, hi = _window_for(rng, r, mode)
        points = oracle_window_points(r, lo, hi)
        assert enumerate_windowed(r, lo, hi).points == tuple(points)
        assert enumerate_windowed(p, lo, hi).points == tuple(
            oracle_window_points(p, lo, hi))
        rep = normally_located(p, q, window=(lo, hi))
        missing = _oracle_first_unsplit(r, p, q, lo, hi)
        vlo, vhi = box_of(r)
        covers = not r.v.rays and all(a <= c and e <= b for a, b, c, e
                                      in zip(lo, hi, vlo, vhi))
        assert rep.checked == {"window": None if covers
                               else [list(lo), list(hi)]}
        if missing is None:
            assert rep.witness is None
            assert rep.verdict == ("located" if covers
                                   else "verified_up_to")
        else:
            assert rep.verdict == "not_located"
            assert rep.witness.point == missing
        key = (kind, mode, rep.verdict, bool(points))
        seen[key] = seen.get(key, 0) + 1
    # the seed gives witnesses under partial and flattening windows, and
    # windows with points on every kind
    for kind in ("bounded", "flat"):
        for mode in ("partial", "flat"):
            assert seen.get((kind, mode, "not_located", True)), seen
    for kind in ("bounded", "flat", "unbounded"):
        assert any(n for (k, m, _, pts), n in seen.items()
                   if k == kind and m != "missing" and pts), seen
    assert all(not pts for (_, m, _, pts) in seen if m == "missing")


def test_windows_run_one_h_to_v_pass(monkeypatch):
    # a window's S = R cap W is a scan set of R's rows and the box rows
    # with the vertices of their one H-to-V pass: enumerate_windowed runs
    # that pass and no V-to-H pass, on bounded, flat and unbounded records
    # under partial, flattening and missing windows, and finds the
    # membership oracle's points
    rng = random.Random(29)
    cases = []
    for trial in range(108):
        kind = ("bounded", "flat", "unbounded")[trial // 2 % 3]
        mode = ("partial", "flat", "missing")[trial // 6 % 3]
        p, q = _windowed_pair(rng, 2 + trial % 2, kind)
        r = minkowski_sum(p, q)
        lo, hi = _window_for(rng, r, mode)
        cases.append((r, lo, hi, kind, mode, oracle_window_points(r, lo, hi)))
    passes = []
    plain = latpoints._h_to_v
    monkeypatch.setattr(latpoints, "_h_to_v",
                        lambda *args: passes.append(args[0]) or plain(*args))

    def no_facets(*args):
        raise AssertionError("V-to-H pass inside enumerate_windowed")

    monkeypatch.setattr(polyhedra, "_v_to_h", no_facets)
    seen = set()
    for r, lo, hi, kind, mode, points in cases:
        passes.clear()
        assert enumerate_windowed(r, lo, hi).points == tuple(points)
        assert passes == [r.dim], (r, lo, hi)
        seen.add((kind, mode, bool(points)))
    for kind in ("bounded", "flat", "unbounded"):
        assert (kind, "missing", False) in seen, seen
        for mode in ("partial", "flat"):
            assert (kind, mode, True) in seen, seen


def test_fiber_with_rays_matches_split_oracle():
    # P(u) = {x >= 0 : x1 - x2 = u1, x3 = u2}: every fiber is a half-line
    # along (1, 1, 0), so the check needs a window
    g = graded_projection(((1, 0), (-1, 0), (0, 1)))
    lo, hi = (0, 0, 0), (4, 4, 3)
    cases = [((1, 0), (-1, 0), "not_located", (0, 0, 0), "not_in_sum"),
             ((1, 1), (0, 1), "verified_up_to", None, None),
             ((2, 1), (-1, 1), "not_located", (1, 0, 2), "not_in_sum")]
    for u1, u2, verdict, witness, kind in cases:
        rep = fiber_point_sum_exact(g, u1, u2, window=(lo, hi))
        assert rep.verdict == verdict
        assert (rep.witness.point if rep.witness else None) == witness
        assert (rep.witness.kind if rep.witness else None) == kind
        assert rep.checked["window"] == [list(lo), list(hi)]
        f1, f2 = fiber(g, u1), fiber(g, u2)
        f12 = fiber(g, tuple(a + b for a, b in zip(u1, u2)))
        assert f1.v.rays == f2.v.rays == ((1, 1, 0),)
        assert _oracle_first_unsplit(f12, f1, f2, lo, hi) == witness
        if witness:
            assert not minkowski_sum(f1, f2).contains(witness)


def test_is_normal_small_polygons():
    sq = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
    rep = is_normal(sq, 5)
    assert rep.verdict == "verified_up_to"
    assert rep.checked == {"s_max": 5, "scales_scanned": [],
                           "all_scales": True}
    rep = is_normal(sq)
    assert rep.verdict == "located"
    assert rep.checked == {"s_max": None, "scales_scanned": [],
                           "all_scales": True}


def test_is_normal_reeve_simplex():
    reeve = from_v(VRep(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)), ()))
    rep = is_normal(reeve, 3)
    assert rep.verdict == "not_located"
    assert rep.witness.scale == 2
    assert rep.witness.kind == "normality_failure"
    # independent oracle: failure set at s = 2 via pairwise sums
    pts = list(enumerate_points(reeve))
    sums = set(oracle_sums(pts, pts))
    missing = [z for z in enumerate_points(scale(reeve, 2))
               if z not in sums]
    assert missing == [(1, 1, 1), (1, 1, 2)]
    assert rep.witness.point == min(missing)
    # the doubled simplex is normal up to the checked bound
    assert is_normal(scale(reeve, 2), 3).verdict == "verified_up_to"


def test_is_normal_validation():
    half = from_h(HRep((((2, 0), 1), ((-1, 0), 0), ((0, 2), 1),
                        ((0, -1), 0))))
    with pytest.raises(NotLattice):
        is_normal(half, 2)
    ray = from_v(VRep(((0, 0),), ((1, 0),)))
    with pytest.raises(Unbounded):
        is_normal(ray, 2)
    sq = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
    with pytest.raises(NormlocError):
        is_normal(sq, 0)


def test_is_normal_matches_oracle_on_random_polygons():
    rng = random.Random(43)
    for _ in range(10):
        p = random_polytope(rng, 2, 6)
        rep = is_normal(p, 4)
        pts = list(enumerate_points(p))
        level = pts
        for s in range(2, 5):
            level = oracle_sums(level, pts)
            missing = [z for z in enumerate_points(scale(p, s))
                       if z not in set(level)]
            assert not missing
        assert rep.verdict == "verified_up_to"


def _normality_cases(rng):
    """Lattice polytopes: polygons, 3-d polytopes, flat ones in 3-space
    (segments, triangles and lifted polygons), doubled copies and Reeve
    tetrahedra, moved by lattice translations."""
    cases = [random_polytope(rng, 2, 5) for _ in range(26)]
    cases += [random_polytope(rng, 3, 2) for _ in range(18)]
    for _ in range(10):
        cases.append(random_polytope(rng, 3, 3, npoints=rng.randint(2, 3),
                                     full_dim=False))
        poly = random_polytope(rng, 2, 3)
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        cases.append(from_v(VRep(tuple((x, y, a * x + b * y + c)
                                       for x, y in poly.v.vertices), ())))
    cases += [scale(random_polytope(rng, 2, 3), 2) for _ in range(8)]
    cases += [scale(random_polytope(rng, 3, 1), 2) for _ in range(4)]
    for r in range(1, 7):
        t = tuple(rng.randint(-2, 2) for _ in range(3))
        cases.append(from_v(VRep(tuple(tuple(x + y for x, y in zip(v, t))
                                       for v in ((0, 0, 0), (1, 0, 0),
                                                 (0, 1, 0), (1, 1, r))),
                                 ())))
    return cases


def test_is_normal_matches_scaled_sum_reference():
    rng = random.Random(59)
    verdicts = {"not_located": 0, "verified_up_to": 0}
    cases = _normality_cases(rng)
    assert len(cases) >= 80
    for p in cases:
        s_max = rng.randint(2, 4 if p.dim == 2 else 3)
        rep = is_normal(p, s_max)
        ref = is_normal_ref(p, s_max)
        assert (rep.verdict, rep.witness) == (ref.verdict, ref.witness), p
        top = p.affine_dimension() - 1
        if rep.witness:
            assert rep.checked == ref.checked
        else:
            assert rep.checked == {
                "s_max": s_max,
                "scales_scanned": list(range(2, min(s_max, top) + 1)),
                "all_scales": s_max >= top}
        verdicts[rep.verdict] += 1
    assert min(verdicts.values()) >= 5, verdicts


def _lifted(rng, poly):
    """A polygon lifted to a random plane z = a x + b y + c in 3-space."""
    a, b, c = (rng.randint(-2, 2) for _ in range(3))
    return from_v(VRep(tuple((x, y, a * x + b * y + c)
                             for x, y in poly.v.vertices), ()))


def test_capped_normality_matches_full_scan():
    # scales s >= dim P hold by the Bruns-Gubeladze-Trung bound, so the scan
    # that stops at dim P - 1 agrees with the oracle that scans 2..4
    rng = random.Random(61)
    cases = [random_polytope(rng, 2, 4) for _ in range(10)]
    cases += [random_polytope(rng, 3, 3) for _ in range(30)]
    cases += [random_polytope(rng, 4, 2) for _ in range(12)]
    for _ in range(6):
        cases.append(random_polytope(rng, 3, 3, npoints=2, full_dim=False))
        cases.append(_lifted(rng, random_polytope(rng, 2, 3)))
    cases += [reeve(r) for r in range(2, 7)]
    failed = {2: 0, 3: 0, 4: 0}
    for p in cases:
        rep, ref = is_normal(p, 4), is_normal_ref(p, 4)
        assert (rep.verdict, rep.witness) == (ref.verdict, ref.witness), p
        if rep.witness:
            failed[p.affine_dimension()] += 1
    assert failed[2] == 0 and failed[3] >= 10 and failed[4] >= 5, failed
    assert all(is_normal(reeve(r), 4).witness.scale == 2
               for r in range(2, 7))


def test_is_normal_scans_only_unproved_scales(monkeypatch):
    calls = []
    real = latpoints._first_unsplit
    monkeypatch.setattr(latpoints, "_first_unsplit",
                        lambda *args: calls.append(args) or real(*args))
    rng = random.Random(67)
    flat = [p for p in (random_polytope(rng, 3, 3, npoints=3, full_dim=False)
                        for _ in range(20)) if p.affine_dimension() == 2]
    assert len(flat) >= 5
    for p in [random_polytope(rng, 2, 6) for _ in range(5)] + flat:
        assert is_normal(p, 4).checked["scales_scanned"] == []
        assert is_normal(p).verdict == "located"
    assert calls == []
    cube = from_v(VRep(tuple((a, b, c) for a in (0, 1) for b in (0, 1)
                             for c in (0, 1)), ()))
    for p, verdict in ((cube, "verified_up_to"), (reeve(3), "not_located")):
        calls.clear()
        assert is_normal(p, 3).verdict == verdict
        assert len(calls) == 1
    assert is_normal(cube, 3).checked == {"s_max": 3, "scales_scanned": [2],
                                          "all_scales": True}
    assert is_normal(cube, 1).checked == {"s_max": 1, "scales_scanned": [],
                                          "all_scales": False}


def test_is_normal_scans_scales_without_facets(monkeypatch):
    # each scanned s P is a scan set of P's rows scaled by s: no V-to-H pass
    # runs, and verdicts and witnesses on 3- and 4-polytopes, flat ones in
    # 4-space included, are those of the scaled-sum reference
    rng = random.Random(71)
    cases = [random_polytope(rng, 3, 2) for _ in range(8)]
    cases += [random_polytope(rng, 4, 1, npoints=rng.randint(5, 7))
              for _ in range(8)]
    cases += [from_v(VRep(tuple(v + (v[0] + v[1] - v[2],)
                                for v in p.v.vertices), ()))
              for p in cases[:4]]
    cases += [reeve(r) for r in (1, 2, 3)]
    refs = [is_normal_ref(p, 3) for p in cases]
    calls = []
    plain = polyhedra._v_to_h
    monkeypatch.setattr(polyhedra, "_v_to_h",
                        lambda *args: calls.append(args[0]) or plain(*args))
    dims = {3: 0, 4: 0}
    failed = 0
    for p, ref in zip(cases, refs):
        rep = is_normal(p, 3)   # scans s = 2, and s = 3 in dimension 4
        assert (rep.verdict, rep.witness) == (ref.verdict, ref.witness), p
        failed += bool(rep.witness)
        dims[p.affine_dimension()] += 1
    assert calls == []
    assert min(dims.values()) >= 8 and failed >= 3, (dims, failed)


def _fiber_cases(rng, count):
    """Seeded (g, u1, u2): n <= 6 weights with a positive first entry, so
    every fiber is bounded, m <= 3, and degrees in the weight semigroup;
    then the boundary grading at scales 1-11."""
    cases = []
    while len(cases) < count:
        m = rng.randint(1, 3)
        n = rng.randint(m, 6)
        ws = [(rng.randint(1, 3),) + tuple(rng.randint(0, 3)
                                           for _ in range(m - 1))
              for _ in range(n)]
        try:
            g = graded_projection(ws)
        except NormlocError:
            continue
        coefs = [[rng.randint(0, 1) for _ in ws] for _ in range(2)]
        u1, u2 = (tuple(sum(c * w[j] for c, w in zip(coef, ws))
                        for j in range(m)) for coef in coefs)
        cases.append((g, u1, u2))
    g, u1, u2 = boundary_grading()
    cases += [(g, tuple(s * x for x in u1), tuple(s * x for x in u2))
              for s in range(1, 12)]
    return cases


def _box_volume(p):
    lo, hi = box_of(p)
    vol = 1
    for a, b in zip(lo, hi):
        vol *= max(0, b - a + 1)
    return vol


def test_fiber_points_match_oracle_in_order():
    # fibers are flat: the scan runs in the lattice coordinates of their
    # affine hulls and must give the points of the x-box oracle, in order
    rng = random.Random(83)
    nonempty = 0
    for g, u1, u2 in _fiber_cases(rng, 60):
        for u in (u1, u2, tuple(a + b for a, b in zip(u1, u2))):
            f = fiber(g, u)
            assert f.h.equalities
            if _box_volume(f) > 40_000:
                continue
            expect = tuple(oracle_points(f))
            assert enumerate_points(f).points == expect, (g, u)
            nonempty += bool(expect)
            lo, hi = box_of(f)
            lo = tuple(a + rng.randint(-1, 1) for a in lo)
            hi = tuple(max(a, b - rng.randint(0, 2)) for a, b in zip(lo, hi))
            assert (enumerate_windowed(f, lo, hi).points
                    == tuple(oracle_window_points(f, lo, hi))), (g, u)
    assert nonempty >= 180, nonempty


def test_fiber_witnesses_match_reference_scan_in_x():
    # the split check in the frame against the per-point reference scan
    # on the x-systems, where each equality is two opposing rows
    rng = random.Random(89)
    witnesses = 0
    for g, u1, u2 in _fiber_cases(rng, 60):
        u12 = tuple(a + b for a, b in zip(u1, u2))
        f1, f2, f12 = fiber(g, u1), fiber(g, u2), fiber(g, u12)
        if _box_volume(f12) > 40_000:
            continue
        rep = fiber_point_sum_exact(g, u1, u2)
        expect = scan_undecomposed_ref(*x_system(f12), *x_system(f1),
                                       *x_system(f2))
        assert (rep.witness.point if rep.witness else None) == expect
        witnesses += expect is not None
        # decompose works in the frame of aff(P) cap (z - aff(Q))
        pts = list(enumerate_points(f12))
        probes = rng.sample(pts, min(4, len(pts))) + ([expect] if expect
                                                      else [])
        lo, hi = box_of(f12)
        probes.append(tuple(rng.randint(a, b) for a, b in zip(lo, hi)))
        for z in probes:
            assert decompose(z, f1, f2) == oracle_split(f1, f2, z), (g, z)
    assert witnesses >= 25, witnesses


def test_lattice_free_affine_hulls():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    # P on the line x = 1/2 has no lattice point, P + P on x = 1 has: no
    # point splits, so the witness is the first lattice point of P + P
    p = from_v(VRep(((half, 0), (half, 2)), ()))
    assert enumerate_points(p).points == ()
    rep = normally_located(p, p)
    assert rep.verdict == "not_located" and rep.witness.point == (1, 0)
    # the same in 3-d, on the plane 2x + 2y = 1, and for a single point
    q = from_v(VRep(((half, 0, 0), (0, half, 0), (half, 0, 3)), ()))
    r = minkowski_sum(q, q)
    assert normally_located(q, q).witness.point == oracle_points(r)[0]
    dot_ = from_v(VRep(((half, half),), ()))
    assert normally_located(dot_, dot_).witness.point == (1, 1)
    assert decompose((1, 1), dot_, dot_) is None
    # R on x = 1/2 (and on 2x + 2y = 1) has no lattice point at all
    for s in (from_v(VRep(((quarter, 0), (quarter, 3)), ())),
              from_v(VRep(((quarter, 0, 0), (0, quarter, 0),
                           (0, quarter, 2)), ()))):
        r = minkowski_sum(s, s)
        assert r.h.equalities
        assert oracle_points(r) == []
        assert enumerate_points(r).points == ()
        rep = normally_located(s, s)
        assert rep.verdict == "located" and rep.witness is None
        assert enumerate_windowed(r, (-2,) * r.dim, (3,) * r.dim).points == ()


def test_windows_missing_flat_sets():
    # a window that misses the set on one axis scans nothing, even where
    # the set has points that do not split
    half = Fraction(1, 2)
    seg = from_v(VRep(((half,), (3 * half,)), ()))
    assert normally_located(seg, seg).witness.point == (1,)
    flat = from_v(VRep(((half, 0), (3 * half, 0)), ()))
    assert normally_located(flat, flat).witness.point == (1, 0)
    for p, lo, hi in ((seg, (-4,), (0,)), (flat, (-4, 0), (0, 0)),
                      (flat, (1, 1), (3, 2))):
        rep = normally_located(p, p, window=(lo, hi))
        assert rep.verdict == "verified_up_to" and rep.witness is None
        assert rep.checked == {"window": [list(lo), list(hi)]}
        assert enumerate_windowed(minkowski_sum(p, p), lo, hi).points == ()
    # a window inside the set's box keeps only its points
    assert enumerate_windowed(minkowski_sum(flat, flat), (2, -1),
                              (3, 1)).points == ((2, 0), (3, 0))


def _scaling_cases(rng):
    """Seeded (R, P, Q, kind) at m = 1, R = P + Q (as a record or as the
    fiber over u1 + u2), for the scan systems of every multiple."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = []
    for d in (2, 2, 3, 3):
        p, q = random_polytope(rng, d, 2), random_polytope(rng, d, 2)
        cases.append((minkowski_sum(p, q), p, q, "full"))
    for _ in range(6):
        # flat in 4-space: P on a random sheared plane or hyperplane, Q a
        # sub-hull of P moved by a lattice vector, in P's directions
        p = random_polytope(rng, 4, 2, npoints=rng.randint(3, 4),
                            full_dim=False)
        verts = p.v.vertices
        sub = rng.sample(verts, rng.randint(1, len(verts)))
        t = tuple(a - b for a, b in zip(rng.choice(verts), verts[0]))
        q = from_v(VRep(tuple(tuple(a + b for a, b in zip(v, t))
                              for v in sub), ()))
        cases.append((minkowski_sum(p, q), p, q, "flat"))
    for g, u1, u2 in [c for c in _fiber_cases(rng, 40)
                      if c[0].n <= 4][:14]:
        u12 = tuple(a + b for a, b in zip(u1, u2))
        cases.append(tuple(_fiber_entry(g, u) for u in (u12, u1, u2))
                     + ("fiber",))
    g, u1, u2 = boundary_grading()
    u12 = tuple(a + b for a, b in zip(u1, u2))
    cases.append(tuple(_fiber_entry(g, u) for u in (u12, u1, u2))
                 + ("fiber",))
    # Reeve tetrahedra: (P, P) fails at m = 1, also on a sheared
    # hyperplane of Z^4
    flat_reeve = from_v(VRep(((0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 2),
                              (1, 1, 3, 3)), ()))
    for p in (reeve(2), reeve(3), reeve(5), flat_reeve):
        cases.append((scale(p, 2), p, p, "flat" if p.dim == 4 else "full"))
    # W of full column rank: points, as fibers of the identity grading and
    # as records, one of them rational
    unit = graded_projection([(1, 0), (0, 1)])
    cases.append(tuple(_fiber_entry(unit, u)
                       for u in ((3, 1), (2, 0), (1, 1))) + ("point",))
    for a, b in (((1, 2, 0), (0, 1, 1)), ((half, third), (half, 0))):
        p, q = (from_v(VRep((v,), ())) for v in (a, b))
        cases.append((minkowski_sum(p, q), p, q, "point"))
    # P's hull has no integer point at c = 1 (x = 1/2, 2x + 2y = 1)
    for p, q in ((from_v(VRep(((half, 0), (half, 2)), ())),
                  from_v(VRep(((half, 1), (half, 2)), ()))),
                 (from_v(VRep(((half, 0, 0), (0, half, 0), (half, 0, 1)),
                              ())),
                  from_v(VRep(((0, half, 0), (half, 0, 2)), ())))):
        cases.append((minkowski_sum(p, q), p, q, "lattice-free"))
    return cases


def test_prepared_sets_scan_like_scaled_reference():
    # the per-scale system of a set prepared once against the frame's
    # rows of the Fraction-scaled scan set, for c = 1..6, in R's frame and
    # in the set's own: the same points; the y-box equals the one solved
    # over Q
    rng = random.Random(97)
    counts = {}
    for r, p, q, kind in _scaling_cases(rng):
        for x in (r, p, q):
            for frame in {latpoints._frame_of(r), latpoints._frame_of(x)}:
                prep = latpoints._prepare(frame, x)
                for c in range(1, 7):
                    ref = scaled_scan_set_ref(x, c)
                    origin = prep.origin(c)
                    assert origin == frame.origin(tuple(
                        sum(a * b for a, b in zip(n, ref.v.vertices[0]))
                        for n in frame.normals)), (kind, x, c)
                    if origin is None:
                        counts["no origin"] = counts.get("no origin", 0) + 1
                        continue
                    got = prep.system(c, origin)
                    want = latpoints._prepare(frame, ref).system(1, origin)
                    assert got[2:] == frame_box_ref(
                        frame, ref.v.vertices, origin), (kind, x, c)
                    pts = list(kernels.scan_points(*got))
                    assert pts == list(kernels.scan_points(*want))
                    counts[kind] = counts.get(kind, 0) + bool(pts)
                    if not frame.pivots:
                        counts["no pivot"] = counts.get("no pivot", 0) + 1
            if kind == "fiber" and not all(a.denominator == 1
                                           for v in x.v.vertices for a in v):
                counts["rational fiber"] = counts.get("rational fiber", 0) + 1
    assert all(counts.get(k, 0) >= 10
               for k in ("full", "flat", "fiber", "point", "lattice-free",
                         "no origin", "no pivot", "rational fiber")), counts


def test_multiple_sweep_matches_scaled_reference():
    rng = random.Random(101)
    verdicts = {"verified_up_to": 0, "exhausted": 0}
    for r, p, q, kind in _scaling_cases(rng):
        k_max, s_max = rng.randint(1, 3), rng.randint(1, 2)
        rep = _multiple_sweep(k_max, s_max, r, p, q)
        assert rep == multiple_sweep_ref(k_max, s_max, r, p, q), (kind, r)
        verdicts[rep.verdict] += 1
    assert min(verdicts.values()) >= 5, verdicts
