import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import (TAILS, fiber_from_h_ref, fiber_point_sum_exact_ref,
                      fiber_sum_exact_ref, git_cone_ref, git_fan_ref,
                      located_multiple_search_ref,
                      multiple_making_sums_exact_ref, multiple_sweep_ref,
                      orbit_cones_ref, random_polytope, reeve,
                      refinement_iff_interior_ref, scale_ref,
                      split_dimension_ref, wall_normals_ref)
from normloc import dd, exact, fans, gitfan, latpoints, polyhedra
from normloc.cases import boundary_grading, triangle_pair
from normloc.errors import (DimensionMismatch, EmptyPolyhedron, NormlocError,
                            NotFullDimensional, NotLattice, RealizationError,
                            SupportMismatch, TailConeMismatch, Unbounded,
                            WeightOutsideCone)
from normloc.fans import (common_refinement, cone_from_generators,
                          normal_fan, refines)
from normloc.gitfan import (GradedProjection, fiber, fiber_point_sum_exact,
                            fiber_sum_exact, git_cone, git_fan,
                            graded_projection, graded_projection_from_dict,
                            is_generating_candidate, located_multiple_search,
                            multiple_making_sums_exact, normal_fan_refines,
                            realize_pair, refinement_iff_interior,
                            weight_cone)
from normloc.latpoints import enumerate_points, is_normal, normally_located
from normloc.polyhedra import (VRep, from_v, minkowski_sum, scale, translate)


def test_graded_projection_validation():
    g = graded_projection(((4, 1), (2, 1), (1, 2), (1, 3)))
    assert (g.n, g.m) == (4, 2)
    assert g.matrix == ((4, 2, 1, 1), (1, 1, 2, 3))
    with pytest.raises(NormlocError):
        graded_projection(((1, 0),))            # n < m
    with pytest.raises(NormlocError):
        graded_projection(((2, 0), (0, 2), (2, 2)))  # not surjective
    with pytest.raises(NormlocError):
        graded_projection(((1, 0), (0,)))       # ragged
    with pytest.raises(NormlocError):
        graded_projection(())
    rt = graded_projection_from_dict(g.to_dict())
    assert rt == g
    assert graded_projection(((4.0, 1), (2, "1"), (1, 2), (1, 3))) == g
    with pytest.raises(NormlocError):
        fiber(g, (4.5, 2))                      # non-integral degree


# 22 weights: 2^22 weight subsets, none of which its GIT fan enumerates
WIDE = graded_projection(tuple((1, i) for i in range(21)) + ((21, 1),))


def test_weight_cone_and_orbit_cones():
    g, _, _ = boundary_grading()
    wc = weight_cone(g)
    assert wc.rays == ((1, 3), (4, 1))
    orb = orbit_cones_ref(g)
    assert len(orb) == 11
    assert any(c.rays == () for c in orb)       # zero cone from empty subset
    assert wc in orb
    for c in orb:
        assert all(wc.contains_point(r) for r in c.rays)


def test_git_fan_of_wide_grading_reports_no_orbit_cones():
    gf = git_fan(WIDE)
    assert gf.fan_verified
    assert gf.weight_cone.rays == ((1, 0), (1, 20))
    d = gf.to_dict()
    assert len(d["git_cones"]) == 21   # one between neighbouring weight rays
    assert "orbit_cones" not in d


def test_fiber_polytopes():
    g, _, _ = boundary_grading()
    f = fiber(g, (4, 2))
    assert f.dim == 4
    assert (Fraction(0), Fraction(2), Fraction(0), Fraction(0)) \
        in f.v.vertices
    assert list(enumerate_points(f)) == [(0, 2, 0, 0)]
    assert list(enumerate_points(fiber(g, (2, 4)))) == [(0, 0, 2, 0)]
    assert list(enumerate_points(fiber(g, (6, 6)))) == [
        (0, 2, 2, 0), (1, 0, 1, 1)]
    with pytest.raises(WeightOutsideCone):
        fiber(g, (0, 1))                        # outside cone((1,3),(4,1))
    with pytest.raises(DimensionMismatch):
        fiber(g, (1,))


def test_scaled_fibers_match_fresh_from_h(monkeypatch):
    # the fiber entry of c u is built from c u itself, with one H-to-V pass
    # of the rows -e_i x <= 0 and A x = c u: the record must be the one a
    # fresh from_h gives, rays and flat fibers included
    calls = []
    plain = gitfan._h_to_v

    def counted(d, h):
        calls.append(tuple(rhs for _, rhs in h.equalities))
        return plain(d, h)

    monkeypatch.setattr(gitfan, "_h_to_v", counted)
    rng = random.Random(97)
    g0, u1, u2 = boundary_grading()
    cases = [(g0, u) for u in (u1, u2, (1, 3), (4, 1), (5, 5))]
    for _ in range(120):
        g = _random_grading(rng)
        u = tuple(sum(rng.randint(0, 2) * w[j] for w in g.weights)
                  for j in range(g.m))
        cases.append((g, u))
        cases.append((g, tuple(rng.randint(-2, 3) for _ in range(g.m))))
    built = rays = 0
    for g, u in cases:
        for c in (2, 3, 6):
            cu = tuple(c * x for x in u)
            calls.clear()
            try:
                expect = fiber_from_h_ref(g, cu)
            except EmptyPolyhedron:
                with pytest.raises(WeightOutsideCone):
                    fiber(g, cu)
                continue
            got = fiber(g, cu)
            assert got == expect and repr(got) == repr(expect), (g, cu)
            # one H-to-V pass, of cu itself
            assert calls == [cu]
            h = gitfan._fiber_entry(g, cu).h
            assert h.inequalities == tuple(
                (tuple(-int(i == j) for j in range(g.n)), 0)
                for i in range(g.n))
            assert h.equalities == tuple(zip(g.matrix, cu))
            built += 1
            rays += bool(got.v.rays)
    assert built >= 300 and rays >= 60, (built, rays)


def test_vertex_readers_build_no_fiber_facets(monkeypatch):
    # git_fan and realize_pair read no fiber, git_cone only the fibers'
    # vertices: with every cache cold, no V-to-H pass runs on any fiber
    calls = []
    plain = gitfan._from_canonical_v

    def counted(d, verts, rays):
        calls.append(d)
        return plain(d, verts, rays)

    monkeypatch.setattr(gitfan, "_from_canonical_v", counted)
    for val in vars(gitfan).values():
        if callable(getattr(val, "cache_clear", None)):
            val.cache_clear()
    g, u1, u2 = boundary_grading()
    assert git_fan(g).fan_verified and git_fan(WIDE).fan_verified
    for u in (u1, (6, 6), (0, 0)):
        git_cone(g, u)
    rng = random.Random(89)
    for _ in range(3):
        q2 = random_polytope(rng, 2, 4)
        realize_pair(minkowski_sum(random_polytope(rng, 2, 4), q2), q2)
    seg = from_v(VRep(((0,), (1,)), ()))
    realize_pair(seg, scale(seg, 2))
    quadrant = from_v(VRep(((0, 0),), ((0, 1), (1, 0))))
    realize_pair(translate(quadrant, (1, 0)), quadrant)
    assert calls == []
    # the counter sees the records that fiber() builds
    fiber(g, u2)
    assert calls == [4]


def test_git_cone_anchor_and_pointedness():
    g, _, _ = boundary_grading()
    c = git_cone(g, (3, 3))
    assert c.rays == ((1, 2), (2, 1))
    assert c.is_pointed()
    # extremal ray of the weight cone: its fibers are single points
    assert git_cone(g, (1, 3)).rays == ((1, 3),)
    rng = random.Random(61)
    for _ in range(15):
        ws = tuple(tuple(rng.randint(0, 3) for _ in range(2))
                   for _ in range(rng.randint(2, 5)))
        try:
            gi = graded_projection(ws)
        except NormlocError:
            continue
        wc = weight_cone(gi)
        u = tuple(sum(w[j] for w in ws) for j in range(2))
        if u == (0, 0) or not wc.contains_point(u):
            continue
        assert git_cone(gi, u).is_pointed()


def test_git_fan_chambers():
    g, _, _ = boundary_grading()
    gf = git_fan(g)
    assert gf.fan_verified
    assert [c.rays for c in gf.git_cones] == [
        ((1, 2), (1, 3)), ((1, 2), (2, 1)), ((2, 1), (4, 1))]
    assert gf.weight_cone.rays == ((1, 3), (4, 1))
    d = gf.to_dict()
    assert sorted(d) == ["fan_verified", "git_cones", "weight_cone"]
    assert d["fan_verified"] is True
    assert len(d["git_cones"]) == 3


def _random_grading(rng):
    """m = 1-3, up to m + 3 weights, often negative entries (and so often
    weight cones with lines)."""
    while True:
        m = rng.choice((1, 2, 2, 3))
        lo = rng.choice((0, -1, -2))
        ws = tuple(tuple(rng.randint(lo, 3) for _ in range(m))
                   for _ in range(rng.randint(m, m + 3)))
        try:
            return graded_projection(ws)
        except NormlocError:
            continue


def _varied_grading(rng):
    """m = 1-4 and up to m + 4 weights (m + 3 for m = 4), often negative
    entries; one draw in five gets a zero weight, one a repeated weight and
    one a weight parallel to another (twice it)."""
    while True:
        m = rng.choice((1, 2, 2, 3, 3, 4))
        lo = rng.choice((0, 0, -1, -2))
        ws = [tuple(rng.randint(lo, 3) for _ in range(m))
              for _ in range(rng.randint(m, m + (4 if m < 4 else 3)))]
        extra = rng.random()
        if extra < 0.2:
            ws[rng.randrange(len(ws))] = (0,) * m
        elif extra < 0.4:
            ws.append(rng.choice(ws))
        elif extra < 0.6:
            ws.append(tuple(2 * x for x in rng.choice(ws)))
        try:
            return graded_projection(ws)
        except NormlocError:
            continue


def test_git_fan_matches_every_cell_reference():
    # the every-cell reference where it is cheap (n <= 7, and n <= 6 for
    # m >= 3, where one n = 7 grading takes 0.1-3 s), and on every grading
    # the fiber path as the oracle of the bases: each chamber is the GIT
    # cone of its ray sum
    rng = random.Random(7)
    seen = dict.fromkeys(("ref", "m1", "m4", "negative", "lines", "zero",
                          "repeated", "parallel"), 0)
    for _ in range(220):
        g = _varied_grading(rng)
        got = git_fan(g)
        assert got.fan_verified
        if g.n <= (7 if g.m <= 2 else 6):
            assert json.dumps(got.to_dict()) == json.dumps(git_fan_ref(g)), g
            seen["ref"] += 1
        for c in got.git_cones:
            assert git_cone(g, tuple(sum(col) for col in zip(*c.rays))) == c
        nonzero = [w for w in g.weights if any(w)]
        seen["m1"] += g.m == 1
        seen["m4"] += g.m == 4
        seen["negative"] += any(x < 0 for w in g.weights for x in w)
        seen["lines"] += bool(got.weight_cone.lines)
        seen["zero"] += len(nonzero) < g.n
        seen["repeated"] += len(set(nonzero)) < len(nonzero)
        seen["parallel"] += (len({exact.primitive(w) for w in nonzero})
                             < len(set(nonzero)))
    assert seen["ref"] >= 160 and min(seen.values()) >= 30, seen


def test_git_fan_runs_no_fiber_pass(monkeypatch):
    # with every cache cold and the fiber passes patched to raise, git_fan
    # builds every fan from its walls and bases: W's two DD passes, one per
    # m-subset of weights (``_support_rows``) and two per chamber; and it
    # cuts only along walls, each normal up to sign one of the reference's
    # (an extra wall splits chambers into cells that share them, so the
    # records would not show it)
    def no_fiber(*args):
        raise AssertionError(f"fiber pass {args!r}")

    calls, cuts = [], []
    plain = dd.generators_from_constraints
    monkeypatch.setattr(dd, "generators_from_constraints",
                        lambda *args: calls.append(args[0]) or plain(*args))
    # git_fan's own cuts only: dd's passes cut through its module globals
    monkeypatch.setattr(gitfan, "dd", SimpleNamespace(**{
        **vars(dd),
        "_cut": lambda cell, a: cuts.append(a) or dd._cut(cell, a)}))
    monkeypatch.setattr(gitfan, "_h_to_v", no_fiber)
    monkeypatch.setattr(gitfan, "_fiber_entry", no_fiber)
    rng = random.Random(113)
    grads = [boundary_grading()[0], WIDE]
    grads += [_varied_grading(rng) for _ in range(60)]
    cut_fans = 0
    for g in grads:
        _cold_caches()
        calls.clear()
        cuts.clear()
        gf = git_fan(g)
        assert gf.fan_verified
        assert len(calls) <= 2 + math.comb(g.n, g.m) + 2 * len(gf.git_cones)
        walls = set(wall_normals_ref(g))
        walls |= {tuple(-x for x in n) for n in walls}
        assert walls.issuperset(cuts), g
        cut_fans += bool(cuts)
    assert cut_fans >= 50, cut_fans


def test_git_fan_m1():
    g = graded_projection(((1,), (2,), (3,)))
    gf = git_fan(g)
    assert gf.fan_verified
    assert [c.rays for c in gf.git_cones] == [((1,),)]


def test_fiber_sum_exact():
    g, u1, u2 = boundary_grading()
    assert fiber_sum_exact(g, (4, 2), (2, 4)) is True
    # the rational fibers add exactly on the extremal ray
    assert fiber_sum_exact(g, (1, 3), (2, 6)) is True


def test_fiber_sum_exact_matches_record_reference(monkeypatch):
    # the vertex-sum check against the Minkowski sum of the records, on
    # 600 seeded degree pairs of gradings with m = 1-3, weight cones with
    # lines and fibers with rays among them; no V-to-H pass runs
    rng = random.Random(101)
    cases = []
    while len(cases) < 600:
        g = _random_grading(rng)
        coefs = [[rng.randint(0, 2) for _ in g.weights] for _ in range(2)]
        u1, u2 = (tuple(sum(c * w[j] for c, w in zip(coef, g.weights))
                        for j in range(g.m)) for coef in coefs)
        cases.append((g, u1, u2))
    expect = [fiber_sum_exact_ref(*case) for case in cases]

    def no_facets(*args):
        raise AssertionError("V-to-H pass inside fiber_sum_exact")

    monkeypatch.setattr(polyhedra, "_v_to_h", no_facets)
    got = [fiber_sum_exact(*case) for case in cases]
    monkeypatch.undo()
    assert got == expect
    rays = sum(bool(gitfan._fiber_entry(g, tuple(a + b for a, b
                                                 in zip(u1, u2))).v.rays)
               for g, u1, u2 in cases)
    assert expect.count(False) >= 60 and rays >= 100, (expect.count(False),
                                                       rays)


def test_fiber_point_sum_exact_witnesses():
    g, u1, u2 = boundary_grading()
    for s in range(2, 7):
        a = tuple(s * x for x in u1)
        b = tuple(s * x for x in u2)
        rep = fiber_point_sum_exact(g, a, b)
        assert rep.verdict == "not_located"
        assert rep.witness.point == (1, s - 2, s - 1, 1)
        assert rep.witness.kind == "no_decomposition"
        assert rep.checked["u1"] == list(a) and rep.checked["u2"] == list(b)
    rep = fiber_point_sum_exact(g, (4, 2), (2, 4))
    assert rep.verdict == "not_located" and rep.witness.point == (1, 0, 1, 1)


def _degree_pair(rng):
    """A grading of four nonzero weights in [0, 3]^2 (so every fiber is
    bounded) and two nonzero degrees in its weight semigroup."""
    while True:
        ws = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)]
        if not all(any(w) for w in ws):
            continue
        try:
            g = graded_projection(ws)
        except NormlocError:
            continue
        coefs = [[rng.randint(0, 2) for _ in ws] for _ in range(2)]
        u1, u2 = ([sum(c * w[j] for c, w in zip(coef, ws)) for j in (0, 1)]
                  for coef in coefs)
        if any(u1) and any(u2):
            return g, u1, u2


def test_fiber_witness_labels_match_minkowski_reference():
    rng = random.Random(73)
    g, u1, u2 = boundary_grading()
    cases = [(g, [s * x for x in u1], [s * x for x in u2])
             for s in range(1, 7)]
    cases += [_degree_pair(rng) for _ in range(460)]
    kinds = {"no_decomposition": 0, "not_in_sum": 0}
    for g, a, b in cases:
        got = fiber_point_sum_exact(g, a, b)
        assert got == fiber_point_sum_exact_ref(g, a, b), (g, a, b)
        if got.witness:
            kinds[got.witness.kind] += 1
    assert sum(kinds.values()) >= 200 and min(kinds.values()) >= 50, kinds


def test_multiple_making_sums_sweep():
    g, u1, u2 = boundary_grading()
    rep = multiple_making_sums_exact(g, u1, u2, k_max=6, s_max=4)
    assert rep.verdict == "exhausted"
    assert rep.checked["failures"] == [
        [1, 2, [1, 0, 1, 1]], [2, 1, [1, 0, 1, 1]], [3, 1, [1, 1, 2, 1]],
        [4, 1, [1, 2, 3, 1]], [5, 1, [1, 3, 4, 1]], [6, 1, [1, 4, 5, 1]]]
    rep = multiple_making_sums_exact(g, (1, 3), (1, 3), k_max=3, s_max=4)
    assert rep.verdict == "verified_up_to"
    assert rep.checked == {"k": 1, "k_max": 3, "s_max": 4,
                           "all_scales": True}
    with pytest.raises(NormlocError):
        multiple_making_sums_exact(g, u1, u2, k_max=0, s_max=1)


def test_multiple_sweep_checks_each_multiple_once(monkeypatch):
    # steps depend on (k, s) only through m = s*k: the 6 x 4 sweep steps
    # (1, 1), (1, 2), then (k, 1) for k = 2..6, and (1, 2) and (2, 1) share
    # m = 2, so 7 steps take 6 location checks
    g, u1, u2 = boundary_grading()
    calls = []
    real = gitfan._first_unsplit
    monkeypatch.setattr(gitfan, "_first_unsplit",
                        lambda *args: calls.append(args) or real(*args))
    rep = multiple_making_sums_exact(g, u1, u2, k_max=6, s_max=4)
    failures = rep.checked["failures"]
    assert failures == [
        [1, 2, [1, 0, 1, 1]], [2, 1, [1, 0, 1, 1]], [3, 1, [1, 1, 2, 1]],
        [4, 1, [1, 2, 3, 1]], [5, 1, [1, 3, 4, 1]], [6, 1, [1, 4, 5, 1]]]
    steps = [(k, t) for k, s, _ in failures for t in range(1, s + 1)]
    assert len(steps) == 7
    assert len(calls) == len({k * t for k, t in steps}) == 6
    assert len(set(calls)) == 6


def _lifted(poly, plane):
    """A polygon mapped to the plane z = a x + b y + c."""
    a, b, c = plane
    return from_v(VRep(tuple((x, y, a * x + b * y + c)
                             for x, y in poly.v.vertices), ()))


def _sweep_fiber_case(rng):
    """A grading of 3 to 5 weights in Z^2 with a positive first entry (so
    every fiber is bounded) and two nonzero degrees in its semigroup."""
    while True:
        ws = [(rng.randint(1, 3), rng.randint(0, 3))
              for _ in range(rng.randint(3, 5))]
        try:
            g = graded_projection(ws)
        except NormlocError:
            continue
        u1, u2 = ([sum(c * w[j] for c, w in zip(coefs, ws)) for j in (0, 1)]
                  for coefs in ([rng.randint(0, 1) for _ in ws]
                                for _ in range(2)))
        if any(u1) and any(u2):
            return g, u1, u2


def _capped_sweep_cases(rng):
    """Seeded sweep inputs as (kind, args, (R, P, Q)), args the pair
    (Q1, Q2) or the fiber case (g, u1, u2), and R, P, Q the scan sets the
    sweep reads at m = 1.  Lattice pairs are vertex-split (R = Q1 + Q2);
    rational pairs and rational fibers never are."""
    pairs = []
    for _ in range(24):
        # refining pairs (Q2 + Q1, Q2), and unrelated ones, some of which
        # fail at every multiple (triangles in 2-d)
        d = rng.choice((2, 2, 3))
        bound, npoints = (4, 3) if d == 2 else (1, 5)
        q2 = random_polytope(rng, d, bound, npoints=npoints)
        q1 = random_polytope(rng, d, bound, npoints=npoints)
        pairs.append(("lattice", minkowski_sum(q2, q1)
                      if rng.random() < 0.25 else q1, q2))
    for _ in range(30):
        # (P, P) fails at m = 1 only
        p = reeve(rng.randint(2, 5))
        q = rng.choice((p, p, reeve(rng.randint(1, 5)),
                        from_v(VRep(tuple(rng.sample(p.v.vertices, 2)), ()))))
        pairs.append(("reeve", p, q))
    for _ in range(24):
        # a point (d = 0), parallel segments (d = 1), crossing segments or
        # polygons in one plane (d = 2), all in 3-space
        plane = tuple(rng.randint(-2, 2) for _ in range(3))
        shift = tuple(rng.randint(-2, 2) for _ in range(3))
        npoints = rng.choice((1, 2, 2, 4))
        q2 = random_polytope(rng, 2, 2, npoints=npoints, full_dim=False)
        if npoints == 2 and rng.random() < 0.5:
            q1 = translate(scale(q2, rng.randint(1, 2)), (1, 1))
        else:
            q1 = random_polytope(rng, 2, 2, npoints=npoints, full_dim=False)
        pairs.append(("flat", translate(_lifted(q1, plane), shift),
                      _lifted(q2, plane)))
    while sum(kind == "rational" for kind, _, _ in pairs) < 24:
        d = rng.choice((2, 2, 3))
        q2 = random_polytope(rng, d, 2, npoints=rng.randint(2, d + 1),
                            full_dim=False)
        den = rng.randint(2, 3)
        q2 = from_v(VRep(tuple(tuple(Fraction(x, den) for x in v)
                               for v in q2.v.vertices), ()))
        if q2.is_lattice():
            continue
        q1 = random_polytope(rng, d, 2 if d == 2 else 1)
        pairs.append(("rational", minkowski_sum(q2, q1)
                      if rng.random() < 0.5 else q1, q2))
    cases = [(kind, (q1, q2), (minkowski_sum(q1, q2), q1, q2))
             for kind, q1, q2 in pairs]
    found = {"rational fiber": 0, "split fiber": 0}
    while min(found.values()) < 24:
        g, u1, u2 = _sweep_fiber_case(rng)
        sets = gitfan._checked_pair(g, u1, u2)[2:]
        kind = ("split fiber" if split_dimension_ref(*sets) is not None
                else "rational fiber" if any(
                    a.denominator > 1 for x in sets for v in x.v.vertices
                    for a in v) else None)
        if kind and found[kind] < 24:
            found[kind] += 1
            cases.append((kind, (g, u1, u2), sets))
    return cases


def test_capped_sweeps_match_uncapped_references():
    # both sweeps scan s = 1..ceil(d / k) at most, and no level above a
    # located one >= d, when R is vertex-split; the references scan every
    # s <= s_max, here at least d + 2, so the cap cuts.  all_scales is
    # also checked where it turns, at k * s_max = d - 1 and d
    rng = random.Random(109)
    kinds, dims = {}, set()
    cut = mixed = 0
    for kind, args, sets in _capped_sweep_cases(rng):
        fn, ref = ((multiple_making_sums_exact, multiple_making_sums_exact_ref)
                   if kind.endswith("fiber") else
                   (located_multiple_search, located_multiple_search_ref))
        d = split_dimension_ref(*sets)
        assert (d is not None) == (kind in ("lattice", "reeve", "flat",
                                             "split fiber")), (kind, args)
        top = from_v(VRep(sets[0].v.vertices, ())).affine_dimension()
        k_max = rng.randint(1, 3)
        s_max = top + 2 + rng.randint(0, 1)
        got = fn(*args, k_max, s_max).to_dict()
        assert got == ref(*args, k_max, s_max).to_dict(), (kind, args)
        assert (gitfan._multiple_sweep(k_max, s_max, *sets)
                == multiple_sweep_ref(k_max, s_max, *sets)), (kind, args)
        if got["verdict"] == "verified_up_to":
            k = got["checked"]["k"]
            cut += d is not None and s_max > -(-d // k)
            mixed += kind == "reeve" and k > 1
        for bound in {max(top - 1, 1), max(top, 1)} if d else ():
            assert (fn(*args, 1, bound).to_dict()
                    == ref(*args, 1, bound).to_dict()), (kind, args, bound)
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "flat":
            dims.add(d)
    assert min(kinds.values()) >= 20 and len(kinds) == 6, kinds
    assert dims == {0, 1, 2} and cut >= 60 and mixed >= 10, (dims, cut,
                                                             mixed)


def test_capped_sweeps_scan_only_what_the_cap_needs(monkeypatch):
    # the multiples m each sweep scans, in order, with their answers: for a
    # vertex-split R of dimension d no step k scans s > ceil(d / k), and no
    # m at or above a located level m0 >= d scanned before it, yet every
    # step's levels up to its first failure are scanned or lie at or above
    # such an m0; any other R scans exactly the multiples of the full loop
    calls = []
    real = gitfan._first_unsplit

    def counted(*args):
        z = real(*args)
        calls.append((args[-1][0], z is None))
        return z

    monkeypatch.setattr(gitfan, "_first_unsplit", counted)
    rng = random.Random(113)
    saved = full = 0
    for kind, args, sets in _capped_sweep_cases(rng):
        fn = (multiple_making_sums_exact if kind.endswith("fiber")
              else located_multiple_search)
        d = split_dimension_ref(*sets)
        top = from_v(VRep(sets[0].v.vertices, ())).affine_dimension()
        k_max, s_max = rng.randint(1, 3), top + 2
        calls.clear()
        rep = fn(*args, k_max, s_max)
        scanned = [m for m, _ in calls]
        assert len(set(scanned)) == len(scanned), (kind, args)
        # each reached step k with the s it must reach: up to its failure,
        # and a positive answer's earlier failures from the sweep to k - 1
        failures = rep.checked.get("failures")
        if failures is None:
            k = rep.checked["k"]
            failures = (fn(*args, k - 1, s_max).checked["failures"]
                        if k > 1 else [])
            failures.append([k, s_max, None])
        steps = {k: s for k, s, _ in failures}
        loop = {k * s for k, top_s in steps.items()
                for s in range(1, top_s + 1)}
        full += len(loop)
        if d is None:
            assert sorted(scanned) == sorted(loop), (kind, args)
            continue
        assert all(any(m % k == 0 and m // k <= -(-d // k) for k in steps)
                   for m in scanned), (kind, args, d, calls)
        for i, (m0, ok) in enumerate(calls):
            if ok and m0 >= d:
                assert all(m < m0 for m, _ in calls[i + 1:]), \
                    (kind, args, d, calls)
        least = min((m for m, ok in calls if ok and m >= d), default=None)
        for k, top_s in steps.items():
            for s in range(1, min(top_s, -(-d // k)) + 1):
                assert (s * k in scanned
                        or least is not None and s * k >= least), \
                    (kind, args, d, k, s, calls)
        saved += len(loop) - len(scanned)
    # the full loops of these sweeps take at least 3 scans for every 2 the
    # caps take
    assert 2 * full >= 3 * (full - saved), (saved, full)


def test_multiple_making_sums_matches_fiber_point_sum_sweep():
    # the three fibers at the multiple s*k against one fiber_point_sum_exact
    # per (k, s): 160 seeded four-weight gradings in Z^2 and the boundary
    # grading's full 6 x 4 sweep
    rng = random.Random(79)
    g, u1, u2 = boundary_grading()
    cases = [(g, u1, u2, 6, 4)]
    cases += [_degree_pair(rng) + (rng.randint(1, 3), rng.randint(1, 3))
              for _ in range(160)]
    verdicts = {"verified_up_to": 0, "exhausted": 0}
    for case in cases:
        got = multiple_making_sums_exact(*case).to_dict()
        assert got == multiple_making_sums_exact_ref(*case).to_dict(), case
        verdicts[got["verdict"]] += 1
    assert min(verdicts.values()) >= 30, verdicts


def _cold_caches():
    for mod in (exact, fans, gitfan, latpoints, polyhedra):
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


def test_sweeps_run_no_dd_pass_per_multiple(monkeypatch):
    # with every cache cold, multiple_making_sums_exact runs one H-to-V
    # pass per distinct degree among u1, u2 and u1 + u2, and
    # located_multiple_search only the passes that build Q1 + Q2, whatever
    # k_max * s_max is: the sets at each multiple are scan sets of rows
    # known a priori, and bounded summands split over their vertex boxes
    calls = []
    plain = dd.generators_from_constraints
    monkeypatch.setattr(dd, "generators_from_constraints",
                        lambda *args: calls.append(args[0]) or plain(*args))
    rng = random.Random(83)
    g, u1, u2 = boundary_grading()
    cases = [(g, u1, u2, k, s) for k, s in ((1, 1), (2, 3), (6, 4))]
    cases += [(g, (2, 6), (1, 3), 2, 2), (g, (3, 3), (3, 3), 2, 3)]
    cases += [_degree_pair(rng) + (rng.randint(2, 3), rng.randint(2, 3))
              for _ in range(20)]
    for g, a, b, k_max, s_max in cases:
        a, b = tuple(a), tuple(b)
        degrees = {a, b, tuple(x + y for x, y in zip(a, b))}
        _cold_caches()
        calls.clear()
        multiple_making_sums_exact(g, a, b, k_max, s_max)
        assert len(calls) == len(degrees), (g, a, b, k_max, s_max)
    pairs = []
    for d, bound in ((2, 3), (2, 3), (3, 1)):
        for _ in range(3):
            q2 = random_polytope(rng, d, bound)
            pairs.append((minkowski_sum(q2, random_polytope(rng, d, bound)),
                          q2))
            pairs.append((random_polytope(rng, d, bound), q2))
    seg = from_v(VRep(((0, 1), (2, 0)), ()))
    pairs.append((seg, scale(seg, 2)))
    for q1, q2 in pairs:
        _cold_caches()
        calls.clear()
        gitfan._refining_sum(q1, q2)
        want = len(calls)
        for k_max, s_max in ((1, 1), (2, 2), (3, 2)):
            _cold_caches()
            calls.clear()
            located_multiple_search(q1, q2, k_max, s_max)
            assert len(calls) == want, (q1, q2, k_max, s_max)


def _pair_readers(g, u1, u2):
    """The degree-pair readers on (u1, u2), each a thunk."""
    return [lambda: fiber_sum_exact(g, u1, u2),
            lambda: fiber_point_sum_exact(g, u1, u2, ((0,) * g.n,
                                                      (2,) * g.n)),
            lambda: multiple_making_sums_exact(g, u1, u2, 2, 2),
            lambda: is_generating_candidate(g, u1, u2)]


def test_each_reader_builds_each_degree_once(monkeypatch):
    # each reader call runs one fiber H-to-V pass (the orthant rows and
    # A x = u, nothing more) per distinct degree it reads: u1 == u2 and a
    # zero degree share a pass; realize_pair and refinement_iff_interior
    # run none, as they lift their fibers off the pair
    passes = []
    plain = gitfan._h_to_v

    def counted(d, h):
        if len(h.inequalities) == d:
            passes.append(tuple(b for _, b in h.equalities))
        return plain(d, h)

    monkeypatch.setattr(gitfan, "_h_to_v", counted)
    rng = random.Random(101)
    cases = []
    for _ in range(6):
        g, u1, u2 = _degree_pair(rng)
        u1, u2 = tuple(u1), tuple(u2)
        u12 = tuple(a + b for a, b in zip(u1, u2))
        zero = (0,) * g.m
        cases += [(f, {u}) for u in (u1, u12)
                  for f in (lambda g=g, u=u: fiber(g, u),
                            lambda g=g, u=u: git_cone(g, u))]
        for a, b in ((u1, u2), (u1, u1), (u1, zero), (zero, u2)):
            degrees = {a, b, tuple(x + y for x, y in zip(a, b))}
            cases += [(f, degrees) for f in _pair_readers(g, a, b)]
    for _ in range(8):
        q2 = random_polytope(rng, 2, 4)
        q1 = minkowski_sum(random_polytope(rng, 2, 4), q2)
        for a, b in ((q1, q2), (q2, q2)):
            rp = realize_pair(a, b)
            degrees = {rp.u1, rp.u2, tuple(x + y for x, y
                                           in zip(rp.u1, rp.u2))}
            assert len(degrees) == 3 - (a is b), (a, b)
            cases += [(lambda a=a, b=b, f=f: f(a, b), set())
                      for f in (realize_pair, refinement_iff_interior)]
    for call, degrees in cases:
        passes.clear()
        try:
            call()
        except Unbounded:
            pass
        assert sorted(passes) == sorted(degrees), (passes, degrees)
    # the entries of one grading have the orthant rows -e_i and share its
    # matrix rows
    g, u1, u2 = boundary_grading()
    assert g.matrix is g.matrix
    a, b = (gitfan._fiber_entry(g, u) for u in (u1, u2))
    orthant = tuple((tuple(-int(i == j) for j in range(g.n)), 0)
                    for i in range(g.n))
    assert a.h.inequalities == b.h.inequalities == orthant
    assert all(x is y is row for (x, _), (y, _), row
               in zip(a.h.equalities, b.h.equalities, g.matrix))


def test_readers_raise_outside_the_weight_cone_exactly():
    # WeightOutsideCone exactly when u1 or u2 lies outside the weight cone,
    # decided on the cone's facets, which share no code with the fiber
    # emptiness check; the message names u1 when both lie outside
    rng = random.Random(103)
    seen = {}
    for _ in range(90):
        g = _random_grading(rng)
        wc = weight_cone(g)
        for _ in range(3):
            u1, u2 = (tuple(rng.randint(-3, 3) for _ in range(g.m))
                      for _ in range(2))
            out = tuple(not wc.contains_point(u) for u in (u1, u2))
            seen[out] = seen.get(out, 0) + 1
            outside = [u for u, o in zip((u1, u2), out) if o]
            readers = [(f, outside) for f in _pair_readers(g, u1, u2)]
            for u, o in zip((u1, u2), out):
                readers += [(lambda u=u: fiber(g, u), [u] if o else []),
                            (lambda u=u: git_cone(g, u), [u] if o else [])]
            for call, bad in readers:
                try:
                    call()
                except WeightOutsideCone as exc:
                    assert bad and str(exc) == (f"degree {bad[0]} lies "
                                                "outside the weight cone")
                except Unbounded:
                    assert not bad
                else:
                    assert not bad, (g, u1, u2)
    assert min(seen.values()) >= 20 and len(seen) == 4, seen
    # realize_pair makes its own degrees, always inside the weight cone
    for _ in range(6):
        rp = realize_pair(random_polytope(rng, 2, 3),
                          random_polytope(rng, 2, 3))
        wc = weight_cone(rp.projection)
        assert wc.contains_point(rp.u1) and wc.contains_point(rp.u2)


def test_readers_check_degrees_in_order():
    # every fiber reader checks and builds u1 before it reads u2: u1
    # outside the weight cone is named even when u2 has the wrong length,
    # u1 of the wrong length raises DimensionMismatch whatever u2 is, and
    # an entry that is no integer is rejected as such in either degree
    rng = random.Random(139)
    graded = 0
    while graded < 12:
        g = _random_grading(rng)
        wc = weight_cone(g)
        pts = [tuple(rng.randint(-3, 3) for _ in range(g.m))
               for _ in range(8)]
        out = [u for u in pts if not wc.contains_point(u)]
        ins = [u for u in pts if wc.contains_point(u)]
        if not (out and ins):
            continue
        graded += 1
        o, i = out[0], ins[0]
        wrong = [i[:-1], i + (0,)]

        def bad(entry):
            j = rng.randrange(g.m)
            return i[:j] + (entry,) + i[j + 1:]

        outside = (WeightOutsideCone, f"degree {o} lies outside the weight "
                                      "cone")
        cases = []
        for f in (fiber, git_cone):
            cases.append((lambda f=f: f(g, o), outside))
        for w in wrong:
            length = (DimensionMismatch, f"degree has length {len(w)}, "
                                         f"grading maps onto Z^{g.m}")
            for f in (fiber, git_cone):
                cases.append((lambda f=f, w=w: f(g, w), length))
            cases += [(f, outside) for f in _pair_readers(g, o, w)]
            cases += [(f, length) for f in _pair_readers(g, i, w)]
            for u2 in (o, i, w, wrong[0], bad(0.5)):
                cases += [(f, length) for f in _pair_readers(g, w, u2)]
        for entry in (0.5, "1/2", True):
            entry_error = (NormlocError, f"not an integer: {entry!r}")
            b = bad(entry)
            for f in (fiber, git_cone):
                cases.append((lambda f=f, b=b: f(g, b), entry_error))
            for u2 in (o, i, wrong[0]):
                cases += [(f, entry_error) for f in _pair_readers(g, b, u2)]
            cases += [(f, entry_error) for f in _pair_readers(g, i, b)]
        for call, (err, msg) in cases:
            with pytest.raises(NormlocError) as exc:
                call()
            assert (type(exc.value), str(exc.value)) == (err, msg), g


def _outcome(fn, *args):
    try:
        return fn(*args).to_dict()
    except NormlocError as exc:
        return type(exc)


def _face_degree_case(rng):
    """A grading whose weight cone has the face {x_m = 0} (weights on it and
    off it, all in the nonnegative orthant, a zero weight now and then),
    mapped by a random unimodular matrix, and two degrees: the first on
    the face, the second on it three times in four.  Fibers over the face
    have x_i = 0 for every weight off it."""
    while True:
        m = rng.choice((2, 3))
        on = [tuple(rng.randint(0, 3) for _ in range(m - 1)) + (0,)
              for _ in range(rng.randint(1, 2 if m == 2 else 3))]
        off = [tuple(rng.randint(0, 2) for _ in range(m - 1))
               + (rng.randint(1, 2),) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.15:
            off.append((0,) * m)
        ws = on + off
        rng.shuffle(ws)
        unimodular = [list(e) for e in exact.identity_matrix(m)]
        for _ in range(3):
            i, j = rng.sample(range(m), 2)
            c = rng.randint(-1, 1)
            unimodular[i] = [a + c * b for a, b in
                             zip(unimodular[i], unimodular[j])]
        try:
            g = graded_projection(
                [tuple(sum(a * x for a, x in zip(row, w))
                       for row in unimodular) for w in ws])
        except NormlocError:
            continue
        on_face = [g.weights[ws.index(w)] for w in on]
        if not any(any(w) for w in on_face):
            continue
        u1, u2 = (tuple(sum(c * w[j] for c, w in coefs)
                        for j in range(m))
                  for coefs in ([(rng.randint(0, 2), w) for w in pick]
                                for pick in (on_face,
                                             on_face if rng.random() < 0.75
                                             else g.weights)))
        if any(u1) and any(u2):
            return g, u1, u2


def test_fiber_sweeps_match_reference_on_face_degrees():
    # the fiber scan sets keep the frame of ker A, which is larger than
    # aff(P(u)) where some x_i = 0 holds on P(u): the sweep, the point sum
    # (with and without windows) and the public fiber records agree with
    # the references on degrees in a face of the weight cone
    rng = random.Random(89)
    implied = rays = windowed = 0
    verdicts = {"verified_up_to": 0, "exhausted": 0}
    for _ in range(120):
        g, u1, u2 = _face_degree_case(rng)
        u12 = tuple(a + b for a, b in zip(u1, u2))
        for u in (u1, u2, u12, tuple(2 * x for x in u12)):
            got = fiber(g, u)
            assert got == fiber_from_h_ref(g, u), (g, u)
        top = fiber(g, u12)
        implied += top.affine_dimension() < g.n - g.m
        rays += bool(top.v.rays)
        k_max, s_max = rng.randint(1, 2), rng.randint(1, 3)
        got = _outcome(multiple_making_sums_exact, g, u1, u2, k_max, s_max)
        assert got == _outcome(multiple_making_sums_exact_ref, g, u1, u2,
                               k_max, s_max), (g, u1, u2, k_max, s_max)
        if isinstance(got, dict):
            verdicts[got["verdict"]] += 1
        else:
            assert got is Unbounded and top.v.rays
        assert _outcome(fiber_point_sum_exact, g, u1, u2) == \
            _outcome(fiber_point_sum_exact_ref, g, u1, u2), (g, u1, u2)
        for _ in range(2):
            lo = tuple(rng.randint(-1, 1) for _ in range(g.n))
            window = lo, tuple(x + rng.randint(0, 3) for x in lo)
            got = fiber_point_sum_exact(g, u1, u2, window)
            assert got == fiber_point_sum_exact_ref(g, u1, u2, window), \
                (g, u1, u2, window)
            windowed += got.verdict != "located"
    assert implied >= 30 and rays >= 5 and windowed >= 30, \
        (implied, rays, windowed)
    assert min(verdicts.values()) >= 5, verdicts


def test_located_multiple_search_on_flat_and_rational_summands():
    # scan sets of flat summands carry their canonical equalities scaled
    # by m, and rational ones Fraction rows: the sweep agrees with fresh
    # normally_located checks of scaled records, and scale still returns
    # the record from_v gives
    rng = random.Random(91)
    kinds = {"flat": 0, "rational": 0}
    verdicts = {"verified_up_to": 0, "exhausted": 0}
    for _ in range(40):
        d = rng.choice((2, 3))
        q2 = random_polytope(rng, d, 2, npoints=rng.randint(2, d + 1),
                             full_dim=False)
        r = random_polytope(rng, d, 2, npoints=rng.randint(2, d + 2),
                            full_dim=False)
        if rng.random() < 0.5:
            den = rng.randint(2, 3)
            q2 = from_v(VRep(tuple(tuple(Fraction(x, den) for x in v)
                                   for v in q2.v.vertices), ()))
        q1 = minkowski_sum(q2, r) if rng.random() < 0.5 else r
        kinds["flat"] += min(q1.affine_dimension(),
                             q2.affine_dimension()) < d
        kinds["rational"] += not q2.is_lattice()
        k_max, s_max = rng.randint(1, 2), rng.randint(1, 3)
        got = _outcome(located_multiple_search, q1, q2, k_max, s_max)
        assert got == _outcome(located_multiple_search_ref, q1, q2, k_max,
                               s_max), (q1, q2, k_max, s_max)
        verdicts[got["verdict"]] += 1
        for m in (2, 3):
            assert scale(q2, m) == scale_ref(q2, m)
    assert min(kinds.values()) >= 10, kinds
    assert min(verdicts.values()) >= 5, verdicts


def test_is_generating_candidate_trichotomy():
    g, u1, u2 = boundary_grading()
    assert is_generating_candidate(g, (3, 3), (3, 3)) == \
        "generating_by_theorem"
    assert is_generating_candidate(g, (4, 1), (1, 3)) == \
        "not_generating_by_theorem"
    assert is_generating_candidate(g, u1, u2) == "indeterminate_boundary"


def test_git_cone_matches_cone_oracle():
    rng = random.Random(71)
    checked = 0
    while checked < 240:
        m = rng.choice((2, 2, 3))
        ws = [tuple(rng.randint(0, 3) for _ in range(m))
              for _ in range(rng.randint(m, m + 3))]
        try:
            g = graded_projection(ws)
        except NormlocError:
            continue
        for _ in range(12):
            cs = [rng.randint(0, 2) for _ in ws]
            u = tuple(sum(c * w[j] for c, w in zip(cs, ws))
                      for j in range(m))
            # and the multiples 2u, 3u of each degree
            for c in (1, 2, 3):
                cu = tuple(c * x for x in u)
                assert repr(git_cone(g, cu)) == repr(git_cone_ref(g, cu))
            checked += 1
        zero = git_cone(g, (0,) * m)
        assert zero.rays == zero.lines == zero.ineq_normals == ()
        assert zero.eq_normals == tuple(tuple(int(i == j) for j in range(m))
                                        for i in range(m))
        assert repr(zero) == repr(git_cone_ref(g, (0,) * m))
    # the wide gradings of realized refining pairs (Q1 = Q2 + R)
    widths = set()
    for _ in range(6):
        q2 = random_polytope(rng, 2, 5, 5)
        q1 = minkowski_sum(random_polytope(rng, 2, 5, 5), q2)
        rp = realize_pair(q1, q2)
        g = rp.projection
        widths.add(g.m)
        for u in (rp.u1, rp.u2, tuple(a + b for a, b in zip(rp.u1, rp.u2))):
            assert repr(git_cone(g, u)) == repr(git_cone_ref(g, u))
    assert max(widths) >= 7, widths


def test_realize_pair_segments():
    seg1 = from_v(VRep(((0,), (1,)), ()))
    seg2 = from_v(VRep(((0,), (2,)), ()))
    rp = realize_pair(seg1, seg2)
    assert rp.functionals == ((1,), (-1,))
    assert rp.translation == (1,)
    assert rp.u1 == (2, -1) and rp.u2 == (3, -1)
    assert rp.projection.weights == ((1, -1), (1, 0), (0, 1))
    d = rp.to_dict()
    assert d["u1"] == [2, -1]


def _realize_cases(rng, rounds):
    """Per round and dimension 1-3: a bounded pair, a refining pair
    (Q1 = Q2 + R) and a pair with a common tail, each summand moved by its
    own offset so that the shift varies."""
    pairs = []
    for _ in range(rounds):
        for d, bound in ((1, 5), (2, 3), (3, 2)):
            def poly(tail=(), d=d, bound=bound):
                off = [rng.randint(-2, 2) for _ in range(d)]
                verts = random_polytope(rng, d, bound).v.vertices
                return from_v(VRep(tuple(tuple(x + o for x, o in zip(v, off))
                                         for v in verts), tail))
            q2 = poly()
            pairs += [(poly(), q2), (minkowski_sum(poly(), q2), q2)]
            tail = rng.choice(TAILS[d])
            pairs.append((poly(tail), poly(tail)))
    return pairs


def test_realize_pair_round_trips_through_fibers():
    # the fibers over u1, u2 and u1 + u2, each built by a fresh from_h and
    # cut to the first d coordinates, have exactly the vertex and ray
    # lists of Q1', Q2' and their sum, and P(u1)'s vertices are the ones
    # the realization lifts from Q1' without building a fiber
    rng = random.Random(67)
    pairs = _realize_cases(rng, 7)
    for q1, q2 in pairs:
        rp = realize_pair(q1, q2)
        d, g = q1.dim, rp.projection
        u12 = tuple(a + b for a, b in zip(rp.u1, rp.u2))
        for u, target in ((rp.u1, rp.q1), (rp.u2, rp.q2),
                          (u12, minkowski_sum(rp.q1, rp.q2))):
            f = fiber_from_h_ref(g, u)
            assert tuple(v[:d] for v in f.v.vertices) == target.v.vertices
            assert tuple(r[:d] for r in f.v.rays) == target.v.rays
        lifted = gitfan._realize(q1, q2)[2]
        assert tuple(lifted) == fiber_from_h_ref(g, rp.u1).v.vertices
        # the functional values are the maxima over the shifted Q1
        t1 = translate(q1, rp.translation)
        for f, val in zip(rp.functionals, rp.u1):
            assert max(sum(a * b for a, b in zip(f, v))
                       for v in t1.v.vertices) == val
    assert len(pairs) >= 60
    assert sum(bool(q.v.rays) for q, _ in pairs) >= 15
    assert sum(q.dim == 3 for q, _ in pairs) >= 10


def test_realize_readers_run_no_fiber_pass(monkeypatch):
    # with the fiber passes patched to raise, realize_pair and
    # refinement_iff_interior answer as the reference does, whose GIT side
    # reads a fiber built before the patch: both lift P(u1) off Q1'
    def no_fiber(*args):
        raise AssertionError(f"fiber pass {args!r}")

    rng = random.Random(131)
    pairs = _realize_cases(rng, 4)
    want = [(repr(realize_pair(q1, q2)),
             repr(refinement_iff_interior_ref(q1, q2))) for q1, q2 in pairs]
    monkeypatch.setattr(gitfan, "_h_to_v", no_fiber)
    monkeypatch.setattr(gitfan, "_fiber_entry", no_fiber)
    got = [(repr(realize_pair(q1, q2)), repr(refinement_iff_interior(q1, q2)))
           for q1, q2 in pairs]
    assert got == want
    assert sum(refinement_iff_interior(q1, q2).refines_normal_fans
               for q1, q2 in pairs) >= 12


def test_realize_readers_run_no_hermite_form(monkeypatch):
    # the weights (F | I) span Z^m through their identity block, so the
    # realization builds its grading without a Hermite form; the validated
    # constructor, run outside the patch, accepts the same grading
    def no_hnf(*args):
        raise AssertionError(f"Hermite form {args!r}")

    rng = random.Random(149)
    pairs = _realize_cases(rng, 2)
    want = [(realize_pair(q1, q2), refinement_iff_interior(q1, q2))
            for q1, q2 in pairs]
    for rp, _ in want:
        assert graded_projection(rp.projection.weights) == rp.projection
    with monkeypatch.context() as patch:
        patch.setattr(gitfan, "hermite_normal_form", no_hnf)
        got = [(realize_pair(q1, q2), refinement_iff_interior(q1, q2))
               for q1, q2 in pairs]
    assert got == want


def test_realize_pair_rejects_a_sum_its_fibers_miss(monkeypatch):
    # planted wrong sums, each caught by RealizationError in both readers:
    # (a) 2 Q1' where N(Q1) does not refine N(Q2), whose facets miss a
    # facet normal of Q2'; (b) Q1' + Q2' moved by a nonzero lattice vector,
    # with the right facet normals but the wrong right-hand sides
    plain = gitfan._refining_sum
    rng = random.Random(137)
    coarse = []
    while len(coarse) < 8:
        q1, q2 = (random_polytope(rng, 2, 3) for _ in range(2))
        if not normal_fan_refines(q1, q2):
            coarse.append((q1, q2))
    for q1, q2 in coarse:
        normals = {n for n, _ in q1.h.inequalities}
        assert any(n not in normals for n, _ in q2.h.inequalities)
    monkeypatch.setattr(gitfan, "_refining_sum",
                        lambda a, b: (scale(a, 2), False))
    for q1, q2 in coarse:
        for reader in (realize_pair, refinement_iff_interior):
            with pytest.raises(RealizationError, match="does not project"):
                reader(q1, q2)
    pairs = _realize_cases(rng, 2)
    for q1, q2 in pairs:
        t = [0] * q1.dim
        while not any(t):
            t = [rng.randint(-2, 2) for _ in t]
        monkeypatch.setattr(gitfan, "_refining_sum", lambda a, b, t=t: (
            translate(plain(a, b)[0], t), plain(a, b)[1]))
        for reader in (realize_pair, refinement_iff_interior):
            with pytest.raises(RealizationError, match="does not project"):
                reader(q1, q2)


def test_realize_pair_functionals_are_the_refined_fan_rays():
    # the functionals are read off the facets of Q1' + Q2'; the reference
    # takes the rays of N(Q1') ^ N(Q2') on bounded 2-d and 3-d pairs
    # (unrelated and refining) and on 2-d pairs with a common tail
    rng = random.Random(97)
    pairs = []
    for _ in range(10):
        q2 = random_polytope(rng, 2, 4)
        pairs.append((random_polytope(rng, 2, 4), q2))
        pairs.append((minkowski_sum(random_polytope(rng, 2, 2), q2), q2))
    for _ in range(8):
        pairs.append((random_polytope(rng, 3, 2), random_polytope(rng, 3, 2)))
    for _ in range(12):
        tail = rng.choice(TAILS[2])
        pairs.append(tuple(from_v(VRep(random_polytope(rng, 2, 3).v.vertices,
                                       tail)) for _ in range(2)))
    assert len(pairs) >= 40
    rays = 0
    for q1, q2 in pairs:
        rp = realize_pair(q1, q2)
        refined = common_refinement(normal_fan(rp.q1), normal_fan(rp.q2))
        assert rp.functionals == tuple(sorted(
            {r for c in refined.maximal_cones for r in c.rays},
            reverse=True)), (q1, q2)
        rays += bool(rp.q1.v.rays)
    assert rays == 12


def test_pair_readers_build_no_normal_fan(monkeypatch):
    # realize_pair, located_multiple_search and both sides of
    # refinement_iff_interior read Minkowski sums and GIT cones only
    assert not hasattr(gitfan, "normal_fan")
    calls = []
    plain = fans.normal_fan

    def counted(q):
        calls.append(q.dim)
        return plain(q)

    monkeypatch.setattr(fans, "normal_fan", counted)
    sq = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
    tri = from_v(VRep(((0, 0), (1, 0), (0, 1)), ()))
    quad = from_v(VRep(((0, 0),), ((1, 0), (0, 1))))
    realize_pair(sq, tri)
    realize_pair(translate(quad, (1, 0)), quad)
    located_multiple_search(tri, sq, k_max=1, s_max=2)
    located_multiple_search(minkowski_sum(sq, tri), tri, k_max=1, s_max=1)
    with pytest.raises(SupportMismatch):
        located_multiple_search(tri, quad, k_max=1, s_max=1)
    refinement_iff_interior(sq, tri)
    refinement_iff_interior(minkowski_sum(sq, tri), tri)
    assert calls == []


def test_pair_readers_rebuild_nothing(monkeypatch):
    # with every cache cold: realize_pair and refinement_iff_interior build
    # the shifted sum once and no other polyhedron from vertices, bounded
    # location checks and sweeps take no vertex box, and git_fan sorts its
    # chambers without the containment filter of fan_from_cones
    for mod in (exact, gitfan, latpoints):
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()
    calls = []

    def count(name, plain):
        def counted(*args):
            calls.append(name)
            return plain(*args)
        for mod in (polyhedra, fans, latpoints, gitfan):
            if getattr(mod, name, None) is plain:
                monkeypatch.setattr(mod, name, counted)

    for name in ("minkowski_sum", "from_v"):
        count(name, getattr(polyhedra, name))
    count("vertex_box", polyhedra.vertex_box)
    count("fan_from_cones", fans.fan_from_cones)
    rng = random.Random(97)
    seg = from_v(VRep(((0,), (1,)), ()))
    quad = from_v(VRep(((0, 0),), ((1, 0), (0, 1))))
    pairs = [(seg, scale(seg, 2)), (translate(quad, (1, 0)), quad)]
    for d, bound in ((2, 3), (2, 3), (3, 1)):
        q2 = random_polytope(rng, d, bound)
        pairs.append((minkowski_sum(q2, random_polytope(rng, d, bound)), q2))
        pairs.append((random_polytope(rng, d, bound), q2))
    for q1, q2 in pairs:
        for reader in (realize_pair, refinement_iff_interior):
            calls.clear()
            reader(q1, q2)
            assert calls == ["minkowski_sum", "from_v"], (reader, q1, q2)
    calls.clear()
    g, u1, u2 = boundary_grading()
    for q1, q2 in pairs[2:]:
        normally_located(q1, q2)
        located_multiple_search(q1, q2, 1, 2)
    is_normal(pairs[2][0], 3)
    multiple_making_sums_exact(g, u1, u2, 2, 2)
    assert "vertex_box" not in calls
    grads = [g] + [_random_grading(rng) for _ in range(20)]
    fans_got = [git_fan(h).to_dict() for h in grads]
    assert "fan_from_cones" not in calls
    assert fans_got == [git_fan_ref(h) for h in grads]


def test_realize_pair_reads_the_tail_off_the_rays():
    # redundant generators of the same quadrant are dropped by from_v
    q1 = from_v(VRep(((0, 1), (1, 0)), ((1, 0), (0, 1), (1, 1))))
    q2 = from_v(VRep(((0, 0),), ((0, 1), (1, 0))))
    rp = realize_pair(q1, q2)
    assert rp.q1.v.rays == rp.q2.v.rays == ((0, 1), (1, 0))
    q3 = from_v(VRep(((0, 0),), ((1, 0), (1, 1))))
    with pytest.raises(TailConeMismatch):
        realize_pair(q1, q3)


def test_realize_pair_preconditions():
    seg = from_v(VRep(((0,), (1,)), ()))
    sq = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
    with pytest.raises(DimensionMismatch):
        realize_pair(seg, sq)
    frac = from_v(VRep(((Fraction(1, 2),), (1,)), ()))
    with pytest.raises(NotLattice):
        realize_pair(frac, seg)
    flat = from_v(VRep(((0, 0), (1, 0)), ()))
    with pytest.raises(NotFullDimensional):
        realize_pair(flat, sq)
    ray = from_v(VRep(((0,),), ((1,),)))
    with pytest.raises(TailConeMismatch):
        realize_pair(ray, seg)
    neg = from_v(VRep(((0,),), ((-1,),)))
    with pytest.raises(TailConeMismatch):
        realize_pair(neg, neg)


def test_refinement_iff_interior_agreement():
    seg1 = from_v(VRep(((0,), (1,)), ()))
    seg2 = from_v(VRep(((0,), (2,)), ()))
    cc = refinement_iff_interior(seg1, seg2)
    assert cc.refines_normal_fans and cc.interior_of_common_git_cone
    assert cc.agree
    sq = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
    tri = from_v(VRep(((0, 0), (1, 0), (0, 1)), ()))
    both = minkowski_sum(sq, tri)
    cc = refinement_iff_interior(both, tri)
    assert cc.refines_normal_fans and cc.agree
    cc = refinement_iff_interior(tri, sq)
    assert not cc.refines_normal_fans and cc.agree
    d = cc.to_dict()
    assert d["agree"] is True and "pair" in d


def test_refinement_iff_interior_random_pairs():
    rng = random.Random(71)
    for _ in range(12):
        q1 = random_polytope(rng, 2, 3)
        q2 = random_polytope(rng, 2, 3)
        assert refinement_iff_interior(q1, q2).agree
        # sums refine their summands, exercising the positive branch
        assert refinement_iff_interior(minkowski_sum(q1, q2), q2).agree


def _refine_outcome(decide, q1, q2):
    try:
        return decide(q1, q2)
    except NormlocError as exc:
        return type(exc), str(exc)


def test_normal_fan_refines_matches_both_normal_fans():
    # vertex counts against refines(normal_fan(q1), normal_fan(q2)) on
    # bounded pairs in 1-3 dimensions (refining Q1 = Q2 + R and unrelated),
    # flat pairs, pairs with a common tail, with different tails, and
    # pairs in different dimensions
    rng = random.Random(131)
    tails = (((1, 0),), ((0, 1),), ((1, 1),), ((1, 0), (0, 1)),
             ((1, 0), (1, 2)), ((-1, 1),), ((0, 1), (3, 1)))
    kinds = []
    for _ in range(60):
        d = rng.choice((1, 2, 2, 3))
        q2 = random_polytope(rng, d, 3, full_dim=False)
        r = random_polytope(rng, d, 2, full_dim=False)
        kinds.append(("sum", minkowski_sum(q2, r), q2))
        kinds.append(("bounded", random_polytope(rng, d, 3, full_dim=False),
                      q2))
    for _ in range(50):
        d = rng.choice((2, 3))
        flat = [random_polytope(rng, d, 3, npoints=rng.randint(1, d),
                                full_dim=False) for _ in range(2)]
        kinds.append(("flat", *flat))
        kinds.append(("flat", minkowski_sum(*flat), flat[1]))
    for _ in range(40):
        tail = rng.choice(tails)
        q1, q2 = (from_v(VRep(random_polytope(rng, 2, 3).v.vertices, tail))
                  for _ in range(2))
        kinds.append(("tail", q1, q2))
        kinds.append(("tail", minkowski_sum(q1, q2), q2))
    for _ in range(25):
        t1, t2 = rng.sample(tails, 2)
        kinds.append(("tails", *(from_v(VRep(random_polytope(rng, 2, 3)
                                             .v.vertices, t))
                                 for t in (t1, t2))))
        d1, d2 = rng.sample((1, 2, 3), 2)
        kinds.append(("dims", random_polytope(rng, d1, 2),
                      random_polytope(rng, d2, 2)))
    seen = {}
    for kind, q1, q2 in kinds:
        got = _refine_outcome(normal_fan_refines, q1, q2)
        want = _refine_outcome(lambda a, b: refines(normal_fan(a),
                                                    normal_fan(b)), q1, q2)
        assert got == want, (kind, q1, q2)
        seen.setdefault(kind, set()).add(got if isinstance(got, bool)
                                         else got[0])
    assert len(kinds) >= 300
    both = {False, True}
    assert seen == {"sum": {True}, "bounded": both, "flat": both,
                    "tail": both, "tails": {SupportMismatch},
                    "dims": {SupportMismatch}}


def test_refinement_iff_interior_matches_normal_fan_copy():
    rng = random.Random(137)
    tails = (((1, 0),), ((0, 1),), ((1, 1),), ((1, 0), (0, 1)))
    pairs = []
    for _ in range(10):
        q1, q2 = random_polytope(rng, 2, 3), random_polytope(rng, 2, 3)
        pairs += [(q1, q2), (minkowski_sum(q1, q2), q2)]
    for _ in range(4):
        q1, q2 = random_polytope(rng, 3, 2), random_polytope(rng, 3, 2)
        pairs += [(q1, q2), (minkowski_sum(q1, q2), q2)]
    for _ in range(6):
        tail = rng.choice(TAILS[2])
        pairs.append(tuple(from_v(VRep(random_polytope(rng, 2, 3).v.vertices,
                                       tail)) for _ in range(2)))
    refining = set()
    for q1, q2 in pairs:
        got = refinement_iff_interior(q1, q2).to_dict()
        assert got == refinement_iff_interior_ref(q1, q2).to_dict(), (q1, q2)
        assert got["agree"]
        refining.add(got["refines_normal_fans"])
    assert refining == {False, True}


def test_located_multiple_search():
    tri = from_v(VRep(((0, 0), (1, 0), (0, 1)), ()))
    rep = located_multiple_search(tri, tri, k_max=2, s_max=3)
    assert rep.verdict == "verified_up_to"
    assert rep.checked["k"] == 1
    assert rep.checked["refines"]
    # N(tri) does not refine N(sq); the sweep still runs and reports it
    sq = from_v(VRep(((0, 0), (1, 0), (0, 1), (1, 1)), ()))
    rep = located_multiple_search(tri, sq, k_max=1, s_max=2)
    assert rep.verdict == "verified_up_to"
    assert rep.checked == {"k": 1, "k_max": 1, "s_max": 2,
                           "all_scales": True, "refines": False}
    quad = from_v(VRep(((0, 0),), ((1, 0), (0, 1))))
    with pytest.raises(SupportMismatch):
        located_multiple_search(tri, quad, k_max=1, s_max=1)


def test_located_multiple_search_k_sweep():
    # identical copies refine trivially; k = 1 hits the normality failure of
    # the simplex itself, while k = 2 doubles it into a normal polytope
    reeve = from_v(VRep(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)), ()))
    rep = located_multiple_search(reeve, reeve, k_max=2, s_max=2)
    assert rep.verdict == "verified_up_to"
    assert rep.checked == {"k": 2, "k_max": 2, "s_max": 2,
                           "all_scales": True, "refines": True}
    rep = located_multiple_search(reeve, reeve, k_max=1, s_max=1)
    assert rep.verdict == "exhausted"
    assert rep.checked["failures"] == [[1, 1, [1, 1, 1]]]
    # the headline triangles refine in neither direction; the sweep finds
    # the paper's witness at k = 1
    p, q = triangle_pair()
    assert not refines(normal_fan(p), normal_fan(q))
    assert not refines(normal_fan(q), normal_fan(p))
    rep = located_multiple_search(p, q, k_max=1, s_max=1)
    assert rep.verdict == "exhausted"
    assert rep.checked == {"k_max": 1, "s_max": 1,
                           "failures": [[1, 1, [1, 383]]], "refines": False}


def test_located_multiple_search_matches_reference():
    # refining pairs Q1 = Q2 + R, unrelated pairs, crossing lattice segments
    # (never located at any multiple: exhausted), Reeve pairs, and a pair
    # with rays, on which both raise Unbounded
    rng = random.Random(67)
    pairs = []
    for _ in range(12):
        q2 = random_polytope(rng, 2, 3)
        pairs.append((minkowski_sum(q2, random_polytope(rng, 2, 2)), q2))
        pairs.append((random_polytope(rng, 2, 3), random_polytope(rng, 2, 3)))
    for _ in range(6):
        q2 = random_polytope(rng, 3, 1)
        pairs.append((minkowski_sum(q2, random_polytope(rng, 3, 1)), q2))
        pairs.append((random_polytope(rng, 3, 1), random_polytope(rng, 3, 1)))
    for _ in range(6):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        x, y = rng.randint(0, 2), rng.randint(-2, 2)
        pairs.append((from_v(VRep(((x, y), (x + 1, y + 2 * a - 1)), ())),
                      from_v(VRep(((0, 0), (1, 1 - 2 * b)), ()))))
    reeve = from_v(VRep(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)), ()))
    pairs += [(reeve, reeve), (reeve, scale(reeve, 2))]
    ray = from_v(VRep(((0, 0),), ((1, 0), (0, 1))))
    pairs.append((ray, ray))
    # different tails and different dimensions raise SupportMismatch, and a
    # 3-d pair with a common ray raises Unbounded
    pairs.append((ray, from_v(VRep(((0, 0), (0, 1)), ((1, 0),)))))
    pairs.append((from_v(VRep(((0,), (2,)), ())), ray))
    up = ((0, 0, 1),)
    pairs.append((from_v(VRep(reeve.v.vertices, up)),
                  from_v(VRep(scale(reeve, 2).v.vertices, up))))
    verdicts = {"verified_up_to": 0, "exhausted": 0}
    refining = set()
    outcomes = []
    for q1, q2 in pairs:
        k_max = rng.randint(1, 2)
        s_max = rng.randint(1, 3 if q1.dim == 2 else 2)
        got = _outcome(located_multiple_search, q1, q2, k_max, s_max)
        assert got == _outcome(located_multiple_search_ref, q1, q2,
                               k_max, s_max), (q1, q2)
        outcomes.append(got)
        if isinstance(got, dict):
            verdicts[got["verdict"]] += 1
            refining.add(got["checked"]["refines"])
    assert len(pairs) >= 40
    assert min(verdicts.values()) >= 5 and refining == {False, True}, verdicts
    assert outcomes[-4:] == [Unbounded, SupportMismatch, SupportMismatch,
                             Unbounded]
