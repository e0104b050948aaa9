"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line (visible under pytest -s or on failure)
and enforces the stated runtime budget where one applies.  Everything here
is pinned: exact witnesses, exact canonical forms, fixed seeds.
"""

import itertools
import random
import time
from contextlib import contextmanager

from conftest import git_cone_by_orbits_ref, oracle_points, oracle_sums, \
    oracle_vertices, orbit_cones_ref, random_polytope
from normloc.cases import boundary_grading, triangle_pair
from normloc.fans import (common_refinement, cone_from_generators,
                          dual_cone, normal_fan, support)
from normloc.gitfan import (fiber, fiber_sum_exact, git_cone,
                            graded_projection, is_generating_candidate,
                            located_multiple_search,
                            multiple_making_sums_exact, realize_pair,
                            refinement_iff_interior, weight_cone)
from normloc.latpoints import (decompose, enumerate_points, is_normal,
                               normally_located)
from normloc.polyhedra import (HRep, VRep, from_h, from_v, minkowski_sum,
                               scale)


@contextmanager
def criterion(num, what):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d}: FAIL  {what}")
        raise
    print(f"criterion {num:2d}: PASS  {what}  "
          f"[{time.time() - t0:.2f}s]")


def test_criterion_1_counterexample_multiples():
    with criterion(1, "triangle pair stays unlocated for k = 1..10"):
        t0 = time.time()
        for k in range(1, 11):
            p, q = triangle_pair(k)
            rep = normally_located(p, q)
            assert rep.verdict == "not_located", k
            assert rep.witness.point == (1, 385 * k - 2), k
            assert rep.witness.kind == "no_decomposition", k
        assert time.time() - t0 < 120


def test_criterion_2_minkowski_identity():
    with criterion(2, "Minkowski sum matches both stated descriptions"):
        p, q = triangle_pair()
        total = minkowski_sum(p, q)
        by_v = from_v(VRep(((165, 0), (210, 0), (0, 385), (0, 462)), ()))
        by_h = from_h(HRep((((-7, -3), -1155), ((11, 5), 2310),
                            ((-1, 0), 0), ((0, -1), 0))))
        assert total == by_v == by_h


def test_criterion_3_boundary_grading_battery():
    with criterion(3, "boundary grading: cone, trichotomy, witnesses, "
                      "exhausted sweep"):
        t0 = time.time()
        g, u1, u2 = boundary_grading()
        lam = git_cone(g, (3, 3))
        assert lam.rays == ((1, 2), (2, 1))
        assert lam.contains_point(u1) and lam.contains_point(u2)
        assert is_generating_candidate(g, u1, u2) == "indeterminate_boundary"
        for s in range(2, 7):
            z = (1, s - 2, s - 1, 1)
            f12 = fiber(g, (3 * s, 3 * s))
            assert z in enumerate_points(f12), s
            f1 = fiber(g, (2 * s, s))
            f2 = fiber(g, (s, 2 * s))
            assert decompose(z, f1, f2) is None, s
        rep = multiple_making_sums_exact(g, u1, u2, k_max=6, s_max=4)
        assert rep.verdict == "exhausted"
        assert time.time() - t0 < 60


def test_criterion_4_normality_at_desk_scale():
    with criterion(4, "random polygons and doubled 3-polytopes are normal"):
        rng = random.Random(101)
        for _ in range(20):
            p = random_polytope(rng, 2, 12)
            assert is_normal(p, 5).verdict == "verified_up_to"
        for _ in range(5):
            p = random_polytope(rng, 3, 4)
            assert is_normal(scale(p, 2), 3).verdict == "verified_up_to"


def test_criterion_5_reeve_simplex():
    with criterion(5, "Reeve simplex fails at s = 2 with the oracle's "
                      "witness"):
        reeve = from_v(VRep(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)),
                            ()))
        rep = is_normal(reeve, 2)
        assert rep.verdict == "not_located"
        assert rep.witness.scale == 2
        # independent oracle: membership-based enumeration and pairwise sums
        pts = oracle_points(reeve)
        sums = set(oracle_sums(pts, pts))
        missing = [z for z in oracle_points(scale(reeve, 2))
                   if z not in sums]
        assert missing == [(1, 1, 1), (1, 1, 2)]
        assert rep.witness.point == min(missing)
        assert (1, 1, 2) in missing


def test_criterion_6_fan_identities():
    with criterion(6, "refinement and support identities on 50 random "
                      "pairs"):
        rng = random.Random(211)
        for _ in range(50):
            d = rng.choice((2, 2, 3))
            q1 = random_polytope(rng, d, 4)
            q2 = random_polytope(rng, d, 4)
            f1, f2 = normal_fan(q1), normal_fan(q2)
            assert common_refinement(f1, f2) == \
                normal_fan(minkowski_sum(q1, q2))
            for q, f in ((q1, f1), (q2, f2)):
                tail = cone_from_generators(q.dim, rays=q.v.rays)
                assert support(f) == dual_cone(tail)


def test_criterion_7_sum_condition_vs_git_cones():
    family = (
        ((1, 0), (0, 1), (1, 1)),
        ((1, 0), (1, 1), (1, 2)),
        ((0, 1), (1, 3), (2, 1)),
        ((1, 0), (0, 1), (2, 1), (1, 2)),
        ((2, 1), (1, 1), (1, 2), (0, 1)),
        ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2)),
        ((1, 0), (1, 1), (2, 3), (0, 1), (3, 1)),
    )
    with criterion(7, "fiber sums exact iff common GIT cone, exhaustively"):
        total = 0
        for ws in family:
            g = graded_projection(ws)
            wc = weight_cone(g)
            orb = orbit_cones_ref(g)
            box = [u for u in itertools.product(range(-4, 5), repeat=2)
                   if wc.contains_point(u)]
            for u1, u2 in itertools.combinations_with_replacement(box, 2):
                u12 = (u1[0] + u2[0], u1[1] + u2[1])
                lam = git_cone_by_orbits_ref(orb, u12)
                indep = lam.contains_point(u1) and lam.contains_point(u2)
                assert fiber_sum_exact(g, u1, u2) == indep, (ws, u1, u2)
                total += 1
        assert total > 1500


def test_criterion_8_refinement_cross_check():
    with criterion(8, "fan refinement agrees with GIT interior on realized "
                      "pairs"):
        rng = random.Random(103)
        for _ in range(20):
            q1 = random_polytope(rng, 2, 5)
            q2 = random_polytope(rng, 2, 5)
            assert refinement_iff_interior(q1, q2).agree
        for _ in range(5):
            q1 = random_polytope(rng, 3, 3)
            q2 = random_polytope(rng, 3, 3)
            assert refinement_iff_interior(q1, q2).agree


def test_criterion_9_refining_pairs_located_at_k1():
    with criterion(9, "refining planar pairs are located at multiple 1"):
        rng = random.Random(107)
        for _ in range(10):
            q2 = random_polytope(rng, 2, 4)
            q1 = minkowski_sum(q2, random_polytope(rng, 2, 3))
            rep = located_multiple_search(q1, q2, k_max=2, s_max=4)
            assert rep.verdict == "verified_up_to"
            assert rep.checked["k"] == 1


def test_criterion_10_representation_round_trip():
    with criterion(10, "V-to-H-to-V round trip matches the subset oracle"):
        rng = random.Random(109)
        for _ in range(50):
            d = rng.randint(1, 4)
            p = random_polytope(rng, d, 3, full_dim=False)
            assert oracle_vertices(p) == list(p.v.vertices)
            assert from_h(p.h) == p
            assert from_v(p.v) == p
