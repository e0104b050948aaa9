import random

from conftest import random_polytope
from normloc import kernels
from normloc.polyhedra import (integer_constraint_rows, minkowski_sum, scale,
                               vertex_box)


def _random_system(rng, d, m):
    coeffs = tuple(tuple(rng.randint(-5, 5) for _ in range(d))
                   for _ in range(m))
    rhs = tuple(rng.randint(-10, 20) for _ in range(m))
    lo = tuple(rng.randint(-4, 0) for _ in range(d))
    hi = tuple(l + rng.randint(0, 6) for l in lo)
    return coeffs, rhs, lo, hi


def _brute_points(coeffs, rhs, lo, hi):
    def rec(j, prefix):
        if j == len(lo):
            yield tuple(prefix)
            return
        for x in range(lo[j], hi[j] + 1):
            yield from rec(j + 1, prefix + [x])

    out = []
    for pt in rec(0, []):
        if all(sum(c * x for c, x in zip(row, pt)) <= b
               for row, b in zip(coeffs, rhs)):
            out.append(pt)
    return out


def test_scan_points_matches_brute_force():
    rng = random.Random(53)
    for _ in range(60):
        d = rng.randint(1, 4)
        m = rng.randint(1, 5)
        sys_ = _random_system(rng, d, m)
        expect = _brute_points(*sys_)
        assert kernels.scan_points(*sys_) == expect
        assert kernels.scan_first(*sys_) == (expect[0] if expect else None)


def test_scan_points_empty_box():
    coeffs, rhs = ((1, 1),), (10,)
    assert kernels.scan_points(coeffs, rhs, (0, 3), (2, 1)) == []
    assert kernels.scan_first(coeffs, rhs, (0, 3), (2, 1)) is None


def _polytope_system(p):
    rows = integer_constraint_rows(p)
    lo, hi = vertex_box(p)
    return tuple(a for a, _ in rows), tuple(b for _, b in rows), lo, hi


def _cut_boxes(sys_):
    """The system with its box cut below its rows, one axis end at a time."""
    coeffs, rhs, lo, hi = sys_
    for j in range(len(lo)):
        if lo[j] < hi[j]:
            cut = hi[:j] + (hi[j] - 1,) + hi[j + 1:]
            yield coeffs, rhs, lo, cut
            cut = lo[:j] + (lo[j] + 1,) + lo[j + 1:]
            yield coeffs, rhs, cut, hi


def _undecomposed_cases():
    rng = random.Random(59)
    for _ in range(40):
        d = rng.randint(1, 3)
        rsys = _random_system(rng, d, rng.randint(1, 4))
        psys = _random_system(rng, d, rng.randint(1, 4))
        qsys = _random_system(rng, d, rng.randint(1, 4))
        yield rsys, psys, qsys
    # real polytopes P, a dilation Q and R = P + Q: long runs of z split
    # by shifting the previous split, so the reuse path carries the scan
    rng = random.Random(61)
    for d, bound, k in ((2, 4, 2), (2, 3, 3), (3, 2, 2), (3, 3, 1)):
        p = random_polytope(rng, d, bound)
        q = scale(p, k)
        rsys = _polytope_system(minkowski_sum(p, q))
        psys, qsys = _polytope_system(p), _polytope_system(q)
        yield rsys, psys, qsys
        # the box is part of each system: a shifted split that meets the
        # rows but leaves a box cut tighter than the rows does not count
        for cut in _cut_boxes(psys):
            yield rsys, cut, qsys
        for cut in _cut_boxes(qsys):
            yield rsys, psys, cut


def test_scan_undecomposed_agreement():
    checked = 0
    for rsys, psys, qsys in _undecomposed_cases():
        got = kernels.scan_undecomposed(*rsys, *psys, *qsys)
        # independent check: the reported z admits no split, and every
        # earlier z in lex order does
        rpts = _brute_points(*rsys)
        ppts = set(map(tuple, _brute_points(*psys)))
        qpts = set(map(tuple, _brute_points(*qsys)))
        sums = {tuple(a + b for a, b in zip(p, q))
                for p in ppts for q in qpts}
        missing = [tuple(z) for z in rpts if tuple(z) not in sums]
        expect = min(missing) if missing else None
        assert (tuple(got) if got is not None else None) == expect
        if expect is not None:
            checked += 1
    assert checked


def test_huge_coefficients_are_exact():
    # the scan works on Python ints, so large coefficients stay exact
    big = 2 ** 61
    coeffs, rhs = ((big, 1),), (big,)
    assert kernels.scan_points(coeffs, rhs, (0, 0), (1, 1)) == [
        (0, 0), (0, 1), (1, 0)]


def test_backend_is_pure():
    assert kernels.backend() == "pure"
