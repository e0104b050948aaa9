import random
from itertools import islice
from operator import add

from conftest import (lines_ref, random_polytope, scan_undecomposed_ref,
                      x_system)
from normloc import kernels
from normloc.cases import boundary_grading, triangle_pair
from normloc.gitfan import fiber
from normloc.polyhedra import VRep, from_v, minkowski_sum, scale, translate


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


# lattice-thin slabs: x = 2y leaves the lines of odd x empty, and
# x <= 3y <= x + 1 the lines of x = 1 (mod 3), between nonempty ones
_SLABS = [
    (((1, -2), (-1, 2)), (0, 0), (0, -5), (9, 9)),
    (((1, -3), (-1, 3)), (0, 1), (-3, -3), (9, 9)),
    (((1, 0, -2), (-1, 0, 2), (0, 1, 1), (0, -1, -1)), (0, 0, 4, -2),
     (0, -2, -3), (6, 6, 6)),
]


def test_scan_points_skips_empty_lines():
    for sys_ in _SLABS:
        expect = _brute_points(*sys_)
        assert kernels.scan_points(*sys_) == expect
        assert kernels.scan_first(*sys_) == expect[0]
        lo, hi = sys_[2], sys_[3]
        prefixes = {pt[:-1] for pt in expect}
        first, last = min(prefixes), max(prefixes)
        # some line strictly between the first and last nonempty lines,
        # inside the box, holds no point
        inner = [pt[:-1] for pt in _brute_points((), (), lo, hi)
                 if first < pt[:-1] < last]
        assert set(inner) - prefixes
    # one axis: the whole scan is one line
    sys_ = (((1,), (-1,), (2,)), (7, 3, 20), (-5,), (10,))
    assert kernels.scan_points(*sys_) == _brute_points(*sys_)
    assert len(kernels.scan_points(*sys_)) == 11


def _cut_boxes(sys_):
    """The system with its box cut below its rows, one axis end at a time."""
    coeffs, rhs, lo, hi = sys_
    for j in range(len(lo)):
        if lo[j] < hi[j]:
            cut = hi[:j] + (hi[j] - 1,) + hi[j + 1:]
            yield coeffs, rhs, lo, cut
            cut = lo[:j] + (lo[j] + 1,) + lo[j + 1:]
            yield coeffs, rhs, cut, hi


def _sum_system(psys, qsys):
    """A system holding P + Q, for P and Q with the same rows."""
    (coeffs, prhs, plo, phi), (_, qrhs, qlo, qhi) = psys, qsys
    return (coeffs, tuple(map(add, prhs, qrhs)), tuple(map(add, plo, qlo)),
            tuple(map(add, phi, qhi)))


def _thin_pairs(rng):
    """Slabs P and Q, b <= a.x <= b + w with the same a, whose last
    coefficient is 2 or 3 in size, so that lines inside their boxes hold no
    point.  Each box is the bounding box of the slab's points in a random
    box, so that R's first points are sums."""
    while True:
        d = rng.randint(2, 3)
        a = tuple(rng.randint(-3, 3) for _ in range(d - 1))
        a += (rng.choice((-3, -2, 2, 3)),)
        pair = []
        for _ in range(2):
            b, w = rng.randint(-4, 4), rng.randint(0, 2)
            lo = tuple(rng.randint(-4, 0) for _ in range(d))
            hi = tuple(v + rng.randint(2, 6) for v in lo)
            rows = (a, tuple(-c for c in a)), (b + w, -b)
            pts = _brute_points(*rows, lo, hi)
            if pts:
                pair.append(rows + (tuple(map(min, zip(*pts))),
                                    tuple(map(max, zip(*pts)))))
        if len(pair) == 2:
            yield pair


def _scaled_rows(rng, sys_):
    """The system with row i times about 10^30 and rhs[i] raised by less
    than that factor: the same points, reached through huge numbers."""
    coeffs, rhs, lo, hi = sys_
    bigs = [10 ** 30 + rng.randint(0, 10 ** 6) for _ in rhs]
    return (tuple(tuple(c * big for c in row)
                  for row, big in zip(coeffs, bigs)),
            tuple(b * big + rng.randrange(big) for b, big in zip(rhs, bigs)),
            lo, hi)


def _undecomposed_cases():
    rng = random.Random(59)
    for _ in range(40):
        d = rng.randint(1, 3)
        rsys = _random_system(rng, d, rng.randint(1, 4))
        psys = _random_system(rng, d, rng.randint(1, 4))
        qsys = _random_system(rng, d, rng.randint(1, 4))
        yield rsys, psys, qsys
    # real polytopes P, a dilation Q and R = P + Q: long lines of R, each
    # covered by a few sums of lines of P and Q
    rng = random.Random(61)
    big = random.Random(73)
    for d, bound, k in ((2, 4, 2), (2, 3, 3), (3, 2, 2), (3, 3, 1)):
        p = random_polytope(rng, d, bound)
        q = scale(p, k)
        rsys = x_system(minkowski_sum(p, q))
        psys, qsys = x_system(p), x_system(q)
        yield rsys, psys, qsys
        # the box is part of each system: where a box cut is tighter than
        # the rows, it bounds the lines' intervals and their prefixes
        for cut in _cut_boxes(psys):
            yield rsys, cut, qsys
        for cut in _cut_boxes(qsys):
            yield rsys, psys, cut
        # the same sets with rows scaled by 10^30
        yield tuple(_scaled_rows(big, sys_) for sys_ in (rsys, psys, qsys))
    # lattice-thin P and Q, R holding their sum: some lines inside each box
    # hold no point, so covering sums skip lines and searches meet empty ones
    for psys in _SLABS:
        yield _sum_system(psys, psys), psys, psys
    for psys, qsys in islice(_thin_pairs(random.Random(71)), 10):
        rsys = _sum_system(psys, qsys)
        yield rsys, psys, qsys
        yield tuple(_scaled_rows(big, sys_) for sys_ in (rsys, psys, qsys))


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


def _pair_systems(p, q):
    """(R, P, Q) systems of R = P + Q."""
    return x_system(minkowski_sum(p, q)), x_system(p), x_system(q)


def _reference_cases():
    rng = random.Random(67)
    # long 2-d lines: the translated triangle pair fails at the second line
    p, q = triangle_pair(1)
    for tp, tq in (((0, 0), (0, 0)), ((3, -7), (-2, 5)), ((-1, 2), (4, 0))):
        yield _pair_systems(translate(p, tp), translate(q, tq))
    yield _pair_systems(q, p)
    # thin triangles: few lines, each many points long
    for _ in range(12):
        tri = [from_v(VRep(((0, 0), (rng.randint(1, 3), rng.randint(5, 40)),
                            (0, rng.randint(5, 40))), ()))
               for _ in range(2)]
        yield _pair_systems(*tri)
    # 3-d polytope pairs (P, kP) and (P, Q), located and not
    for _ in range(6):
        p = random_polytope(rng, 3, rng.randint(1, 3))
        yield _pair_systems(p, scale(p, rng.randint(1, 3)))
        yield _pair_systems(p, random_polytope(rng, 3, 2))
    # R with equality rows: fibers of a grading, one point per line
    g, _, _ = boundary_grading()
    degrees = [(2, 1), (1, 2), (4, 2), (9, 11), (20, 20), (30, 25), (25, 35)]
    for u1 in degrees:
        for u2 in degrees[2:5]:
            u12 = tuple(a + b for a, b in zip(u1, u2))
            yield tuple(x_system(fiber(g, u))
                        for u in (u12, u1, u2))
    # P and Q boxes cut one step inside the rows at either end of the
    # last axis
    for _ in range(6):
        p = random_polytope(rng, 2, 6)
        q = rng.choice((random_polytope(rng, 2, 6), scale(p, 2)))
        rsys, psys, qsys = _pair_systems(p, q)
        for cut in _cut_boxes(psys):
            if cut[2][:-1] == psys[2][:-1] and cut[3][:-1] == psys[3][:-1]:
                yield rsys, cut, qsys
        for cut in _cut_boxes(qsys):
            if cut[2][:-1] == qsys[2][:-1] and cut[3][:-1] == qsys[3][:-1]:
                yield rsys, psys, cut


def test_scan_undecomposed_matches_reference(monkeypatch):
    calls = [0]
    plain = kernels.iter_points

    def counted(*args):
        calls[0] += 1
        return plain(*args)

    monkeypatch.setattr(kernels, "iter_points", counted)
    witnesses = 0
    totals = [0, 0]
    for rsys, psys, qsys in _reference_cases():
        calls[0] = 0
        expect = scan_undecomposed_ref(*rsys, *psys, *qsys)
        # the reference's first call scans R; every later one is a search
        ref_searches = calls[0] - 1
        calls[0] = 0
        got = kernels.scan_undecomposed(*rsys, *psys, *qsys)
        assert got == expect
        assert calls[0] <= ref_searches
        witnesses += got is not None
        totals[0] += ref_searches
        totals[1] += calls[0]
    assert witnesses
    # covering whole lines must save searches over the point-by-point
    # reference
    assert totals[1] < totals[0], totals


def _line_cases(rng):
    """Random systems, and their edge forms: no rows, zero columns, d = 1,
    an empty box and coefficients of 10^30 and more."""
    for trial in range(400):
        d = 1 if trial % 5 == 0 else rng.randint(2, 4)
        m = 0 if trial % 7 == 0 else rng.randint(1, 5)
        coeffs, rhs, lo, hi = _random_system(rng, d, m)
        if trial % 4 == 1:
            j = rng.randrange(d)
            coeffs = tuple(row[:j] + (0,) + row[j + 1:] for row in coeffs)
        if trial % 6 == 2:
            j = rng.randrange(d)
            hi = hi[:j] + (lo[j] - rng.randint(1, 3),) + hi[j + 1:]
        if trial % 3 == 0:
            big = 10 ** 30 + rng.randint(0, 10 ** 6)
            coeffs = tuple(tuple(c * big for c in row) for row in coeffs)
            rhs = tuple(b * big + rng.randint(-big, big) for b in rhs)
        yield coeffs, rhs, lo, hi


def test_lines_match_the_row_major_reference():
    rng = random.Random(59)
    empty = lines = 0
    for sys_ in _line_cases(rng):
        got = list(kernels._lines(*sys_))
        assert got == list(lines_ref(*sys_)), sys_
        empty += not got
        lines += len(got)
    assert empty > 40 and lines > 1000, (empty, lines)


def test_huge_coefficients_are_exact():
    # the scan works on Python ints, so large coefficients stay exact
    big = 2 ** 61
    coeffs, rhs = ((big, 1),), (big,)
    assert kernels.scan_points(coeffs, rhs, (0, 0), (1, 1)) == [
        (0, 0), (0, 1), (1, 0)]


def test_backend_is_pure():
    assert kernels.backend() == "pure"
