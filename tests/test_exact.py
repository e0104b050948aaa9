import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import (dot_ref, hnf_with_transform, kernel_lattice_basis_ref,
                      matmul, primitive_ref, rank, saturated_basis_ref,
                      solve_integral, solve_rational)
from normloc.errors import ZeroVector
from normloc.exact import (canonical_sign, det, dot, hermite_normal_form,
                           identity_matrix, integer_solution,
                           kernel_lattice_basis, primitive, project_off,
                           saturated_basis, solution_lattice, transpose)


def test_primitive_divides_out_content():
    assert primitive((4, -6, 8)) == (2, -3, 4)
    assert primitive((0, 5, 0)) == (0, 1, 0)
    assert primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    with pytest.raises(ZeroVector):
        primitive((0, 0))


def test_canonical_sign_flips_to_positive_leader():
    assert canonical_sign((0, -2, 5)) == (0, 2, -5)
    assert canonical_sign((3, -1)) == (3, -1)


def test_hnf_properties_random():
    rng = random.Random(7)
    for _ in range(60):
        ncols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(ncols))
                  for _ in range(rng.randint(1, 4)))
        h, u = hnf_with_transform(m)
        assert matmul(u, m) == h
        assert abs(det(u)) == 1
        assert hermite_normal_form(m) == h
        # pivots positive, entries above each pivot reduced
        pivots = []
        for row in h:
            nz = [j for j, x in enumerate(row) if x]
            if nz:
                pivots.append(nz[0])
                assert row[nz[0]] > 0
        assert pivots == sorted(pivots)
        for k, row in enumerate(h):
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            piv = nz[0]
            for above in h[:k]:
                assert 0 <= above[piv] < row[piv]


def test_hnf_is_canonical_for_row_space():
    # two generating sets of the same lattice
    a = ((2, 4), (0, 6))
    b = ((2, 10), (2, 4))
    assert hermite_normal_form(a) == hermite_normal_form(b)


def _test_matrix(rng, trial):
    """Small integer matrix; every third one has zero rows, every third is
    rank-deficient, and about half are wider than tall."""
    nrows = rng.randint(1, 5)
    ncols = rng.randint(1, 6)
    m = [[rng.randint(-7, 7) for _ in range(ncols)] for _ in range(nrows)]
    if trial % 3 == 0:
        for i in rng.sample(range(nrows), rng.randint(1, nrows)):
            m[i] = [0] * ncols
    elif trial % 3 == 1 and nrows > 1:
        # a row repeated as a combination of two others drops the rank
        a, b = rng.randrange(nrows), rng.randrange(nrows)
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        m[rng.randrange(nrows)] = [s * x + t * y for x, y in zip(m[a], m[b])]
    return tuple(map(tuple, m))


def test_transform_free_core_matches_reference():
    rng = random.Random(41)
    shapes = {"zero_row": 0, "deficient": 0, "wide": 0}
    for trial in range(2400):
        m = _test_matrix(rng, trial)
        shapes["zero_row"] += any(not any(r) for r in m)
        shapes["deficient"] += rank(m) < min(len(m), len(m[0]))
        shapes["wide"] += len(m[0]) > len(m)
        assert hermite_normal_form(m) == hnf_with_transform(m)[0]
        assert kernel_lattice_basis(m) == kernel_lattice_basis_ref(m)
        assert saturated_basis(m) == saturated_basis_ref(m)
    assert min(shapes.values()) >= 500, shapes


def test_integer_solution_matches_reference():
    # one HNF gives the kernel basis and an integer solution of m @ x = b
    # whenever the two-HNF reference finds one
    rng = random.Random(43)
    solved = unsolvable = 0
    for trial in range(1200):
        m = _test_matrix(rng, trial)
        n = len(m[0])
        image, kernel = solution_lattice(m)
        assert kernel == kernel_lattice_basis_ref(m)
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = [dot(row, x) for row in m]
        if trial % 2:
            # off the image lattice, most of the time
            b[rng.randrange(len(b))] += rng.randint(1, 3)
        got = integer_solution(image, b, n)
        assert (got is None) == (solve_integral(m, tuple(b)) is None)
        if got is None:
            unsolvable += 1
        else:
            solved += 1
            assert tuple(dot(row, got) for row in m) == tuple(b)
        if got is not None:
            # a rational right-hand side off Z^m has no integer solution
            b[0] += Fraction(1, 2)
            assert integer_solution(image, b, n) is None
    assert solved >= 600 and unsolvable >= 300, (solved, unsolvable)


def test_kernel_lattice_basis_spans_and_saturates():
    rng = random.Random(11)
    for _ in range(40):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(nrows, 5)
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(ncols))
                  for _ in range(nrows))
        ker = kernel_lattice_basis(m)
        for v in ker:
            assert all(dot(row, v) == 0 for row in m)
            # a saturated Hermite row: primitive, positive lead entry
            assert gcd(*v) == 1
            assert next(x for x in v if x) > 0
        # membership: integer combinations land back in the row lattice
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in ker]
            v = tuple(sum(c * k[j] for c, k in zip(coeffs, ker))
                      for j in range(ncols))
            if ker:
                assert solve_integral(transpose(ker), v) is not None
        # saturation: every integer solution of m @ x = 0 is reachable
        for _ in range(10):
            x = tuple(rng.randint(-3, 3) for _ in range(ncols))
            if any(dot(row, x) != 0 for row in m):
                continue
            if any(x):
                assert ker and solve_integral(transpose(ker), x) is not None


def test_solve_integral_exactness():
    m = ((2, 0), (0, 3))
    # target (2, 3) = 1*(2,0) + 1*(0,3)
    assert solve_integral(m, (2, 3)) is not None
    x = solve_integral(m, (2, 3))
    assert tuple(sum(x[i] * m[i][j] for i in range(2)) for j in range(2)) \
        == (2, 3)
    assert solve_integral(m, (1, 0)) is None


def test_solve_integral_random_roundtrip():
    rng = random.Random(13)
    for _ in range(40):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(ncols))
                  for _ in range(nrows))
        x = tuple(rng.randint(-4, 4) for _ in range(nrows))
        target = tuple(sum(x[i] * m[i][j] for i in range(nrows))
                       for j in range(ncols))
        sol = solve_integral(transpose(m), target)
        assert sol is not None
        back = tuple(sum(sol[i] * m[i][j] for i in range(nrows))
                     for j in range(ncols))
        assert back == target


def test_rank_and_solve_rational():
    # the Fraction oracles of conftest, which the package no longer has
    m = ((1, 2), (2, 4))
    assert rank(m) == 1
    assert solve_rational(((1, 0), (0, 1)), (3, 4)) == \
        (Fraction(3), Fraction(4))
    assert solve_rational(((1, 1), (1, 1)), (0, 1)) is None


def test_det_matches_definition():
    assert det(((2, 1), (1, 2))) == 3
    assert det(((0, 1), (1, 0))) == -1
    assert det(((1, 2, 3), (4, 5, 6), (7, 8, 9))) == 0
    assert det(identity_matrix(4)) == 1


def test_saturated_basis_contains_input_lattice():
    basis = saturated_basis(((2, 4, 0),))
    assert len(basis) == 1
    assert basis[0] == (1, 2, 0)


def test_project_off_orthogonality():
    for basis in (((1, 1, 0),), ((1, 1, 0), (0, 2, -1))):
        v = project_off((3, 1, 2), basis)
        assert all(dot(v, p) == 0 for p in basis)


def _primitive_ref(v):
    """Reference: the Fraction round trip primitive() used to make."""
    v = tuple(Fraction(x) for x in v)
    if all(x == 0 for x in v):
        raise ZeroVector(f"no primitive vector for {v}")
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    w = tuple(int(x * den) for x in v)
    g = 0
    for x in w:
        g = gcd(g, abs(x))
    return tuple(x // g for x in w)


def _project_off_ref(v, basis):
    """Reference: the orthogonal projection by a rational Gram solve."""
    v = tuple(Fraction(x) for x in v)
    if not basis:
        return v
    gram = [[Fraction(dot(p, q)) for q in basis] for p in basis]
    rhs = [dot(p, v) for p in basis]
    coeff = solve_rational(gram, rhs)
    out = list(v)
    for c, p in zip(coeff, basis):
        if c:
            for i, x in enumerate(p):
                out[i] -= c * x
    return tuple(out)


def _entry(rng, frac):
    x = rng.randint(-12, 12)
    return Fraction(x, rng.randint(1, 9)) if frac else x


def test_primitive_matches_fraction_reference():
    rng = random.Random(23)
    for trial in range(400):
        v = tuple(_entry(rng, trial % 2 and rng.random() < 0.6)
                  for _ in range(rng.randint(1, 5)))
        if any(v):
            assert primitive(v) == _primitive_ref(v)
        else:
            with pytest.raises(ZeroVector):
                primitive(v)


def _mixed_vector(rng, n, kind):
    """n entries of one kind: int, Fraction, mixed, bool or huge int."""
    def entry():
        k = rng.choice(("int", "frac")) if kind == "mixed" else kind
        if k == "bool":
            return rng.random() < 0.5
        if k == "huge":
            return rng.choice((-1, 0, 1)) * rng.randint(1, 10 ** 6) * 10 ** 30
        x = rng.randint(-12, 12) * rng.choice((1, 1, 6, 60))
        return Fraction(x, rng.randint(1, 9)) if k == "frac" else x
    return [entry() for _ in range(n)]


def test_primitive_and_dot_match_the_denominator_clearing_reference():
    rng = random.Random(31)
    kinds = ("int", "frac", "mixed", "bool", "huge")
    zeros = 0
    for trial in range(1500):
        kind = kinds[trial % len(kinds)]
        n = rng.randint(0, 5)
        v = _mixed_vector(rng, n, kind)
        if trial % 3 == 0:
            v = [0 * x for x in v]  # the zero vector of this kind
        w = _mixed_vector(rng, n, rng.choice(kinds))
        for a in (v, tuple(v)):
            assert dot(a, w) == dot_ref(a, w)
            try:
                want = primitive_ref(a)
            except ZeroVector as exc:
                zeros += 1
                with pytest.raises(ZeroVector) as got:
                    primitive(a)
                assert str(got.value) == str(exc)
                continue
            got = primitive(a)
            assert got == want and type(got) is tuple
            assert all(type(x) is int for x in got)
    assert zeros > 500


def test_project_off_matches_gram_reference():
    rng = random.Random(29)
    ranks = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(0, min(n, 3)))]
        basis = saturated_basis(gens)
        if len(basis) == n:
            continue  # nothing is left to project onto
        ranks.add(len(basis))
        for _ in range(4):
            v = tuple(rng.randint(-9, 9) for _ in range(n))
            got = project_off(v, basis)
            assert all(isinstance(x, int) for x in got)
            ref = _project_off_ref(v, basis)
            if any(ref):
                assert primitive(got) == _primitive_ref(ref)
            else:
                assert not any(got)
    assert ranks == {0, 1, 2, 3}


def test_transpose_matmul():
    m = ((1, 2, 3), (4, 5, 6))
    assert transpose(m) == ((1, 4), (2, 5), (3, 6))
    assert matmul(m, transpose(m)) == ((14, 32), (32, 77))
