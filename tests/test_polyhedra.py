import random
from fractions import Fraction

import pytest

from conftest import (from_h_ref, from_v_ref, oracle_vertices,
                      random_polytope, rank, scale_ref, translate_ref)
from normloc.errors import (DimensionMismatch, EmptyPolyhedron, NormlocError,
                            NotPointed, Unbounded, ZeroVector)
from normloc.exact import dot
from normloc.gitfan import fiber, graded_projection
from normloc.polyhedra import (HRep, VRep, from_h, from_v, minkowski_sum,
                               polyhedron_from_dict, polyhedron_to_dict,
                               scale, translate, vertex_box)


def test_triangle_canonical_forms():
    p = from_v(VRep(((165, 0), (175, 0), (0, 385)), ()))
    assert p.v.vertices == ((0, 385), (165, 0), (175, 0))
    assert p.h.inequalities == (
        ((-7, -3), Fraction(-1155)),
        ((0, -1), Fraction(0)),
        ((11, 5), Fraction(1925)),
    )
    assert p.is_bounded() and p.is_lattice()
    assert p.affine_dimension() == 2


def test_redundant_generators_are_dropped():
    p = from_v(VRep(((0, 0), (2, 0), (0, 2), (1, 1), (2, 2)), ()))
    q = from_v(VRep(((0, 0), (2, 0), (0, 2), (2, 2)), ()))
    assert p == q
    assert p.v.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))


def test_redundant_constraints_are_dropped():
    p = from_h(HRep((((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0),
                     ((1, 1), 5))))
    assert len(p.h.inequalities) == 4


def test_equal_sets_equal_records():
    a = from_h(HRep((((1, 1), 2), ((-1, 0), 0), ((0, -1), 0))))
    b = from_v(VRep(((0, 0), (2, 0), (0, 2)), ()))
    assert a == b and hash(a) == hash(b)


def test_empty_system_raises():
    with pytest.raises(EmptyPolyhedron):
        from_h(HRep((((1,), -1), ((-1,), -1))))
    # infeasible system whose homogenization keeps a line
    with pytest.raises(EmptyPolyhedron):
        from_h(HRep((((1, 0), -1), ((-1, 0), -1))))


def test_line_raises_not_pointed():
    with pytest.raises(NotPointed):
        from_h(HRep((((0, -1), 0),)))


@pytest.mark.parametrize("rays", [((1, 0), (-1, 0), (0, 1), (0, -1)),
                                  ((1, 1), (-1, 0), (0, -1))])
def test_rays_spanning_the_space_raise_not_pointed(rays):
    # the first V-to-H pass finds no constraint row at all
    with pytest.raises(NotPointed):
        from_v(VRep(((0, 0),), rays))


def test_unbounded_with_vertices():
    p = from_h(HRep((((-1, 0), 0), ((0, -1), 0))))
    assert p.v.vertices == ((0, 0),)
    assert p.v.rays == ((0, 1), (1, 0))
    assert not p.is_bounded()
    with pytest.raises(Unbounded):
        vertex_box(p)


def test_fractional_vertices():
    p = from_h(HRep((((2, 0), 1), ((-1, 0), 0), ((0, 2), 1), ((0, -1), 0))))
    assert p.v.vertices[-1] == (Fraction(1, 2), Fraction(1, 2))
    assert not p.is_lattice()


def test_contains_and_dimension_mismatch():
    p = from_v(VRep(((0, 0), (1, 0), (0, 1)), ()))
    assert p.contains((0, 0))
    assert p.contains((Fraction(1, 3), Fraction(1, 3)))
    assert not p.contains((1, 1))
    with pytest.raises(DimensionMismatch):
        p.contains((1, 1, 1))


def test_minkowski_sum_triangle_pair():
    p = from_v(VRep(((165, 0), (175, 0), (0, 385)), ()))
    q = from_v(VRep(((0, 0), (35, 0), (0, 77)), ()))
    s = minkowski_sum(p, q)
    assert s.v.vertices == ((0, 385), (0, 462), (165, 0), (210, 0))


def test_scale_translate():
    p = from_v(VRep(((0, 0), (1, 0), (0, 1)), ()))
    assert scale(p, 3).v.vertices == ((0, 0), (0, 3), (3, 0))
    assert translate(p, (5, 7)).v.vertices == ((5, 7), (5, 8), (6, 7))
    with pytest.raises(NormlocError):
        scale(p, 0)


def test_translate_takes_float_shifts_exactly():
    third = from_v(VRep(((Fraction(1, 3), 0), (1, 0), (0, 1)), ()))
    moved = translate(third, (0.1, 0))
    assert (Fraction(1, 3) + Fraction(0.1), 0) in moved.v.vertices
    assert translate(moved, (-0.1, 0)) == third
    # in floats 1e-20 + 1.0 == 1.0 + 0, which would merge two vertices
    thin = from_v(VRep(((1e-20, 0), (2e-20, 1), (0, 0)), ()))
    assert len(translate(thin, (1.0, 0)).v.vertices) == 3
    for bad in (float("inf"), float("nan"), "1/2", None):
        with pytest.raises(NormlocError):
            translate(third, (bad, 0))


def test_scale_translate_match_from_v_reference():
    rng = random.Random(307)
    kinds = {"flat": 0, "rays": 0, "fraction": 0, "float": 0}
    n = 0
    while n < 2000:
        try:
            p = from_v(_random_vrep(rng))
        except NormlocError:
            continue
        k = rng.randint(1, 5)
        kind = rng.randrange(3)
        t = [(rng.randint(-5, 5),
              Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
              rng.uniform(-3, 3))[kind] for _ in range(p.dim)]
        for got, want in ((scale(p, k), scale_ref(p, k)),
                          (translate(p, t), translate_ref(p, t))):
            assert got == want and repr(got) == repr(want), (p, k, t)
        n += 1
        kinds["flat"] += bool(p.h.equalities)
        kinds["rays"] += bool(p.v.rays)
        kinds["fraction"] += any(x.denominator > 1
                                 for v in p.v.vertices for x in v)
        kinds["float"] += kind == 2
    assert kinds["flat"] >= 600 and kinds["rays"] >= 400, kinds
    assert kinds["fraction"] >= 400 and kinds["float"] >= 400, kinds


def test_scale_by_one_returns_the_record():
    p = from_v(VRep(((0, 0), (1, 0), (0, 1)), ()))
    assert scale(p, 1) is p


def test_zero_normal_raises():
    sq = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    for rhs in (-1, 0, 1):
        with pytest.raises(ZeroVector, match="constraint with zero normal"):
            from_h(HRep(tuple(sq) + (((0, 0), rhs),)))
    with pytest.raises(ZeroVector, match="constraint with zero normal"):
        from_h(HRep(tuple(sq), (((0, 0), 0),)))
    with pytest.raises(ZeroVector, match="constraint with zero normal"):
        from_h(HRep(tuple(sq) + (([0, 0], 1),)))


def test_dd_convert_both_directions():
    v = VRep(((0, 0), (1, 0), (0, 1)), ())
    h = from_v(v).h
    assert isinstance(h, HRep)
    assert from_h(h).v.vertices == ((0, 0), (0, 1), (1, 0))


def test_dict_roundtrip():
    p = from_h(HRep((((2, 0), 1), ((-1, 0), 0), ((0, 2), 1), ((0, -1), 0))))
    d = polyhedron_to_dict(p)
    assert polyhedron_from_dict(d) == p
    q = polyhedron_from_dict({
        "inequalities": [{"normal": [1, 1], "rhs": "2"},
                         {"normal": [-1, 0], "rhs": "0"},
                         {"normal": [0, -1], "rhs": "0"}]})
    assert q.v.vertices == ((0, 0), (0, 2), (2, 0))


def test_roundtrip_matches_subset_oracle():
    rng = random.Random(23)
    for _ in range(30):
        d = rng.randint(1, 3)
        p = random_polytope(rng, d, 6, npoints=d + 4, full_dim=False)
        assert list(p.v.vertices) == oracle_vertices(p)
        assert from_h(p.h) == p
        assert from_v(p.v) == p


def test_equalities_on_lower_dimensional_polytopes():
    # segment embedded in the plane along a diagonal
    p = from_v(VRep(((0, 0), (2, 2)), ()))
    assert len(p.h.equalities) == 1
    n, b = p.h.equalities[0]
    assert all(a * n[0] + c * n[1] == b for a, c in p.v.vertices)
    assert p.affine_dimension() == 1


def test_affine_dimension_matches_rank_oracle():
    rng = random.Random(59)
    dims = set()
    for _ in range(150):
        d = rng.randint(1, 4)
        pts = {tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(d)) for _ in range(rng.randint(1, 4))}
        rays = [r for r in (tuple(rng.randint(0, 2) for _ in range(d))
                            for _ in range(rng.randint(0, 2))) if any(r)]
        p = from_v(VRep(tuple(sorted(pts)), tuple(rays)))
        v0 = p.v.vertices[0]
        rows = [tuple(a - b for a, b in zip(v, v0)) for v in p.v.vertices]
        want = rank(rows + list(p.v.rays))
        assert p.affine_dimension() == want
        dims.add((d, want))
    assert {(4, k) for k in range(5)} <= dims


def test_unbounded_tail_in_hrep_vrep_agreement():
    p = from_v(VRep(((1, 1),), ((1, 0), (1, 1))))
    assert from_h(p.h) == p
    assert p.v.rays == ((1, 0), (1, 1))


def test_no_facet_row_without_a_vertex():
    # the t >= 0 facet of the homogenization is fixed only modulo the
    # equalities, so it used to leak into lower-dimensional H-descriptions
    assert from_v(VRep(((2, 3),), ())).h.inequalities == ()
    assert from_v(VRep(((1, 1),), ((1, 0),))).h.inequalities == \
        (((-1, 1), 0),)


def _random_rep(rng):
    """A vertex or halfspace description in 1-3 dimensions, often flat,
    with Fraction coordinates and sometimes rays."""
    d = rng.randint(1, 3)
    den = rng.choice((1, 2, 3))
    if rng.random() < 0.5:
        k = rng.randint(0, d)
        base = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        off = tuple(Fraction(rng.randint(-3, 3), den) for _ in range(d))
        verts = [tuple(o + sum(rng.randint(-2, 2) * b[j] for b in base)
                       for j, o in enumerate(off))
                 for _ in range(rng.randint(1, 5))]
        rays = [b for b in base if any(b) and rng.random() < 0.4]
        return VRep(tuple(verts), tuple(rays))
    ineqs = [(tuple(int(i == j) for i in range(d)), rng.randint(0, 4))
             for j in range(d)]
    ineqs += [(tuple(-int(i == j) for i in range(d)), rng.randint(0, 4))
              for j in range(d) if rng.random() < 0.8]
    ineqs += [(tuple(rng.randint(-2, 2) for _ in range(d)),
               Fraction(rng.randint(-1, 6), den))
              for _ in range(rng.randint(0, 2))]
    eqs = [(tuple(rng.randint(-2, 2) for _ in range(d)),
            Fraction(rng.randint(-2, 2), den))
           for _ in range(rng.randint(0, d - 1))]
    return HRep(tuple((n, b) for n, b in ineqs if any(n)),
                tuple((n, b) for n, b in eqs if any(n)))


def test_every_inequality_is_tight_on_a_vertex():
    rng = random.Random(97)
    flat = 0
    for _ in range(400):
        rep = _random_rep(rng)
        try:
            p = from_v(rep) if isinstance(rep, VRep) else from_h(rep)
        except NormlocError:
            continue
        for n, b in p.h.inequalities:
            assert any(dot(n, v) == b for v in p.v.vertices), (p, n, b)
        assert from_h(p.h) == p
        flat += bool(p.h.equalities)
    assert flat >= 100


def _random_vrep(rng):
    """Vertex description in 1-4 dimensions with Fraction coordinates,
    redundant points, often rays, and a flat set about a third of the
    time (points and rays drawn in a random lattice subspace)."""
    d = rng.randint(1, 4)
    den = rng.choice((1, 1, 2, 3, 5))
    k = rng.randint(0, d - 1) if rng.random() < 0.35 else d
    base = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
    if k == d:
        base = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    off = tuple(Fraction(rng.randint(-4, 4), den) for _ in range(d))
    verts = [tuple(o + sum(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                           * b[j] for b in base)
                   for j, o in enumerate(off))
             for _ in range(rng.randint(1, d + 3))]
    # redundant points: midpoints of pairs and copies
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(verts), rng.choice(verts)
        verts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    rays = []
    if rng.random() < 0.4 and base:
        # rays with nonnegative coefficients on the base: a pointed tail
        for _ in range(rng.randint(1, 3)):
            coef = [rng.randint(0, 2) for _ in base]
            r = tuple(sum(c * b[j] for c, b in zip(coef, base))
                      for j in range(d))
            if any(r):
                rays.append(r)
    return VRep(tuple(verts), tuple(rays))


def test_from_v_matches_three_pass_reference():
    rng = random.Random(101)
    kinds = {"full": 0, "flat": 0, "rays": 0}
    for _ in range(450):
        rep = _random_vrep(rng)
        try:
            expect = from_v_ref(rep)
        except NormlocError as exc:
            with pytest.raises(type(exc)):
                from_v(rep)
            continue
        got = from_v(rep)
        assert got == expect and repr(got) == repr(expect)
        kinds["flat" if got.h.equalities else "full"] += 1
        kinds["rays"] += bool(got.v.rays)
    assert min(kinds.values()) >= 60, kinds


def _rescaled_hrep(rng):
    """A halfspace system in 1-3 dimensions whose rows are positively
    rescaled (equalities by either sign), with Fraction, int and string
    right-hand sides, list normals, redundant rows, and now and then a row
    that makes it infeasible or dropped rows that leave a line."""
    rep = _random_rep(rng)
    if isinstance(rep, VRep):
        try:
            rep = from_v(rep).h
        except NormlocError:
            return _rescaled_hrep(rng)
    ineqs, eqs = list(rep.inequalities), list(rep.equalities)
    if not ineqs and not eqs:
        return _rescaled_hrep(rng)
    d = len((ineqs + eqs)[0][0])
    for _ in range(rng.randint(0, 2)):
        if ineqs:
            (n1, b1), (n2, b2) = rng.choice(ineqs), rng.choice(ineqs)
            if any(a + b for a, b in zip(n1, n2)):
                ineqs.append((tuple(a + b for a, b in zip(n1, n2)),
                              b1 + b2 + rng.randint(0, 2)))
    if ineqs and rng.random() < 0.15:
        n, b = rng.choice(ineqs)
        ineqs.append((tuple(-x for x in n), -b - Fraction(1, 2)))
    if rng.random() < 0.3:
        ineqs = [row for row in ineqs if rng.random() < 0.5]
        if not ineqs and not eqs:
            ineqs = [(tuple(int(j == 0) for j in range(d)), 1)]

    def rescale(n, b, c):
        n = [c * x for x in n]
        b = c * Fraction(b) / rng.choice((1, 1, 2, 3))
        return (n if rng.random() < 0.2 else tuple(n),
                rng.choice((b, str(b), b)) if b.denominator > 1
                else rng.choice((b, int(b), str(b))))

    ineqs = [rescale(n, b * rng.choice((1, 2, 3)), rng.randint(1, 4))
             for n, b in ineqs]
    eqs = [rescale(n, b, rng.choice((-3, -2, -1, 1, 2, 3)))
           for n, b in eqs]
    rng.shuffle(ineqs)
    rng.shuffle(eqs)
    return HRep(tuple(ineqs), tuple(eqs))


def test_from_h_matches_rescaling_reference():
    rng = random.Random(211)
    kinds = {"ok": 0, EmptyPolyhedron: 0, NotPointed: 0}
    for _ in range(1200):
        rep = _rescaled_hrep(rng)
        try:
            expect = from_h_ref(rep)
        except NormlocError as exc:
            with pytest.raises(type(exc)):
                from_h(rep)
            kinds[type(exc)] = kinds.get(type(exc), 0) + 1
            continue
        got = from_h(rep)
        assert got == expect and repr(got) == repr(expect)
        kinds["ok"] += 1
    assert min(kinds.values()) >= 40, kinds


def test_equality_right_hand_sides_are_integers():
    # the lattice scan takes canonical equalities as integer rows as they
    # stand: each is an integer HNF row (n, b) of the homogenized hull
    rng = random.Random(211)
    flat = 0
    for _ in range(300):
        rep = _random_vrep(rng)
        try:
            p = from_v(rep)
        except NormlocError:
            continue
        # a second summand: P's first two points, each shifted by halves
        q = from_v(VRep(tuple(tuple(x + Fraction(rng.randint(-3, 3), 2)
                                    for x in v) for v in rep.vertices[:2]),
                        ()))
        shift = tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                      for _ in range(p.dim))
        for r in (p, from_h(p.h), scale(p, rng.randint(2, 4)),
                  translate(p, shift), minkowski_sum(p, q)):
            assert all(b.denominator == 1 for _, b in r.h.equalities), r
            flat += bool(r.h.equalities)
    assert flat >= 300, flat
    fibers = 0
    for _ in range(80):
        m = rng.randint(1, 3)
        try:
            g = graded_projection([[rng.randint(0, 3) for _ in range(m)]
                                   for _ in range(rng.randint(m, m + 3))])
        except NormlocError:
            continue
        for _ in range(3):
            coef = [rng.randint(0, 3) for _ in g.weights]
            u = [sum(c * w[j] for c, w in zip(coef, g.weights))
                 for j in range(m)]
            f = fiber(g, u)
            assert f.h.equalities
            assert all(b.denominator == 1 for _, b in f.h.equalities), f
            fibers += 1
    assert fibers >= 100, fibers
