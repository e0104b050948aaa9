import random

from normloc import dd
from normloc.exact import canonical_sign


def _system(rng):
    """Equality and inequality rows drawn from a subspace of dimension
    below n, so the cone they cut out always has lines."""
    n = rng.randint(2, 5)
    base = [tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(rng.randint(1, n - 1))]

    def row():
        coef = [rng.randint(-2, 2) for _ in base]
        return tuple(sum(c * b[j] for c, b in zip(coef, base))
                     for j in range(n))

    eqs = [row() for _ in range(rng.choice((0, 0, 1, 2)))]
    ineqs = [row() for _ in range(rng.randint(1, n + 1))]
    return n, eqs, ineqs


def _reworded(rng, eqs, ineqs):
    """The same cone: rows shuffled, plus conic combinations of the
    inequalities (shifted by equality combinations) and integer
    combinations of the equalities."""
    def combo(rows, lo):
        coef = [rng.randint(lo, 3) for _ in rows]
        return tuple(sum(c * r[j] for c, r in zip(coef, rows))
                     for j in range(len(rows[0])))

    eqs2 = list(eqs)
    ineqs2 = list(ineqs)
    for _ in range(rng.randint(1, 3)):
        extra = combo(ineqs, 0)
        if eqs:
            extra = tuple(a + b for a, b in zip(extra, combo(eqs, -3)))
        ineqs2.append(extra)
    if eqs:
        eqs2.append(combo(eqs, -3))
    rng.shuffle(eqs2)
    rng.shuffle(ineqs2)
    return eqs2, ineqs2


def test_generators_depend_only_on_the_cone():
    # the DD pivots on the first line meeting each row, so lines and ray
    # representatives are fixed by the cone, not by how its rows read
    rng = random.Random(314)
    both = 0
    for _ in range(1200):
        n, eqs, ineqs = _system(rng)
        want = dd.generators_from_constraints(n, eqs, ineqs)
        assert want[0], (eqs, ineqs)
        both += bool(want[1])
        eqs2, ineqs2 = _reworded(rng, eqs, ineqs)
        assert dd.generators_from_constraints(n, eqs2, ineqs2) == want, \
            (eqs, ineqs, eqs2, ineqs2)
    assert both >= 400, both


def test_cutting_a_state_matches_a_fresh_pass():
    # git_fan splits a cell by cutting its live DD state with a and with -a,
    # after earlier cuts that may have made rows redundant: each half must
    # have the generators of a fresh pass over all its rows
    rng = random.Random(1729)
    crossed = 0
    for _ in range(500):
        n, eqs, ineqs = _system(rng)
        cuts = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(0, 2))]
        cuts = [c for c in cuts if any(c)]
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        if not any(a):
            continue
        state = dd._state(n, eqs, ineqs)
        for c in cuts:
            state = dd._cut(state, c)
        crossed += any(sum(x * y for x, y in zip(a, ln)) for ln in state[0])
        for side in (a, tuple(-x for x in a)):
            lines, rays, _, _ = dd._cut(state, side)
            want = dd.generators_from_constraints(n, eqs,
                                                  ineqs + cuts + [side])
            assert {canonical_sign(ln) for ln in lines} == set(want[0])
            assert {r for r, _ in rays} == set(want[1]), (eqs, ineqs, cuts,
                                                          side)
    assert crossed >= 150, crossed


def _generator_family(rng):
    """Lines and rays in up to 5 dimensions: rays often nonprimitive,
    repeated or zero, and lines present about half the time."""
    n = rng.randint(1, 5)
    rays = [tuple(rng.randint(-3, 3) for _ in range(n))
            for _ in range(rng.randint(0, n + 2))]
    rays += rng.sample(rays, min(len(rays), rng.randint(0, 2)))
    lines = [tuple(rng.randint(-2, 2) for _ in range(n))
             for _ in range(rng.choice((0, 0, 1, 2)))]
    return n, lines, rays


def _rescaled(rng, rows):
    """Each row times a positive integer, then up to two rows repeated
    (rescaled again) at the end."""
    def times(r, c):
        return tuple(c * x for x in r)

    out = [times(r, rng.randint(1, 4)) for r in rows]
    return out + [times(r, rng.randint(1, 3))
                  for r in rng.sample(rows, min(len(rows), 2))]


def test_output_ignores_positive_scaling_and_repeats():
    # both directions run through generators_from_constraints: a family
    # read as constraints (eqs, ineqs) and, by polarity, as generators
    # (lines, rays); the output cannot depend on row scale or multiplicity
    rng = random.Random(2718)
    seen = {"constraints": 0, "generators": 0}
    for i in range(800):
        role = "constraints" if i % 2 else "generators"
        if role == "constraints":
            n, eqs, ineqs = _system(rng)
        else:
            n, eqs, ineqs = _generator_family(rng)
        want = dd.generators_from_constraints(n, eqs, ineqs)
        got = dd.generators_from_constraints(n, _rescaled(rng, eqs),
                                             _rescaled(rng, ineqs))
        assert got == want, (role, eqs, ineqs)
        # the output family in the other role: its polar, rescaled
        back = dd.generators_from_constraints(n, *want)
        assert dd.generators_from_constraints(
            n, _rescaled(rng, want[0]), _rescaled(rng, want[1])) == back
        seen[role] += bool(want[1]) and bool(ineqs)
    assert min(seen.values()) >= 150, seen
