import random

from normloc import dd


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
