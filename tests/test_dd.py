import random

from normloc import dd
from normloc.exact import canonical_sign, det
from normloc.gitfan import git_fan, graded_projection, refinement_iff_interior
from normloc.polyhedra import VRep, from_v


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


def _dd_output(n, eqs, ineqs):
    """The DD's generators, canonicalized as ``generators_from_constraints``
    does: the oracle of its closed-form path."""
    lines, rays, _, _ = dd._state(n, eqs, ineqs)
    return (tuple(sorted(canonical_sign(ln) for ln in lines)),
            tuple(sorted({r for r, _ in rays})))


def _in_closed_form_reach(n, eqs, ineqs):
    """Whether a system is simplicial and peels to a core of at most 3 x 3:
    n inequality rows of full rank, no nonzero equality row, and at most 3
    rows that are not +-e_j (a full-rank matrix has its unit rows on
    distinct columns)."""
    if not n or len(ineqs) != n or any(map(any, eqs)) or not det(ineqs):
        return False
    units = sum(sorted(map(abs, row)) == [0] * (n - 1) + [1]
                for row in ineqs)
    return n - units <= 3


def _small_square(rng):
    k = rng.randint(1, 3)
    return k, [], [tuple(rng.randint(-6, 6) for _ in range(k))
                   for _ in range(k)]


def _degenerate_square(rng):
    """A square system, mostly singular: a zero row, a repeated or negated
    row, or a combination of the others; or one row times a common
    factor."""
    k, _, rows = _small_square(rng)
    i = rng.randrange(k)
    how = rng.choice(("zero", "repeat", "negate", "combine", "factor"))
    if how == "zero":
        rows[i] = (0,) * k
    elif how in ("repeat", "negate") and k > 1:
        j = rng.choice([j for j in range(k) if j != i])
        rows[i] = tuple(x if how == "repeat" else -x for x in rows[j])
    elif how == "combine":
        c = [rng.randint(-2, 2) for _ in rows]
        rows[i] = tuple(sum(cj * r[t] for j, (cj, r) in enumerate(zip(c, rows))
                            if j != i) for t in range(k))
    else:
        rows[i] = tuple(rng.randint(2, 4) * x for x in rows[i])
    return k, [], rows


def _peelable(rng):
    """A k x k system, k in 4..8: unit rows +-e_j on distinct columns and a
    core of 0 to 4 rows over all columns, sometimes with a single-entry
    +-2 row (a core row), a second unit row on a used column, or a zero
    or unit-on-used-column equality row."""
    k = rng.randint(4, 8)
    core = rng.randint(0, min(4, k))
    cols = rng.sample(range(k), k - core)

    def unit(j, c):
        return tuple(c if t == j else 0 for t in range(k))

    rows = [unit(j, rng.choice((1, -1))) for j in cols]
    for _ in range(core):
        if rng.random() < 0.2:
            rows.append(unit(rng.randrange(k), rng.choice((2, -2))))
        else:
            rows.append(tuple(rng.randint(-3, 3) for _ in range(k)))
    if cols and rng.random() < 0.1:
        rows[-1] = unit(rng.choice(cols), rng.choice((1, -1)))
    rng.shuffle(rows)
    eqs = []
    if rng.random() < 0.1:
        eqs = [(0,) * k] if rng.random() < 0.5 else [unit(rng.randrange(k), 1)]
    return k, eqs, rows


def test_closed_form_path_matches_the_dd(monkeypatch):
    # generators_from_constraints answers a simplicial system in its reach
    # by cofactors and runs the DD on every other one, with the DD's output
    # either way; the dim-0 call falls back too
    reached = []
    plain = dd._state
    monkeypatch.setattr(dd, "_state",
                        lambda *args: reached.append(args) or plain(*args))
    rng = random.Random(4242)
    systems = [(0, [], [])]
    systems += [_small_square(rng) for _ in range(1500)]
    systems += [_degenerate_square(rng) for _ in range(500)]
    systems += [_peelable(rng) for _ in range(1500)]
    seen = {"fast": 0, "fast_peeled": 0, "dd": 0, "dd_square": 0}
    for n, eqs, ineqs in systems:
        reached.clear()
        got = dd.generators_from_constraints(n, eqs, ineqs)
        fast = _in_closed_form_reach(n, eqs, ineqs)
        assert bool(reached) != fast, (n, eqs, ineqs)
        assert got == _dd_output(n, eqs, ineqs), (n, eqs, ineqs)
        seen["fast" if fast else "dd"] += 1
        seen["fast_peeled"] += fast and n > 3
        seen["dd_square"] += not fast and n > 0 and len(ineqs) == n
    assert seen["fast"] >= 2000 and seen["fast_peeled"] >= 500, seen
    assert seen["dd_square"] >= 600, seen


def test_git_side_traffic_takes_the_closed_form_path(monkeypatch):
    # on the gradings of CI's grading.json and m4.json and on a realized
    # 2-d pair, no system in the closed form's reach that enters
    # generators_from_constraints runs a DD pass, while git_fan's own
    # cells still start from dd._state
    inside, reached, direct, seen = [], [], [], []
    plain_gen, plain_state = dd.generators_from_constraints, dd._state

    def gen(n, eqs, ineqs):
        seen.append((n, eqs, ineqs))
        inside.append(True)
        try:
            return plain_gen(n, eqs, ineqs)
        finally:
            inside.pop()

    def state(*args):
        (reached if inside else direct).append(args)
        return plain_state(*args)

    monkeypatch.setattr(dd, "generators_from_constraints", gen)
    monkeypatch.setattr(dd, "_state", state)
    fans_ = [git_fan(graded_projection(w)) for w in (
        [[4, 1], [2, 1], [1, 2], [1, 3]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
         [1, 1, 1, 1], [1, 2, 0, 1]])]
    assert [len(f.git_cones) for f in fans_] == [3, 10]
    assert all(f.fan_verified for f in fans_)
    assert len(direct) == 2
    trapezoid = from_v(VRep(((0, 0), (2, 0), (0, 1), (1, 1)), ()))
    triangle = from_v(VRep(((0, 0), (1, 0), (0, 1)), ()))
    report = refinement_iff_interior(trapezoid, triangle)
    assert report.refines_normal_fans and report.agree
    assert len(direct) == 2
    assert not [a for a in reached if _in_closed_form_reach(*a)]
    fast = [a for a in seen if _in_closed_form_reach(*a)]
    assert len(fast) >= 35 and sum(n > 3 for n, _, _ in fast) >= 20, \
        [n for n, _, _ in fast]
