"""Seeded workloads of public normloc calls, with result records and checks.

An op is one public call on inputs built before timing starts.  Each op
kind knows how to draw its parameters from a ``random.Random`` (cheap, and
the parameters double as the key that keeps inputs distinct across the
pool), how to build the inputs from them (this runs the library and is part
of set-up), how to turn the result into a JSON record for the reference,
and which invariants every result must satisfy when no reference exists:
the paper's pinned witnesses and verdicts that theorems guarantee.  The
brute-force oracle of each kind runs only when references are made.

A workload's pool is its lead ops followed by ``rounds`` round-robin passes
over its op pattern, so every prefix of the pool mixes the kinds evenly.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field

import normloc
from normloc.cases import boundary_grading, triangle_pair

import oracles

# brute-force work (box points, point-pair sums) above which the reference
# maker skips an op's oracle
ORACLE_LIMIT = 200_000


@dataclass
class Op:
    fn: str
    args: tuple
    meta: dict = field(default_factory=dict)
    kind: str = ""

    def run(self):
        # resolved at call time so that installed span wrappers are used
        return getattr(normloc, self.fn)(*self.args)


@dataclass(frozen=True)
class Kind:
    draw: object     # (rng, j) -> hashable parameters
    build: object    # parameters -> Op, or None to redraw
    record: object   # result -> JSON-able dict
    check: object    # (op, result) -> error string or None
    oracle: object   # (op, record) -> error string, "skipped" or None


@dataclass(frozen=True)
class Workload:
    name: str
    lead: tuple      # kinds run once at the head of the pool
    pattern: tuple   # kinds of one round
    rounds: int      # rounds in the pool
    trace_rounds: int  # rounds in each traced pass
    warmup: str      # kind of the set-up warm-up op


# ---- input generators -----------------------------------------------------

def _points(rng, d, bound, npoints):
    return tuple(sorted({tuple(rng.randint(0, bound) for _ in range(d))
                         for _ in range(npoints)}))


def _polytope(points):
    """Full-dimensional lattice polytope spanned by points, else None."""
    try:
        p = normloc.from_v(normloc.VRep(points, ()))
    except normloc.NormlocError:
        return None
    return p if p.affine_dimension() == p.dim else None


def _weights(rng, m, n, hi):
    while True:
        ws = tuple(tuple(rng.randint(0, hi) for _ in range(m))
                   for _ in range(n))
        if all(any(w) for w in ws):
            return ws


def _grading(ws):
    try:
        return normloc.graded_projection(ws)
    except normloc.NormlocError:
        return None  # weights do not span Z^m


def _degree(rng, ws, cmax):
    while True:
        cs = [rng.randint(0, cmax) for _ in ws]
        if any(cs):
            return tuple(sum(c * w[i] for c, w in zip(cs, ws))
                         for i in range(len(ws[0])))


# ---- records --------------------------------------------------------------

def location_record(rep):
    w = rep.witness
    return {"verdict": rep.verdict,
            "witness": list(w.point) if w else None,
            "kind": w.kind if w else None,
            "scale": w.scale if w else None}


def sweep_record(rep):
    return {"verdict": rep.verdict, "k": rep.checked.get("k"),
            "failures": rep.checked.get("failures")}


def cone_record(c):
    return {"rays": [list(r) for r in c.rays],
            "lines": [list(ln) for ln in c.lines]}


def fan_record(gf):
    return {"weight_cone": cone_record(gf.weight_cone),
            "chambers": [cone_record(c) for c in gf.git_cones],
            "fan_verified": gf.fan_verified}


def normalize(record):
    return json.loads(json.dumps(record))


def digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---- checks ---------------------------------------------------------------

def _expect(cond, what):
    return None if cond else what


def _check_verdict(verdict):
    return lambda op, rep: _expect(rep.verdict == verdict,
                                   f"verdict {rep.verdict}, want {verdict}")


def _check_tri(op, rep):
    k, t = op.meta["k"], op.meta["t"]
    w = rep.witness
    return _expect(rep.verdict == "not_located" and w is not None
                   and w.point == (1 + t[0], 385 * k - 2 + t[1])
                   and w.kind == "no_decomposition" and w.scale == 1,
                   f"triangle pair k={k} moved by {t}: want witness "
                   f"(1, {385 * k - 2}) + t")


def _check_enum(op, pts):
    p = op.args[0]
    return (_expect(len(pts) == oracles.pick_count(p.v.vertices),
                    "point count differs from Pick's theorem")
            or _expect(all(a < b for a, b in zip(pts.points, pts.points[1:])),
                       "points not in strict lex order"))


def _check_split(op, split):
    z, p, q = op.args
    if op.meta["expect"] is None:
        return _expect(split is None, f"{z} must not split")
    if split is None:
        return f"{z} must split"
    a, b = split
    return _expect(tuple(x + y for x, y in zip(a, b)) == z
                   and p.contains(a) and q.contains(b),
                   f"split {split} of {z} is not a split")


def _check_fan(op, gf):
    m = op.args[0].m
    return (_expect(gf.fan_verified, "fan not verified")
            or _expect(gf.git_cones, "no chambers")
            or _expect(all(not c.lines and c.span_dim == m
                           for c in gf.git_cones),
                       "chamber not pointed and full-dimensional"))


def _check_cone(op, c):
    return _expect(c.contains_point(op.args[1]) and not c.lines and c.rays,
                   "GIT cone misses its degree or is not pointed")


def _check_refine(op, rep):
    want = oracles.polygon_refines(*op.args)
    return (_expect(rep.agree, "refinement and GIT sides disagree")
            or _expect(rep.refines_normal_fans == want,
                       f"refines={rep.refines_normal_fans}, edge normals "
                       f"say {want}"))


def _check_fiber_sweep(op, rep):
    g, u1, u2, k_max, s_max = op.args
    if rep.verdict == "verified_up_to":
        return _expect(1 <= rep.checked["k"] <= k_max, "k out of range")
    if rep.verdict != "exhausted":
        return f"verdict {rep.verdict}"
    fails = rep.checked["failures"]
    if [f[0] for f in fails] != list(range(1, k_max + 1)):
        return "failure list does not cover k = 1..k_max"
    for k, s, z in fails:
        deg = tuple(s * k * (a + b) for a, b in zip(u1, u2))
        img = tuple(sum(x * w[i] for x, w in zip(z, g.weights))
                    for i in range(g.m))
        if min(z) < 0 or img != deg or not 1 <= s <= s_max:
            return f"witness {z} is not in the fiber over {deg}"
    return None


def _check_boundary(op, rep):
    return (_expect(rep.verdict == "exhausted",
                    "boundary grading must exhaust the sweep")
            or _check_fiber_sweep(op, rep))


def _check_lms(op, rep):
    return _expect(rep.verdict == "verified_up_to"
                   and rep.checked["k"] == 1,
                   "refining planar pair not located at multiple 1")


# ---- oracles (reference making only) --------------------------------------

def _oracle_location(op, rec):
    z = oracles.location_witness(*op.args, ORACLE_LIMIT)
    if z is False:
        return "skipped"
    return _expect(rec["witness"] == (list(z) if z else None),
                   f"oracle witness {z}, op gave {rec['witness']}")


def _oracle_normal(op, rec):
    p, s_max = op.args
    got = oracles.normality_witness(p, s_max, ORACLE_LIMIT)
    if got is False:
        return "skipped"
    want = [got[0], list(got[1])] if got else None
    have = [rec["scale"], rec["witness"]] if rec["witness"] else None
    return _expect(want == have, f"oracle failure {want}, op gave {have}")


def _oracle_enum(op, rec):
    pts = oracles.lattice_points(op.args[0], ORACLE_LIMIT)
    if pts is None:
        return "skipped"
    return _expect(rec == _enum_record(pts), "point list differs")


def _oracle_split(op, rec):
    got = oracles.lex_least_split(*op.args, ORACLE_LIMIT)
    if got is False:
        return "skipped"
    want = [list(got[0]), list(got[1])] if got else None
    return _expect(rec["split"] == want, f"oracle split {want}")


def _oracle_cone(op, rec):
    g, u = op.args
    want = normalize(cone_record(oracles.git_cones_by_orbits(g, [u])[0]))
    return _expect(rec == want, f"orbit-cone oracle gives {want}")


def _oracle_fan(op, rec):
    # the sum of a chamber's rays is interior to it, so its GIT cone by the
    # orbit-cone definition must be the chamber itself
    inner = [tuple(sum(col) for col in zip(*ch["rays"]))
             for ch in rec["chambers"]]
    want = [normalize(cone_record(c))
            for c in oracles.git_cones_by_orbits(op.args[0], inner)]
    return _expect(want == rec["chambers"],
                   "chambers differ from the orbit cones at their centres")


def _oracle_fiber_sweep(op, rec):
    g, u1, u2, k_max, s_max = op.args
    got = oracles.fiber_sweep(g.weights, u1, u2, k_max, s_max, ORACLE_LIMIT)
    return _sweep_agrees(got, rec)


def _oracle_lms(op, rec):
    got = oracles.located_sweep(*op.args, ORACLE_LIMIT)
    return _sweep_agrees(got, rec)


def _sweep_agrees(got, rec):
    if got is None:
        return "skipped"
    verdict, detail = got
    have = rec["k"] if verdict == "verified_up_to" else rec["failures"]
    return _expect(verdict == rec["verdict"] and detail == have,
                   f"oracle sweep gives {verdict} {detail}")


def _no_oracle(op, rec):
    return "skipped"


# ---- op kinds -------------------------------------------------------------

def _tri_draw(rng, j):
    # a translate of P keeps the scan's work and moves the witness by t, so
    # the pinned dilations 1..40 give distinct inputs of fixed cost
    return rng.randint(1, 40), (rng.randint(-60, 60), rng.randint(-60, 60))


def _tri_build(params):
    k, t = params
    p, q = triangle_pair(k)
    return Op("normally_located", (normloc.translate(p, t), q),
              {"k": k, "t": t})


def _qq_build(_):
    # the located full sweep of benchmarks/bench_scan.py: (Q, Q)
    _, q = triangle_pair()
    return Op("normally_located", (q, q))


def _pair_draw(rng, j):
    return _points(rng, 2, 6, 5), rng.randint(1, 3)


def _pair_build(params):
    pts, k = params
    r = _polytope(pts)
    return r and Op("normally_located", (r, normloc.scale(r, k)))


def _poly_draw(rng, j):
    # polygons of 25-45 lattice points, so the op size is fixed
    while True:
        pts = _points(rng, 2, 12, 5)
        if len(oracles.hull2(pts)) >= 3 and \
                25 <= oracles.pick_count(pts) <= 45:
            return pts


def _poly_build(pts):
    p = _polytope(pts)
    return p and Op("is_normal", (p, 4))


def _poly3_draw(rng, j):
    return _points(rng, 3, 4, 6)


def _poly3_build(pts):
    # 3-polytopes of 8-12 lattice points, so the op size is fixed
    p = _polytope(pts)
    if p is None or not 8 <= len(oracles.lattice_points(p, 125)) <= 12:
        return None
    return Op("is_normal", (normloc.scale(p, 2), 3))


def _enum_record(pts):
    pts = [list(z) for z in pts]
    return {"count": len(pts), "first": pts[0] if pts else None,
            "last": pts[-1] if pts else None, "digest": digest(pts)[:16]}


def _enum_draw(rng, j):
    return _points(rng, 2, 60, 6)


def _enum_build(pts):
    p = _polytope(pts)
    return p and Op("enumerate_points", (p,))


def _enum3p_build(_):
    # the full enumeration of benchmarks/bench_scan.py: the triangle 3P
    return Op("enumerate_points", (triangle_pair(3)[0],))


def _split_draw(rng, j):
    if j % 2 == 0:
        return ("tri",) + _tri_draw(rng, j)
    return "pair", _points(rng, 2, 6, 5), rng.randint(1, 3), rng.random()


def _split_build(params):
    if params[0] == "tri":
        _, k, t = params
        p, q = triangle_pair(k)
        z = (1 + t[0], 385 * k - 2 + t[1])
        return Op("decompose", (z, normloc.translate(p, t), q),
                  {"expect": None})
    _, pts, k, u = params
    p = _polytope(pts)
    if p is None:
        return None
    q = normloc.scale(p, k)
    total = normloc.minkowski_sum(p, q)
    lo, hi = oracles.box_of(total)
    inside = [z for z in oracles.box_points(lo, hi) if total.contains(z)]
    z = inside[int(u * len(inside))]
    return Op("decompose", (z, p, q), {"expect": "split"})


def _fan_draw(m, walls):
    # git_fan's cost follows the number of walls it cuts along, so every
    # pool draws weights with the same count: five weights in general
    # position span 10 planes in Z^3 and 5 directions in Z^2
    def draw(rng, j):
        while True:
            ws = _weights(rng, m, 5, 3 if m == 3 else 4)
            if oracles.wall_count(ws) == walls:
                return ws
    return draw


def _fan_build(ws):
    g = _grading(ws)
    return g and Op("git_fan", (g,))


def _cone_draw(rng, j):
    ws = _weights(rng, 3, 6, 3)
    return ws, _degree(rng, ws, 3)


def _cone_build(params):
    ws, u = params
    g = _grading(ws)
    return g and Op("git_cone", (g, u))


def _refine_draw(rng, j):
    # every other pair refines by construction (Q1 = Q2 + R); the two
    # normal fans have 7 rays together, so every realization has 9 weights
    while True:
        a, b = _points(rng, 2, 5, 5), _points(rng, 2, 5, 5)
        if len(oracles.hull2(a)) >= 3 and len(oracles.hull2(b)) >= 3 and \
                len(oracles.edge_normals(a) | oracles.edge_normals(b)) == 7:
            return j % 2, a, b


def _refine_build(params):
    refining, a, b = params
    q1, q2 = _polytope(a), _polytope(b)
    if q1 is None or q2 is None:
        return None
    if refining:
        q1 = normloc.minkowski_sum(q1, q2)
    return Op("refinement_iff_interior", (q1, q2))


def _refine_record(rep):
    return {"refines": rep.refines_normal_fans,
            "interior": rep.interior_of_common_git_cone,
            "agree": rep.agree, "u1": list(rep.pair.u1),
            "u2": list(rep.pair.u2)}


def _boundary_build(_):
    g, u1, u2 = boundary_grading()
    return Op("multiple_making_sums_exact", (g, u1, u2, 6, 4))


def _mmse_draw(rng, j):
    # the fiber over u1 + u2 holds 4-12 lattice points, which bounds the
    # fibers the sweep visits and so the op size
    while True:
        ws = _weights(rng, 2, 4, 3)
        u1, u2 = _degree(rng, ws, 2), _degree(rng, ws, 2)
        u12 = tuple(a + b for a, b in zip(u1, u2))
        if 4 <= len(oracles.fiber_points(ws, u12, 2_000) or ()) <= 12:
            return ws, u1, u2


def _mmse_build(params):
    ws, u1, u2 = params
    g = _grading(ws)
    return g and Op("multiple_making_sums_exact", (g, u1, u2, 2, 3))


def _lms_draw(rng, j):
    return _points(rng, 2, 4, 5), _points(rng, 2, 3, 5)


def _lms_build(params):
    q2, r = _polytope(params[0]), _polytope(params[1])
    if q2 is None or r is None:
        return None
    return Op("located_multiple_search",
              (normloc.minkowski_sum(q2, r), q2, 2, 4))


def _fixed(rng, j):
    return None


KINDS = {
    "tri": Kind(_tri_draw, _tri_build, location_record, _check_tri,
                _oracle_location),
    "qq": Kind(_fixed, _qq_build, location_record,
               _check_verdict("located"), _oracle_location),
    "pair": Kind(_pair_draw, _pair_build, location_record,
                 _check_verdict("located"), _oracle_location),
    "poly": Kind(_poly_draw, _poly_build, location_record,
                 _check_verdict("verified_up_to"), _oracle_normal),
    "poly3": Kind(_poly3_draw, _poly3_build, location_record,
                  _check_verdict("verified_up_to"), _oracle_normal),
    "enum": Kind(_enum_draw, _enum_build, _enum_record, _check_enum,
                 _oracle_enum),
    "enum3p": Kind(_fixed, _enum3p_build, _enum_record, _check_enum,
                   _oracle_enum),
    "split": Kind(_split_draw, _split_build,
                  lambda s: {"split": [list(s[0]), list(s[1])] if s
                             else None},
                  _check_split, _oracle_split),
    "fan3": Kind(_fan_draw(3, 10), _fan_build, fan_record, _check_fan,
                 _oracle_fan),
    "fan2": Kind(_fan_draw(2, 5), _fan_build, fan_record, _check_fan,
                 _oracle_fan),
    "cone": Kind(_cone_draw, _cone_build, cone_record, _check_cone,
                 _oracle_cone),
    "refine": Kind(_refine_draw, _refine_build, _refine_record,
                   _check_refine, _no_oracle),
    "boundary": Kind(_fixed, _boundary_build, sweep_record,
                     _check_boundary, _oracle_fiber_sweep),
    "mmse": Kind(_mmse_draw, _mmse_build, sweep_record, _check_fiber_sweep,
                 _oracle_fiber_sweep),
    "lms": Kind(_lms_draw, _lms_build, sweep_record, _check_lms,
                _oracle_lms),
}

# Why these workloads (BENCHMARK.json states it in one line each):
# * locate exercises the lattice scan: early-exit witnesses of the pinned
#   triangle pair, full-sweep located pairs and normality checks, plus the
#   two kernel systems of benchmarks/bench_scan.py as lead ops.  Exact
#   arithmetic and DD run mostly while the inputs are built.
# * gitfan exercises exact arithmetic, DD and cone canonicalization (GIT
#   fans, GIT cones, refinement cross-checks) and never calls the scan, so a
#   kernel change bypasses it.
# * sweep mixes both: many small scans per multiple sweep, a DD fiber per
#   degree, and fiber-cache reuse across (k, s).
# Each pattern puts the median op inside one kind's cost range (not between
# two kinds), so op_p50_ms does not jump with the seed's draws.
WORKLOADS = {w.name: w for w in (
    Workload("locate", lead=("qq", "enum3p"),
             pattern=("split", "enum", "pair", "pair", "tri", "poly",
                      "poly3"),
             rounds=80, trace_rounds=6, warmup="pair"),
    Workload("gitfan", lead=(),
             pattern=("cone", "fan2", "fan2", "refine", "fan3"),
             rounds=44, trace_rounds=5, warmup="fan2"),
    Workload("sweep", lead=("boundary",),
             pattern=("mmse", "mmse", "lms"),
             rounds=140, trace_rounds=16, warmup="lms"),
)}


def _make(kind, rng, j, seen):
    """A new op of the kind; j counts earlier ops of that kind."""
    spec = KINDS[kind]
    for _ in range(10_000):
        params = spec.draw(rng, j)
        if (kind, params) in seen:
            continue
        op = spec.build(params)
        if op:
            seen.add((kind, params))
            op.kind = kind
            return op
    raise RuntimeError(f"cannot draw a new {kind} input")


def build_pool(workload, seed, tick=None):
    """The workload's ops for a seed; inputs are distinct within the pool.

    ``tick()``, when given, is called after each op is built.
    """
    rng = random.Random(f"{workload.name}/{seed}/pool")
    seen = set()
    counts = {}
    ops = []
    for kind in workload.lead + workload.pattern * workload.rounds:
        ops.append(_make(kind, rng, counts.get(kind, 0), seen))
        counts[kind] = counts.get(kind, 0) + 1
        if tick:
            tick()
    return ops


def build_warmup(workload, seed):
    rng = random.Random(f"{workload.name}/{seed}/warmup")
    return _make(workload.warmup, rng, 0, set())


def trace_prefix(workload, pool):
    return pool[:len(workload.lead)
                + workload.trace_rounds * len(workload.pattern)]


def verify(op, result, reference=None):
    """Record of an op's result and the first problem found, if any."""
    spec = KINDS[op.kind]
    rec = normalize(spec.record(result))
    err = spec.check(op, result)
    if err is None and reference is not None and rec != reference:
        err = f"differs from the reference {reference}"
    return rec, err
