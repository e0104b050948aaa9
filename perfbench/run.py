"""normloc benchmark: seeded closed-loop workloads of public calls.

    python3 perfbench/run.py --workload {locate,gitfan,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` (never from an installed copy), so nothing needs building.  One
process, one caller, one op at a time, no think time: a closed loop that
keeps one core busy.

Set-up (``setup_s``) runs from the start of this script to the first timed
op: ``import normloc`` once, then building the seeded inputs and one warm-up
op from a separate seed stream, repeated five times with the median kept.
The timed loop then cycles through the seed's pool of ops until ``--seconds``
have passed (and at least 100 ops ran), clearing the package's caches
whenever the pool starts over, so caches hit only where one pass over
distinct inputs reuses them.  Every result is checked against the committed
reference for the seed when one exists, and always against invariants the
paper pins or theorems guarantee; an op that raises or fails a check counts
in ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``ops_per_s`` is ops over
the summed op wall time, ``op_p50_ms``/``op_p90_ms`` are latency
percentiles (their sample count is printed), ``peak_rss_mb`` is the
process's peak resident set.  The times behind ``ops_per_s``, the latencies
and ``setup_s`` are scaled to a nominal machine speed by a probe loop timed
between the ops and while the inputs are built (see ``speed.py``), because
the shared host's own speed drifts by more than the bounds; the raw
wall-clock values are printed as ``#`` lines.

``--trace 1`` instead times a fixed prefix of the pool in pairs of passes,
one plain and one with layer spans (see ``spans.py``), and reports
per-layer calls, counts and self time of the traced passes, the tracing
overhead and the time no layer covers; its times are scaled to the nominal
machine speed pass by pass.  The traced and plain passes must produce
identical result digests, and every wrapped name must be the original
object again afterwards.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of the first
traced pass go to ``perfbench/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

# compile from source on every run so set-up does not depend on whether an
# earlier run left bytecode behind
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
# probe samples that scale the import time
IMPORT_PROBES = 30
# wall time between two speed-probe samples
PROBE_EVERY_NS = 10_000_000
MIN_OPS = 100
MAX_LOGGED = 5
# spelled out here because the arguments are parsed before the package (and
# so workloads.py) can be imported
WORKLOAD_NAMES = ("locate", "gitfan", "sweep")


def import_normloc():
    """Import the package from this checkout's src/, or exit non-zero."""
    pkg = SRC / "normloc"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {pkg}; run from the root "
                 "of a normloc checkout")
    sys.path.insert(0, str(SRC))
    import normloc
    if Path(normloc.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"benchmark: imported normloc from {normloc.__file__}, "
                 f"not from {pkg}")
    return normloc


def environment(normloc, args):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "backend": normloc.backend(),
            "NORMLOC_NO_EXT": bool(os.environ.get("NORMLOC_NO_EXT")),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def clear_caches():
    """Empty every lru_cache in the package (hit statistics reset too)."""
    import spans
    for mod in spans.normloc_modules():
        for val in list(vars(mod).values()):
            clear = getattr(val, "cache_clear", None)
            if callable(clear):
                clear()


def set_up(workload, seed, import_s):
    """The pool and setup_s, scaled to the nominal machine speed."""
    import workloads
    probes = speed.Speed(PROBE_EVERY_NS)
    probes.sample(IMPORT_PROBES)
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        pool = None  # every repeat builds on the same heap
        clear_caches()
        first = len(probes.stretches)
        probes.sample()  # the repeat's time starts after this probe
        pool = workloads.build_pool(workload, seed, probes.tick)
        workloads.build_warmup(workload, seed).run()
        probes.tick(force=True)
        raw_ns, nominal_ns = probes.stretches_since(first)
        times.append(raw_ns / 1e9)
        scaled.append(nominal_ns / 1e9)
    clear_caches()
    raw_s = import_s + statistics.median(times)
    print(f"# raw setup_s = {raw_s:.6g} s (import {import_s:.4g} s, "
          f"repeats {', '.join(f'{t:.4g}' for t in times)} s; nominal "
          f"{', '.join(f'{t:.4g}' for t in scaled)} s)")
    return pool, import_s * probes.factor(0, IMPORT_PROBES) \
        + statistics.median(scaled)


def reference_path(name, seed):
    return REFERENCE_DIR / f"{name}-{seed}.json"


def load_reference(name, seed, pool_size):
    path = reference_path(name, seed)
    if not path.is_file():
        return None
    with open(path) as fh:
        records = json.load(fh)["records"]
    if len(records) != pool_size:
        sys.exit(f"benchmark: {path} holds {len(records)} records for a "
                 f"pool of {pool_size} ops; remake the reference")
    return records


class Outcome:
    """Attempted and failed ops, logging the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, j, op, err):
        self.attempted += 1
        if err is None:
            return
        self.failed += 1
        if self.failed <= MAX_LOGGED:
            print(f"FAIL op {j} ({op.kind} {op.fn}): {err}", file=sys.stderr)


def run_op(op, reference):
    """(wall ns, record, error) of one op; only the public call is timed."""
    import workloads
    t0 = time.perf_counter_ns()
    try:
        result = op.run()
    except Exception:
        wall = time.perf_counter_ns() - t0
        return wall, None, "raised " + traceback.format_exc(limit=3)
    wall = time.perf_counter_ns() - t0
    rec, err = workloads.verify(op, result, reference)
    return wall, rec, err


def timed_run(pool, references, seconds, outcome):
    probes = speed.Speed(PROBE_EVERY_NS)
    clear_caches()
    walls, marks = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < deadline:
        j = i % len(pool)
        if j == 0 and i:
            clear_caches()  # a new pass over the pool starts cold
        marks.append(probes.mark())
        wall, _, err = run_op(pool[j], references and references[j])
        walls.append(wall)
        outcome.add(j, pool[j], err)
        probes.tick()
        i += 1
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"# latency samples: {len(walls)} ops, {sum(walls) / 1e9:.3f} s "
          f"timed, {len(probes.samples)} speed probes")
    raw = latency_metrics(walls)
    print("# raw " + ", ".join(f"{name} = {value:.6g} {unit}"
                               for name, (value, unit) in raw.items()))
    metrics = latency_metrics(probes.scale(walls, marks))
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return metrics


def latency_metrics(walls):
    """ops_per_s and latency percentiles of op wall times in ns."""
    ms = sorted(w / 1e6 for w in walls)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return {"ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_p90_ms": (p90, "ms")}


def run_pass(ops, references, outcome, tracer=None, probes=None):
    """One cold pass over ops: (op walls in ns, result records).

    With probes given, the pass ends with a probe sample and its times can
    be scaled by ``probes.factor`` from the mark taken before it.
    """
    clear_caches()
    walls, records = [], []
    for j, op in enumerate(ops):
        if tracer is not None:
            tracer.op = j
        wall, rec, err = run_op(op, references and references[j])
        walls.append(wall)
        records.append(rec)
        outcome.add(j, op, err)
        if probes is not None:
            probes.tick()
    if probes is not None:
        probes.tick(force=True)
    return walls, records


def transparency_problems(tracer, plain, traced):
    """Ways the traced pass differed from the plain one, if any."""
    import workloads
    problems = [f"{name} not restored" for name in tracer.uninstall()]
    if workloads.digest(plain) != workloads.digest(traced):
        problems.append("traced results differ from untraced results")
    gitfan = sys.modules["normloc.gitfan"]
    for attr in ("_fiber_cached", "_git_cone_cached", "weight_cone"):
        fn = getattr(gitfan, attr, None)
        if fn is not None and not callable(getattr(fn, "cache_info", None)):
            problems.append(f"gitfan.{attr}.cache_info unreachable")
    return problems


def traced_run(workload, pool, references, seconds, outcome, env):
    import spans
    import workloads
    ops = workloads.trace_prefix(workload, pool)
    probes = speed.Speed(PROBE_EVERY_NS)
    deadline = time.perf_counter() + seconds
    plain_ns = traced_ns = 0
    per_pass = []
    caches = None
    problems = []
    first_spans = None
    while not per_pass or time.perf_counter() < deadline:
        lo = probes.mark()
        walls, plain = run_pass(ops, references, outcome, probes=probes)
        plain_ns += sum(walls) * probes.factor(lo)
        tracer = spans.Tracer()
        clear_caches()
        before = spans.cache_infos()
        tracer.install()
        lo = probes.mark()
        walls, traced = run_pass(ops, references, outcome, tracer, probes)
        after = spans.cache_infos()
        problems += transparency_problems(tracer, plain, traced)
        factor = probes.factor(lo)
        traced_ns += sum(walls) * factor
        per_pass.append({
            name: (value * factor if unit == "s" else value, unit)
            for name, (value, unit) in
            spans.layer_metrics(tracer.spans, walls).items()})
        if caches is None:
            caches = spans.cache_metrics(before, after)
            first_spans = tracer.spans
    for p in problems[:MAX_LOGGED]:
        print(f"TRACE {p}", file=sys.stderr)
    write_spans(first_spans, env)

    metrics = dict(per_pass[0])
    for name, (_, unit) in per_pass[0].items():
        if unit == "s":  # times vary per pass; counts repeat exactly
            metrics[name] = (statistics.median(m[name][0] for m in per_pass),
                             unit)
    metrics.update(caches)
    metrics["trace.ops"] = (len(ops), "count")
    metrics["trace.passes"] = (len(per_pass), "count")
    metrics["trace.overhead_ratio"] = (traced_ns / plain_ns, "ratio")
    total_self = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    print("# layer shares of traced self time (primitive, dot and vec_* "
          "helpers are not wrapped; their time is in their caller's, "
          "mostly dd):")
    for layer in spans.LAYERS:
        share = metrics[f"{layer}.self_s"][0] / total_self if total_self \
            else 0.0
        print(f"#   {layer:10s} {share:6.1%}")
    return metrics, not problems


def write_spans(span_list, env):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{env['workload']}-{env['seed']}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"env": env, "fields": [
            "span", "parent", "op", "layer", "name", "start_ns", "end_ns"]})
            + "\n")
        for s in span_list:
            fh.write(json.dumps(s[:7]) + "\n")
    print(f"# spans of the first traced pass: {path.relative_to(ROOT)}")


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description="Seeded closed-loop benchmark of public normloc calls.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    normloc = import_normloc()
    import_s = time.perf_counter() - T_START
    import workloads

    env = environment(normloc, args)
    print("# env " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]
    pool, setup_s = set_up(workload, args.seed, import_s)
    references = load_reference(workload.name, args.seed, len(pool))
    print(f"# pool: {len(pool)} ops; reference: "
          f"{'committed' if references else 'none, invariants only'}")
    # the pool and references are the harness's own objects: keep them out
    # of the collector's scans so they do not tax the timed ops
    gc.collect()
    gc.freeze()
    outcome = Outcome()
    if args.trace:
        metrics, transparent = traced_run(workload, pool, references,
                                          args.seconds, outcome, env)
    else:
        metrics = timed_run(pool, references, args.seconds, outcome)
        metrics["setup_s"] = (setup_s, "s")
        transparent = True
    print(f"# fail_ratio: {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0 and transparent,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
