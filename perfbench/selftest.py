"""Self-test of the benchmark's layer tracing.

    python3 perfbench/selftest.py

For each workload it runs the first round of seed 1's pool untraced, then
traced, and checks that tracing is transparent: both passes give identical
result digests, the gitfan caches answer ``cache_info()`` while the wrappers
are installed and after, every wrapped name is the original object again
afterwards, and spans were recorded.  Exits 0 when every check holds.
"""

import sys

import run


def check(workload):
    import normloc
    import spans
    import workloads
    pool = workloads.build_pool(workload, 1)
    ops = pool[:len(workload.lead) + len(workload.pattern)]
    outcome = run.Outcome()
    _, plain = run.run_pass(ops, None, outcome)
    originals = {name: getattr(normloc, name)
                 for name in ("normally_located", "git_fan", "from_v")}
    tracer = spans.Tracer()
    tracer.install()
    problems = []
    if all(getattr(normloc, n) is f for n, f in originals.items()):
        problems.append("install wrapped nothing")
    gitfan = sys.modules["normloc.gitfan"]
    if not callable(getattr(gitfan.weight_cone, "cache_info", None)):
        problems.append("weight_cone.cache_info lost while wrapped")
    _, traced = run.run_pass(ops, None, outcome, tracer)
    problems += run.transparency_problems(tracer, plain, traced)
    if any(getattr(normloc, n) is not f for n, f in originals.items()):
        problems.append("public names not restored")
    if not tracer.spans:
        problems.append("no spans recorded")
    if outcome.failed:
        problems.append(f"{outcome.failed} ops failed their checks")
    return problems


def main():
    run.import_normloc()
    import workloads
    status = 0
    for workload in workloads.WORKLOADS.values():
        problems = check(workload)
        print(f"{workload.name}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print("  " + p)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
