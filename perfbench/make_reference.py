"""Make the committed correctness references of the benchmark.

    python3 perfbench/make_reference.py --workload locate --seeds 1 2 3

For each seed this builds the workload's pool, runs every op once, checks
each result against the kind's invariants and, where the brute force stays
under ``workloads.ORACLE_LIMIT``, against its independent oracle, then
writes ``perfbench/reference/<workload>-<seed>.json`` with one record per
op.  It writes nothing for a seed on which any check fails.
"""

import argparse
import json
import platform
import sys

import run


def make(workload, seed):
    import workloads
    pool = workloads.build_pool(workload, seed)
    run.clear_caches()
    records, counts, problems = [], {"checked": 0, "skipped": 0}, []
    for j, op in enumerate(pool):
        _, rec, err = run.run_op(op, None)
        if err is None:
            err = workloads.KINDS[op.kind].oracle(op, rec)
            if err == "skipped":
                counts["skipped"] += 1
                err = None
            elif err is None:
                counts["checked"] += 1
        if err is not None:
            problems.append(f"op {j} ({op.kind}): {err}")
        records.append(rec)
    return records, counts, problems


def write(path, header, records):
    body = ",\n".join(json.dumps(r, separators=(",", ":")) for r in records)
    head = json.dumps(header)[:-1]
    with open(path, "w") as fh:
        fh.write(f'{head}, "records": [\n{body}\n]}}\n')


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    normloc = run.import_normloc()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    status = 0
    for seed in args.seeds:
        records, counts, problems = make(workload, seed)
        if problems:
            status = 1
            print(f"{workload.name} seed {seed}: NOT written",
                  file=sys.stderr)
            for p in problems:
                print("  " + p, file=sys.stderr)
            continue
        header = {"workload": workload.name, "seed": seed,
                  "backend": normloc.backend(),
                  "python": platform.python_version(),
                  "oracle": counts, "digest": workloads.digest(records)}
        write(run.reference_path(workload.name, seed), header, records)
        print(f"{workload.name} seed {seed}: {len(records)} records, "
              f"oracle checked {counts['checked']}, "
              f"skipped {counts['skipped']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
