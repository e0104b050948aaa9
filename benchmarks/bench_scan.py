"""Compare the compiled scan kernels against the pure Python fallback.

Both backends are driven directly on identical systems, using workloads
with no early exit so each one enumerates the full point set (when the
compiled extension is not built, the pure backend is timed alone):

* scan_points over a scaled triangle (full enumeration),
* scan_undecomposed over a normally located pair (every point of the sum
  region splits and none fails; the compiled kernel searches a split for
  every point, the pure one first tries the previous point's split shifted
  and searches only when that fails).

The two backends run different loops, so whenever the extension is built
their results are compared on every system; the script exits 1 if they
differ.

Run:  python3 benchmarks/bench_scan.py [--repeat N]
"""

import argparse
import sys
import time

from normloc import _scan_py
from normloc.cases import triangle_pair
from normloc.kernels import backend
from normloc.latpoints import _rows
from normloc.polyhedra import minkowski_sum, vertex_box

try:
    from normloc import _scan as _ext
except ImportError:
    _ext = None


def _system(p):
    coeffs, rhs = _rows(p)
    lo, hi = vertex_box(p)
    return coeffs, rhs, lo, hi


def _bench(label, fn, args, repeat):
    best = min(_timed(fn, args) for _ in range(repeat))
    print(f"  {label:10s} {best * 1000:9.2f} ms")
    return best


def _compare(name, args, repeat):
    """Time ``name`` on the pure backend, and on the compiled one if built.

    Returns False when the two backends give different results.
    """
    pure_fn = getattr(_scan_py, name)
    pure = _bench("pure", pure_fn, args, repeat)
    if _ext is None:
        return True
    comp_fn = getattr(_ext, name)
    comp = _bench("compiled", comp_fn, args, repeat)
    print(f"  speedup    {pure / comp:9.1f}x")
    if comp_fn(*args) != pure_fn(*args):
        print(f"error: {name}: compiled and pure results differ",
              file=sys.stderr)
        return False
    return True


def _timed(fn, args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3,
                    help="best-of repetitions per measurement")
    opts = ap.parse_args(argv)
    if _ext is None:
        print("compiled extension not built; timing the pure backend only",
              file=sys.stderr)
    print(f"active backend: {backend()}")

    p, _ = triangle_pair(3)
    args = _system(p)
    npts = len(_scan_py.scan_points(*args))
    print(f"scan_points, {npts} points:")
    agree = _compare("scan_points", args, opts.repeat)

    _, q = triangle_pair()
    total = minkowski_sum(q, q)
    args = _system(total) + _system(q) + _system(q)
    assert _scan_py.scan_undecomposed(*args) is None  # located: full sweep
    rpts = len(_scan_py.scan_points(*_system(total)))
    print(f"scan_undecomposed, {rpts} sum points, no witness:")
    agree &= _compare("scan_undecomposed", args, opts.repeat)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
