"""Command line front end.

Inputs are JSON files (polyhedra as vertex or halfspace dicts, gradings as
weight lists); every command prints a single JSON report to stdout with
deterministic key order and human-readable diagnostics to stderr.  Exit
status: 0 when the checked property holds (or the requested object was
computed), 1 when the property fails and a witness or failure record is in
the report, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cases import boundary_grading, triangle_pair
from .errors import NormlocError
from .exact import positive_int
from .fans import normal_fan
from .gitfan import (fiber, fiber_point_sum_exact, git_fan,
                     graded_projection_from_dict, located_multiple_search,
                     multiple_making_sums_exact, normal_fan_refines,
                     realize_pair)
from .latpoints import (VERDICT_EXHAUSTED, VERDICT_NOT_LOCATED, is_normal,
                        normally_located)
from .polyhedra import polyhedron_from_dict, polyhedron_to_dict


def _parse_window(text):
    """Parse "lo..hi,lo..hi,..." into a (lo, hi) box pair."""
    lo, hi = [], []
    for part in text.split(","):
        a, sep, b = part.partition("..")
        if not sep:
            raise NormlocError(f"bad window range {part!r}, want lo..hi")
        lo.append(_parse_int(a, text))
        hi.append(_parse_int(b, text))
    return tuple(lo), tuple(hi)


def _parse_vector(text):
    return tuple(_parse_int(x, text) for x in text.split(","))


def _parse_int(word, text):
    try:
        return int(word)
    except ValueError:
        raise NormlocError(f"bad integer {word!r} in {text!r}") from None


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # bad UTF-8 or JSON, nesting past the recursion limit, too many digits
        except (ValueError, RecursionError) as exc:
            raise NormlocError(f"{path}: {exc}") from None


def _load_poly(path):
    return polyhedron_from_dict(_load_json(path))


def _inputs(args, count):
    paths = args.input or []
    if len(paths) != count:
        raise NormlocError(f"expected {count} --input file(s), "
                           f"got {len(paths)}")
    return paths


def _emit(payload):
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _report_exit(report):
    return int(report.verdict in (VERDICT_NOT_LOCATED, VERDICT_EXHAUSTED))


def _cmd_normal_check(args):
    p = _load_poly(_inputs(args, 1)[0])
    report = is_normal(p) if args.s_max is None else is_normal(p, args.s_max)
    _emit({"command": "normal-check", **report.to_dict()})
    return _report_exit(report)


def _cmd_located_check(args):
    paths = _inputs(args, 2)
    p, q = _load_poly(paths[0]), _load_poly(paths[1])
    window = None if args.window is None else _parse_window(args.window)
    report = normally_located(p, q, window)
    _emit({"command": "located-check", **report.to_dict()})
    return _report_exit(report)


def _cmd_normal_fan(args):
    p = _load_poly(_inputs(args, 1)[0])
    _emit({"command": "normal-fan", "fan": normal_fan(p).to_dict()})
    return 0


def _cmd_refine_check(args):
    paths = _inputs(args, 2)
    ok = normal_fan_refines(_load_poly(paths[0]), _load_poly(paths[1]))
    _emit({"command": "refine-check", "refines": ok})
    return 0 if ok else 1


def _cmd_gitfan(args):
    g = graded_projection_from_dict(_load_json(_inputs(args, 1)[0]))
    result = git_fan(g)
    _emit({"command": "gitfan", **result.to_dict()})
    return 0 if result.fan_verified else 1


def _cmd_fiber(args):
    g = graded_projection_from_dict(_load_json(_inputs(args, 1)[0]))
    f = fiber(g, _parse_vector(args.u))
    _emit({"command": "fiber", "fiber": polyhedron_to_dict(f)})
    return 0


def _cmd_realize(args):
    paths = _inputs(args, 2)
    pair = realize_pair(_load_poly(paths[0]), _load_poly(paths[1]))
    _emit({"command": "realize", **pair.to_dict()})
    return 0


def _cmd_p3_search(args):
    g = graded_projection_from_dict(_load_json(_inputs(args, 1)[0]))
    report = multiple_making_sums_exact(g, _parse_vector(args.u1),
                                        _parse_vector(args.u2),
                                        args.k_max, args.s_max)
    _emit({"command": "p3-search", **report.to_dict()})
    return _report_exit(report)


def _cmd_mcrit_search(args):
    paths = _inputs(args, 2)
    report = located_multiple_search(_load_poly(paths[0]),
                                     _load_poly(paths[1]),
                                     args.k_max, args.s_max)
    _emit({"command": "mcrit-search", **report.to_dict()})
    return _report_exit(report)


def _cmd_paper_counterexample(args):
    p, q = triangle_pair(args.k)
    report = normally_located(p, q)
    _emit({"command": "paper-counterexample", "k": args.k,
           **report.to_dict()})
    return _report_exit(report)


def _cmd_paper_oldex(args):
    # s = 0 would check the one-point fibers over 0: a verdict on no input
    positive_int(args.s, "scale")
    g, u1, u2 = boundary_grading()
    w1 = tuple(args.s * x for x in u1)
    w2 = tuple(args.s * x for x in u2)
    report = fiber_point_sum_exact(g, w1, w2)
    _emit({"command": "paper-oldex", "s": args.s, **report.to_dict()})
    return _report_exit(report)


_INT_HELP = {"s_max": "largest scale to check",
             "k_max": "largest multiple to try",
             "k": "multiple of the built-in triangle pair",
             "s": "scale of the built-in grading's degrees"}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="normloc",
        description="Exact checks for normality, normal location, normal "
                    "fans, and GIT fans of lattice polyhedra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, doc, inputs=True, window=False, vectors=(),
            **ints):
        cmd = sub.add_parser(name, help=doc, description=doc)
        cmd.set_defaults(func=func)
        if inputs:
            cmd.add_argument("--input", action="append", metavar="FILE",
                             help="input JSON file (repeatable)")
        for key, default in ints.items():
            doc = _INT_HELP[key]
            if default is None:
                doc += (" (default: every scale, exact by the "
                        "Bruns-Gubeladze-Trung bound)")
            cmd.add_argument("--" + key.replace("_", "-"), type=int,
                             default=default, help=doc)
        if window:
            cmd.add_argument("--window", metavar="LO..HI,...", default=None,
                             help="box per axis, e.g. 0..10,0..10")
        for name2, kind in vectors:
            cmd.add_argument(name2, type=str, required=True, help=kind)

    add("normal-check", _cmd_normal_check,
        "check normality of a lattice polytope (up to --s-max when given)",
        s_max=None)
    add("located-check", _cmd_located_check,
        "check that the pair (P, Q) is normally located", window=True)
    add("normal-fan", _cmd_normal_fan,
        "print the normal fan of a polyhedron")
    add("refine-check", _cmd_refine_check,
        "check that the normal fan of the first input refines the second")
    add("gitfan", _cmd_gitfan,
        "compute the GIT fan of a grading")
    add("fiber", _cmd_fiber,
        "compute the fiber polyhedron of a grading at degree --u",
        vectors=(("--u", "degree, comma separated"),))
    add("realize", _cmd_realize,
        "embed two polyhedra as fibers of one grading")
    add("p3-search", _cmd_p3_search,
        "search a multiple making fiber point sums exact",
        k_max=6, s_max=4,
        vectors=(("--u1", "first degree"), ("--u2", "second degree")))
    add("mcrit-search", _cmd_mcrit_search,
        "search a multiple making the pair normally located",
        k_max=6, s_max=4)
    add("paper-counterexample", _cmd_paper_counterexample,
        "run the built-in triangle pair at multiple --k", inputs=False, k=1)
    add("paper-oldex", _cmd_paper_oldex,
        "run the built-in boundary grading at scale --s", inputs=False, s=1)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NormlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
