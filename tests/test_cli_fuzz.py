"""Fuzz the CLI contract: any file or flag exits 0, 1 or 2, and never raises.

Exit 0 and 1 print one JSON object on stdout, and exit 1 only comes with a
stated failure in that report.  Inputs mix small valid polyhedra and
gradings with huge and non-finite numbers, strings, wrong lengths and
non-objects.  Huge finite coordinates only go to commands whose work does
not grow with the coordinates, so every example stays fast.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from normloc.cli import main

SMALL = st.integers(-3, 3)
JUNK = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 0.5, -1.7,
                     "1/2", "1/0", "x", "", True, None]),
    st.lists(SMALL, max_size=2),
    st.fixed_dictionaries({}),
)
HUGE = st.sampled_from([10 ** 30, -(10 ** 30), 1e300, "10000000000000000000"])


def _entries(draw, huge):
    """Half the files are clean: small integers only, right lengths."""
    if draw(st.booleans()):
        return SMALL, True
    return st.one_of(SMALL, SMALL, JUNK, *([HUGE] if huge else [])), False


def _vectors(entry, dim, clean):
    vector = st.lists(entry, min_size=dim, max_size=dim)
    if not clean:
        vector |= st.lists(entry, max_size=dim + 1)
    return st.lists(vector, min_size=1, max_size=4)


@st.composite
def polyhedra(draw, huge):
    entry, clean = _entries(draw, huge)
    dim = draw(st.integers(1, 3))
    form = draw(st.sampled_from(["v", "v", "h"] + ([] if clean else ["?"])))
    if form == "v":
        data = {"vertices": draw(_vectors(entry, dim, clean))}
        if draw(st.booleans()):
            data["rays"] = draw(_vectors(entry, dim, clean))
        return data
    if form == "h":
        row = st.fixed_dictionaries(
            {"normal": st.lists(entry, min_size=dim, max_size=dim),
             "rhs": entry})
        return {"inequalities": draw(st.lists(row, max_size=5)),
                "equalities": draw(st.lists(row, max_size=1))}
    return draw(st.one_of(JUNK, st.just([[0, 0], [1, 0]]), st.just({})))


@st.composite
def pairs(draw, huge):
    """Two polyhedra; often the second is a dilation of the first, so the
    pair has one normal fan and the searches get past their checks."""
    first = draw(polyhedra(huge))
    if (isinstance(first, dict) and "vertices" in first
            and draw(st.booleans())):
        k = draw(st.integers(2, 3))
        second = dict(first, vertices=[
            [k * x if isinstance(x, int) else x for x in v]
            for v in first["vertices"]])
        return first, second
    return first, draw(polyhedra(huge))


GRADINGS = st.sampled_from([{"weights": [[4, 1], [2, 1], [1, 2], [1, 3]]},
                            {"weights": [[1, 0], [0, 1], [1, 1]]},
                            {"weights": [[1], [2]]}])


@st.composite
def gradings(draw, huge):
    entry, clean = _entries(draw, huge)
    m = draw(st.integers(1, 2))
    weights = st.lists(st.lists(entry, min_size=m, max_size=m)
                       | st.lists(entry, max_size=3), max_size=4)
    junk = JUNK | st.just([[1, 0], [0, 1]])
    return draw(GRADINGS | st.fixed_dictionaries({"weights": weights})
                | (st.nothing() if clean else junk))


SMALL_INT = st.one_of(st.integers(1, 3).map(str), st.integers(1, 3).map(str),
                      st.sampled_from(["0", "-1", "x", "1.5", ""]))
VECTOR = (st.lists(st.integers(0, 3), min_size=1, max_size=2)
          .map(lambda v: ",".join(map(str, v)))
          | st.sampled_from(["a,b", "", "1,,2", "inf,0"]))
WINDOW = (st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                   min_size=1, max_size=3)
          .map(lambda box: ",".join(f"{a}..{b}" for a, b in box))
          | st.sampled_from(["oops", "0..x", "0..1,", ".."]))


def _cli():
    """Command name, the contents of its input files and its extra flags."""
    shapes = polyhedra(True)
    scans = pairs(False)
    return st.one_of(
        st.tuples(st.just("normal-fan"), st.tuples(shapes), st.just(())),
        st.tuples(st.just("refine-check"), pairs(True), st.just(())),
        st.tuples(st.just("gitfan"), st.tuples(gradings(True)), st.just(())),
        st.tuples(st.just("fiber"), st.tuples(gradings(True)),
                  st.tuples(st.just("--u"), VECTOR)),
        st.tuples(st.just("normal-check"), scans.map(lambda pair: pair[:1]),
                  st.tuples(st.just("--s-max"), SMALL_INT)),
        st.tuples(st.just("located-check"), scans,
                  st.just(()) | st.tuples(st.just("--window"), WINDOW)),
        st.tuples(st.just("realize"), scans, st.just(())),
        st.tuples(st.just("mcrit-search"), scans,
                  st.tuples(st.just("--k-max"), SMALL_INT,
                            st.just("--s-max"), SMALL_INT)),
        st.tuples(st.just("p3-search"), st.tuples(gradings(False)),
                  st.tuples(st.just("--u1"), VECTOR, st.just("--u2"), VECTOR,
                            st.just("--k-max"), SMALL_INT,
                            st.just("--s-max"), SMALL_INT)),
        st.tuples(st.sampled_from(["paper-counterexample", "paper-oldex"]),
                  st.just(()),
                  st.tuples(st.sampled_from(["--k", "--s"]), SMALL_INT)),
    )


def _states_failure(report):
    checked = report.get("checked") or {}
    return (report.get("witness") is not None
            or bool(checked.get("failures"))
            or report.get("refines") is False
            or report.get("fan_verified") is False)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(case=_cli())
def test_cli_contract_holds_on_fuzzed_input(case, fuzz_dir, capsys):
    command, contents, flags = case
    argv = [command]
    for i, data in enumerate(contents):
        path = fuzz_dir / f"in{i}.json"
        path.write_text(json.dumps(data))
        argv += ["--input", str(path)]
    code = main(argv + list(flags))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        return
    report = json.loads(out)
    assert isinstance(report, dict) and out.count("\n") == 1
    assert report["command"] == command
    assert (code == 1) == _states_failure(report)
