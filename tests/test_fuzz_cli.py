"""Fuzz the CLI's input boundary in-process.

Whatever the scenario document or argv, `cli.main` must return 0, 1 or 2
(argparse's own usage error, `SystemExit(2)`, aside), let no exception
escape, and on status 2 print `error: <field>: <reason>`.  Sizes are kept
small (grids up to 12x12, at most 5 trials, budgets up to 20, bench sizes
up to 8) so the file runs in seconds.
"""

import contextlib
import io
import json
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wsnpriv.cli import main

FIELD_ERROR = re.compile(r"error: [\w.-]+(, [\w.-]+)*: \S")

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

BASE = {
    "level": "full", "width": 5, "height": 5, "sources": [22, 24],
    "readings": {"22": 5, "24": 7}, "master_seed": 42,
}

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def run(tmp_path, argv):
    """Status and stdout of one in-process CLI call, checked against the rule."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = main(["--out", str(tmp_path / "out"), *argv])
        except SystemExit as exc:  # argparse rejected the argv itself
            assert exc.code == 2
            return 2
    text = out.getvalue()
    assert status in (0, 1, 2), (status, text)
    if status == 2:
        assert FIELD_ERROR.match(text), text
    if status == 1:
        assert re.search(r"^error: ", text, re.M), text
    return status


@st.composite
def scenario_docs(draw):
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    node = st.integers(-1, w * h)
    sources = draw(st.lists(node, max_size=4))
    doc = {
        "level": draw(st.sampled_from(["none", "anonymity-only", "perturbation-only",
                                       "full", "nope"])),
        "width": w, "height": h, "sources": sources,
        "readings": {str(s): draw(st.integers(-10, 100)) for s in sources},
        "master_seed": draw(st.integers(0, 2**40)),
    }
    optional = {
        "radio_range": st.one_of(st.sampled_from([0.5, 1, 1.5, 2.0, 100.0]), st.floats()),
        "sink": node,
        "walk": st.fixed_dictionaries({}, optional={
            "mode": st.sampled_from(["pure", "directed", "sideways"]),
            "hops": st.integers(-1, 8)}),
        "receptor_length": st.one_of(st.none(), st.integers(-1, 8)),
        "modulus": st.sampled_from([2, 3, 5, 10, 7919, 2**31 - 1]),
        "pool_size": st.integers(0, 40),
        "af_bank": st.integers(-1, 40),
        "aggregator_dummy": st.integers(-5, 10**6),
    }
    for key in draw(st.sets(st.sampled_from(sorted(optional)))):
        doc[key] = draw(optional[key])
    # Then break it: replace some fields with junk, drop some.
    for key in draw(st.sets(st.sampled_from(sorted(doc) + sorted(optional)), max_size=2)):
        doc[key] = draw(JUNK)
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    return doc


@FUZZ
@given(doc=st.one_of(scenario_docs(), JUNK))
@example(doc={**BASE, "sources": [22, 22], "readings": {"22": 5}})
@example(doc={**BASE, "walk": 5})
@example(doc={**BASE, "aggregator_dummy": "x"})
@example(doc={**BASE, "readings": {"22": "a", "24": 7}})
@example(doc={**BASE, "sources": [22, 99], "readings": {"22": 5, "99": 7}})
@example(doc={**BASE, "sources": [22, 0], "readings": {"22": 5, "0": 7}})
@example(doc={**BASE, "radio_range": float("nan")})
@example(doc={**BASE, "radio_range": 1e-320})
@example(doc={**BASE, "level": "anonymity-only", "width": 60, "height": 60, "sources": [3599],
              "readings": {"3599": 1}, "master_seed": 1, "receptor_length": 0})
def test_scenario_documents(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    single = run(tmp_path, ["run-pipeline", str(path)])
    path.write_text(json.dumps({"scenarios": [doc, BASE]}))
    # A bad scenario fails alone; the batch itself is well-formed.
    assert run(tmp_path, ["run-scenarios", str(path)]) == (0 if single == 0 else 1)


@FUZZ
@given(doc=JUNK)
@example(doc={"scenarios": [7]})
@example(doc={"scenarios": 7})
def test_scenario_batches(tmp_path, doc):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(doc))
    run(tmp_path, ["run-scenarios", str(path)])


def _flag(name, values):
    """An optional `--name value` pair."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _command(name, *flags):
    return st.tuples(*flags).map(lambda parts: [name, *(x for part in parts for x in part)])


INTS = st.integers(-2, 8)
GRIDS = st.one_of(
    st.builds("{}x{}".format, st.integers(-1, 12), st.integers(-1, 12)),
    st.sampled_from(["3", "ax3", "3x4x5", ""]),
)
STRATEGIES = st.one_of(
    st.sampled_from(["flood", "bogus", "twoway:x", "phantom:", "phantom:-1", "twoway:-1"]),
    st.builds("{}:{}".format, st.sampled_from(["phantom", "twoway"]), st.integers(0, 8)),
)
B_GRIDS = st.one_of(
    st.sampled_from(["0:1:0.05", "0:1:0", "a:b:c", "2:1:0.5", "0.1,0.9", "0:2:0.5", "x",
                     "-1,0.5", "nan,0.5", "1:2"]),
    st.builds("{}:{}:{}".format, st.floats(-1, 2), st.floats(-1, 2), st.floats(0.05, 1)),
)
DISTS = st.sampled_from(["sppda", "uniform:3..5", "uniform:1..2", "uniform:5..3", "3=0.5,5=0.5",
                         "3=0.2", "x", "uniform:x", "3=-1,4=2", "3=nan"])
SIZES = st.one_of(
    st.sampled_from(["3..5", "3,8", "2..4", "x", "5..3", "65", "", "3.."]),
    st.builds("{}..{}".format, st.integers(1, 8), st.integers(1, 8)),
)

ARGV = st.one_of(
    _command("plan-zone",
             _flag("--pr", st.one_of(st.sampled_from(["0", "-1", "1.5", "nan", "inf", "x"]),
                                     st.floats(1e-4, 1))),
             _flag("--hops", st.one_of(INTS, st.just("x")))),
    _command("simulate-hunt", _flag("--grid", GRIDS),
             st.lists(STRATEGIES, max_size=2).map(
                 lambda specs: [x for spec in specs for x in ("--strategy", spec)]),
             _flag("--trials", st.integers(-1, 5)), _flag("--budget", st.integers(-1, 20)),
             _flag("--seed", INTS)),
    _command("aggregate", _flag("--x", st.integers()), _flag("--y", st.integers()),
             _flag("--z", st.integers()),
             _flag("--modulus", st.sampled_from([-7, 0, 1, 2, 3, 4, 5, 10, 7919, 2**31 - 1])),
             _flag("--seed", INTS)),
    _command("bench", _flag("--sizes", SIZES), _flag("--reps", st.sampled_from([0, 29, 30])),
             _flag("--seed", INTS)),
    _command("disclosure-curve", _flag("--b-grid", B_GRIDS), _flag("--dist", DISTS),
             _flag("--model", st.sampled_from(["all-links", "any-link", "bogus"]))),
    _command("run-pipeline", st.sampled_from([["missing.json"], []])),
    _command("run-scenarios", st.sampled_from([["missing.json"], []])),
)


@FUZZ
@given(argv=ARGV)
@example(argv=["simulate-hunt", "--grid", "4x4", "--strategy", "flood", "--trials", "0"])
@example(argv=["simulate-hunt", "--grid", "4x4", "--strategy", "flood", "--budget", "0"])
@example(argv=["simulate-hunt", "--grid", "0x5", "--strategy", "flood", "--trials", "1"])
@example(argv=["simulate-hunt", "--grid", "4x4", "--strategy", "bogus"])
@example(argv=["plan-zone", "--pr", "0", "--hops", "3"])
@example(argv=["aggregate", "--x", "1", "--y", "2", "--modulus", "10"])
@example(argv=["aggregate", "--x", "1", "--y", "2", "--modulus", "3"])
@example(argv=["disclosure-curve", "--b-grid", "2:1:0.5"])
@example(argv=["disclosure-curve", "--dist", "3=nan"])
def test_argv(tmp_path, argv):
    run(tmp_path, argv)


def test_status_rule_examples(tmp_path):
    assert run(tmp_path, ["simulate-hunt", "--grid", "4x4", "--strategy", "flood",
                          "--trials", "2", "--budget", "5"]) == 0
    assert run(tmp_path, ["plan-zone", "--pr", "0", "--hops", "3"]) == 2
    assert run(tmp_path, ["run-pipeline", str(tmp_path / "missing.json")]) == 2
