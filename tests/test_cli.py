import enum
import hashlib
import json
import math
import re
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsnpriv
from wsnpriv.cli import _json, _parse_b_grid, _parse_dist, _parse_sizes, build_parser, main


def run(tmp_path, *argv):
    return main(["--out", str(tmp_path), *argv])


# --- argument parsing helpers ---

def test_parse_b_grid():
    assert _parse_b_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _parse_b_grid("0.1,0.9") == [0.1, 0.9]
    with pytest.raises(ValueError, match="^b-grid: step must be > 0$"):
        _parse_b_grid("0:1:0")
    with pytest.raises(ValueError, match="^b-grid: expected start:stop:step"):
        _parse_b_grid("a:b:c")
    with pytest.raises(ValueError, match="^b-grid: start 2 must be <= stop 1$"):
        _parse_b_grid("2:1:0.5")


def test_parse_sizes():
    assert list(_parse_sizes("3..6")) == [3, 4, 5, 6]
    assert _parse_sizes("3,8,12") == [3, 8, 12]


def test_parse_dist():
    assert _parse_dist("uniform:3..5").probs == pytest.approx((1 / 3,) * 3)
    custom = _parse_dist("3=0.5,5=0.5")
    assert custom.min_size == 3 and custom.max_size == 5
    assert custom.probs == (0.5, 0.0, 0.5)
    assert _parse_dist("uniform:3..64").probs == (1 / 62,) * 62  # the largest span
    assert _parse_dist("64=1").probs == (1.0,)


# --- subcommands ---

def test_plan_zone(tmp_path, capsys):
    assert run(tmp_path, "plan-zone", "--pr", "0.01", "--hops", "3") == 0
    assert "N_min=10" in capsys.readouterr().out
    csv_text = (tmp_path / "plan_zone.csv").read_text()
    assert csv_text.splitlines()[1] == "0.01,3,10,120"
    summary = json.loads((tmp_path / "plan-zone.summary.json").read_text())
    assert summary["results"]["n_min"] == 10
    assert "plan_zone.csv" in summary["file_digests"]


def test_aggregate(tmp_path, capsys):
    assert run(tmp_path, "aggregate", "--x", "5", "--y", "7", "--z", "3") == 0
    assert "pair_sum = 12" in capsys.readouterr().out
    summary = json.loads((tmp_path / "aggregate.summary.json").read_text())
    assert summary["results"] == {"total": 15, "pair_sum": 12}


def test_simulate_hunt(tmp_path, capsys):
    assert run(
        tmp_path, "simulate-hunt", "--grid", "6x6", "--strategy", "flood",
        "--strategy", "phantom:3", "--trials", "5", "--budget", "40",
        "--seed", "7",
    ) == 0
    out = capsys.readouterr().out
    assert "flood:" in out and "phantom:3:" in out
    lines = (tmp_path / "hunt_trials.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 5
    summary = json.loads((tmp_path / "simulate-hunt.summary.json").read_text())
    assert len(summary["results"]["cells"]) == 2


def test_bench(tmp_path):
    assert run(tmp_path, "bench", "--sizes", "3,4", "--reps", "30") == 0
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == "scheme,cluster_size,median_ns,repetitions"
    assert len(lines) == 4  # sppda + cpda(3) + cpda(4)


def test_disclosure_curve(tmp_path):
    assert run(
        tmp_path, "disclosure-curve", "--b-grid", "0:1:0.5",
        "--dist", "uniform:3..5",
    ) == 0
    lines = (tmp_path / "disclosure_curve.csv").read_text().splitlines()
    # sppda curve always emitted, plus the requested comparison curve.
    assert lines[1] == "sppda,all-links,0.0,0.0"
    assert len(lines) == 1 + 2 * 3


def test_run_pipeline(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "level": "full", "width": 5, "height": 5, "sources": [22, 24],
        "readings": {"22": 5, "24": 7}, "aggregator_dummy": 3,
        "master_seed": 42,
    }))
    assert run(tmp_path, "run-pipeline", str(cfg)) == 0
    assert "gateway recorded 12" in capsys.readouterr().out
    doc = json.loads((tmp_path / "pipeline_report.json").read_text())
    assert doc["flows"][0]["delivered_value"] == 12


def test_run_pipeline_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": "nope"}))
    assert run(tmp_path, "run-pipeline", str(cfg)) == 2
    assert capsys.readouterr().out == "error: level: unknown value 'nope'\n"


# A two-way walk from the far corner of a 60x60 grid misses a zero-length
# receptor within the step limit for master seeds 1-4 (seed 5 meets it).
NO_RENDEZVOUS = {
    "level": "anonymity-only", "width": 60, "height": 60, "sources": [3599],
    "readings": {"3599": 1}, "master_seed": 1, "receptor_length": 0,
}


def test_run_pipeline_failed_run_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(NO_RENDEZVOUS))
    assert run(tmp_path, "run-pipeline", str(cfg)) == 1
    assert capsys.readouterr().out == "error: no rendezvous with receptor within 10000 steps\n"


def test_run_scenarios_failed_run_keeps_batch_going(tmp_path, capsys):
    batch = tmp_path / "batch.json"
    ok = {"name": "ok", "level": "full", "width": 5, "height": 5, "sources": [22, 24],
          "readings": {"22": 5, "24": 7}, "master_seed": 42}
    batch.write_text(json.dumps({"scenarios": [{"name": "lost", **NO_RENDEZVOUS}, ok]}))
    assert run(tmp_path, "run-scenarios", str(batch)) == 1
    out = capsys.readouterr().out
    assert "error: lost: no rendezvous with receptor within 10000 steps\n" in out
    assert "ok: ok: 1 flow(s)" in out
    assert (tmp_path / "ok.json").exists() and not (tmp_path / "lost.json").exists()


def test_run_scenarios_cli(tmp_path):
    assert run(tmp_path, "run-scenarios", "scenarios/reference_sppda.json") == 0
    assert (tmp_path / "reference-sppda.json").exists()


CONFIG_ECHOES = [
    (["plan-zone", "--pr", "0.01", "--hops", "3"], {"pr": 0.01, "hops": 3}),
    (["simulate-hunt", "--grid", "4x4", "--strategy", "flood", "--strategy", "phantom:2",
      "--trials", "2", "--budget", "10"],
     {"grid": "4x4", "strategies": ["flood", "phantom:2"], "trials": 2, "budget": 10,
      "seed": 1}),
    (["aggregate", "--x", "5", "--y", "7", "--seed", "3"],
     {"x": 5, "y": 7, "z": 0, "modulus": 2**31 - 1, "seed": 3}),
    (["bench", "--sizes", "3", "--reps", "30", "--seed", "4"],
     {"sizes": "3", "reps": 30, "seed": 4}),
    (["disclosure-curve", "--b-grid", "0:1:0.5"],
     {"b_grid": "0:1:0.5", "dist": "uniform:3..5", "model": "all-links"}),
]


@pytest.mark.parametrize("argv,config", CONFIG_ECHOES, ids=[a[0] for a, _ in CONFIG_ECHOES])
def test_summary_echoes_config(tmp_path, argv, config):
    assert run(tmp_path, *argv) == 0
    summary = json.loads((tmp_path / f"{argv[0]}.summary.json").read_text())
    assert summary["command"] == argv[0]
    assert summary["config"] == config


def test_run_pipeline_echoes_its_document(tmp_path):
    # The document itself, keys the parser ignores included, not parsed options.
    doc = {"name": "echo", "level": "none", "width": 4, "height": 4, "sources": [15],
           "readings": {"15": 9}, "master_seed": 2, "walk": {"hops": 2}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(tmp_path, "run-pipeline", str(cfg)) == 0
    summary = json.loads((tmp_path / "run-pipeline.summary.json").read_text())
    assert summary["config"] == doc


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


# --- one parser per process ---

def test_parser_reused_across_calls(tmp_path, monkeypatch):
    hunt = ["simulate-hunt", "--grid", "5x5", "--trials", "2", "--budget", "20"]
    assert run(tmp_path, *hunt, "--strategy", "flood", "--strategy", "phantom:4") == 0
    assert run(tmp_path, *hunt, "--strategy", "twoway:5") == 0  # no shared append list
    summary = json.loads((tmp_path / "simulate-hunt.summary.json").read_text())
    assert summary["config"]["strategies"] == ["twoway:5"]
    assert [cell["strategy"] for cell in summary["results"]["cells"]] == ["twoway:5"]

    env_out = tmp_path / "from-env"
    monkeypatch.setenv("WSNPRIV_OUT_DIR", str(env_out))
    assert main(["plan-zone", "--pr", "0.01", "--hops", "3"]) == 0
    assert (env_out / "plan-zone.summary.json").exists()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "level": "full", "width": 5, "height": 5, "sources": [22, 24],
        "readings": {"22": 5, "24": 7}, "master_seed": 42,
    }))
    assert run(tmp_path, "run-pipeline", str(cfg)) == 0
    assert run(tmp_path, "aggregate", "--x", "5", "--y", "7") == 0
    summary = json.loads((tmp_path / "aggregate.summary.json").read_text())
    assert summary["config"] == {"x": 5, "y": 7, "z": 0, "modulus": 2**31 - 1, "seed": 1}
    assert build_parser() is build_parser()


# --- output files: written over in place, as UTF-8 ---

JUNK = "\u00ff junk\n".encode() * 10_000  # longer than any output below
PIPELINE_DOC = {"level": "full", "width": 5, "height": 5, "sources": [22, 24],
                "readings": {"22": 5, "24": 7}, "master_seed": 42}


def test_longer_old_outputs_are_cut_to_the_new_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PIPELINE_DOC))
    names = ["pipeline_report.json", "run-pipeline.summary.json",
             "reference-sppda.json", "reference-sppda.csv"]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.mkdir()
    for name in names:
        (reused / name).write_bytes(JUNK)
    for out in (fresh, reused):
        assert run(out, "run-pipeline", str(cfg)) == 0
        assert run(out, "run-scenarios", "scenarios/reference_sppda.json") == 0
    for name in names:
        data = (reused / name).read_bytes()
        assert len(data) < len(JUNK)
        assert data == (fresh / name).read_bytes()
    summary = json.loads((reused / "run-pipeline.summary.json").read_text())
    report = (reused / "pipeline_report.json").read_bytes()
    assert summary["file_digests"] == {
        "pipeline_report.json": hashlib.sha256(report).hexdigest()}


def test_output_symlink_writes_through_to_its_target(tmp_path):
    out, target = tmp_path / "out", tmp_path / "target.csv"
    out.mkdir()
    target.write_bytes(JUNK)
    (out / "plan_zone.csv").symlink_to(target)
    assert run(out, "plan-zone", "--pr", "0.01", "--hops", "3") == 0
    assert (out / "plan_zone.csv").is_symlink()
    assert target.read_text().splitlines() == ["p_r,hops,n_min,k", "0.01,3,10,120"]


def test_scenario_files_are_utf8(tmp_path):
    name = "zon\u00e9-\u00df-\u5317"
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({"scenarios": [{**PIPELINE_DOC, "name": name}]}))
    assert run(tmp_path, "run-scenarios", str(batch)) == 0
    rows = (tmp_path / f"{name}.csv").read_bytes().decode("utf-8").splitlines()
    assert rows[1].startswith(f"{name},0,")


def run_process(out, *argv, timeout=60, **env):
    """`python -m wsnpriv.cli --out <out> <argv>` in a real process, which
    exits by `sys.exit(main())`; `env` is set over this environment."""
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}, **env,
           "PYTHONPATH": str(pathlib.Path(wsnpriv.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "wsnpriv.cli", "--out", str(out), *argv],
                          env=env, capture_output=True, timeout=timeout)


def run_ascii_process(out, *argv):
    """The CLI in a real process whose locale is ASCII: stdout and file names
    are ASCII, and open() decodes as ASCII."""
    return run_process(out, *argv, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")


def test_ascii_locale_reads_utf8_json_and_keeps_a_batch_going(tmp_path):
    # JSON is UTF-8 whatever the locale, and a scenario whose name neither
    # stdout nor the file system can encode fails alone: the batch goes on.
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps({**PIPELINE_DOC, "note": "caf\u00e9"}, ensure_ascii=False).encode())
    assert run_ascii_process(tmp_path / "p", "run-pipeline", str(config)).returncode == 0
    batch = tmp_path / "batch.json"
    scenarios = [{**PIPELINE_DOC, "name": "zon\u00e9"}, {**PIPELINE_DOC, "name": "second"}]
    batch.write_bytes(json.dumps({"scenarios": scenarios}, ensure_ascii=False).encode())
    proc = run_ascii_process(tmp_path / "b", "run-scenarios", str(batch))
    out = proc.stdout.decode("ascii")
    assert proc.returncode == 1, out
    assert "error: zon\\xe9: " in out and "ok: second: " in out
    assert (tmp_path / "b" / "second.json").exists()


def test_ascii_locale_prints_a_bad_input_error_escaped(tmp_path):
    # The error line names a value stdout cannot encode: it prints escaped,
    # with the bad-input status, not as a UnicodeEncodeError traceback.
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps({**PIPELINE_DOC, "level": "ful\u00e9"}, ensure_ascii=False).encode())
    proc = run_ascii_process(tmp_path / "p", "run-pipeline", str(config))
    out = proc.stdout.decode("ascii")
    assert proc.returncode == 2, (out, proc.stderr)
    assert out.startswith("error: level: ") and "ful\\xe9" in out
    assert proc.stderr == b""


def test_report_line_prints_an_unencodable_out_dir_escaped(tmp_path):
    # A command's own report line names an output directory stdout cannot
    # encode: it prints escaped after both files are written, with status 0.
    out = tmp_path / "r\u00e9sultats"
    proc = run_process(out, "disclosure-curve", "--b-grid", "0:1:0.5", PYTHONIOENCODING="ascii")
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert b"r\\xe9sultats" in proc.stdout and proc.stderr == b""
    assert sorted(p.name for p in out.iterdir()) == [
        "disclosure-curve.summary.json", "disclosure_curve.csv"]


# Inputs that once ran for hours or without end: a linear N_min search, range
# specs expanded before their bounds were checked, a radio range that put a
# whole field in one hash cell, a 10^9-hop phantom walk.
HANG_REPRODUCERS = [  # exit status, stdout prefix, CLI arguments
    pytest.param(0, "zone plan: N_min=1000000000001 ", "plan-zone --pr 1e-12 --hops 1",
                 id="zone_n_min_huge"),
    pytest.param(2, "error: p_r:", "plan-zone --pr 5e-324 --hops 1",
                 id="zone_probability_subnormal"),
    pytest.param(2, "error: b:", "disclosure-curve --b-grid 0:2:0.0000005",
                 id="b_grid_outside_unit"),
    pytest.param(2, "error: b:", "disclosure-curve --b-grid 0:inf:0.5",
                 id="b_grid_infinite_stop"),
    pytest.param(2, "error: b-grid:", "disclosure-curve --b-grid 0:1:1e-300",
                 id="b_grid_tiny_step"),
    pytest.param(2, "error: b-grid:", "disclosure-curve --b-grid 0:1:inf",
                 id="b_grid_infinite_step"),
    pytest.param(2, "error: sizes:", "bench --sizes 3..1000000000", id="sizes_range_huge"),
    pytest.param(2, "error: max_size:", "disclosure-curve --dist uniform:3..1000000000",
                 id="dist_uniform_huge"),
    pytest.param(2, "error: max_size:", "disclosure-curve --dist 3=0.5,1000000000=0.5",
                 id="dist_sizes_huge"),
    pytest.param(2, "error: width:", "simulate-hunt --grid 100000x100000 --strategy flood",
                 id="grid_too_large"),
    pytest.param(2, "error: hops:", "simulate-hunt --grid 3x3 --strategy phantom:1000000000 "
                 "--trials 1 --budget 1", id="walk_hops_huge"),
    pytest.param(2, "error: radio_range:", "run-pipeline wide_range.json",
                 id="radio_range_too_large"),
]


@pytest.mark.parametrize("status, prefix, args", HANG_REPRODUCERS)
def test_former_hang_finishes_in_time(tmp_path, status, prefix, args):
    # Within 10 s, with the exit rule's status and, on bad input, the field.
    (tmp_path / "wide_range.json").write_text(json.dumps({
        "level": "none", "width": 200, "height": 200, "sources": [1],
        "readings": {"1": 1}, "master_seed": 1, "radio_range": 1e300}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in args.split()]
    proc = run_process(tmp_path / "out", *argv, timeout=10)
    out = proc.stdout.decode()
    assert proc.returncode == status, (out, proc.stderr)
    assert out.startswith(prefix), out


# --- determinism across runs ---

def test_outputs_byte_identical_across_runs(tmp_path):
    digests = []
    for name in ("a", "b"):
        d = tmp_path / name
        run(d, "simulate-hunt", "--grid", "5x5", "--strategy", "phantom:4",
            "--trials", "10", "--budget", "30", "--seed", "3")
        run(d, "disclosure-curve", "--b-grid", "0:1:0.1", "--dist", "sppda")
        run(d, "plan-zone", "--pr", "0.01", "--hops", "4")
        digests.append({
            f.name: f.read_bytes()
            for f in sorted(d.iterdir())
            if f.suffix == ".csv" or f.name.endswith("summary.json")
        })
    assert digests[0] == digests[1]
    assert len(digests[0]) == 6


# --- the JSON writer ---

class Level(enum.IntEnum):
    HIGH = 2**70


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**80), st.text(),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, Level.HIGH]),
    st.sampled_from([{}, [], ()]),
)
KEYS = [st.text(), st.integers(), st.booleans(), st.none(), st.floats()]
JSON_TREES = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    *(st.dictionaries(key, children, max_size=4) for key in KEYS),  # one key type per dict
), max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(doc=JSON_TREES)
def test_writer_is_indented_json_dumps(doc):
    assert _json(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [
    {"ok": [{1: 0, "a": 0}]}, [1, {"a": object()}], {"a": [2**64, {(1, 2): 0}]},
], ids=["mixed-keys", "unknown-type", "tuple-key"])
def test_writer_raises_what_json_raises(doc):
    with pytest.raises(Exception) as want:
        dumps(doc)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        _json(doc)


def test_every_subcommand_json_file_re_encodes_to_itself(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "level": "full", "width": 6, "height": 6, "sources": [22, 24, 35],
        "readings": {"22": 5, "24": 7, "35": 1}, "master_seed": 42,
        "walk": {"mode": "directed", "hops": 3}, "note": "caf\u00e9\t",
    }))
    for argv in [
        ["plan-zone", "--pr", "0.01", "--hops", "3"],
        ["simulate-hunt", "--grid", "5x5", "--strategy", "flood", "--strategy", "twoway:3",
         "--trials", "3", "--budget", "20"],
        ["aggregate", "--x", "5", "--y", "7"],
        ["bench", "--sizes", "3,4", "--reps", "30"],
        ["disclosure-curve", "--b-grid", "0:1:0.25"],
        ["run-pipeline", str(cfg)],
        ["run-scenarios", "scenarios/reference_sppda.json"],
    ]:
        out = tmp_path / argv[0]
        assert run(out, *argv) == 0
        written = sorted(out.glob("*.json"))
        assert written
        for path in written:
            text = path.read_text()
            assert text == dumps(json.loads(text)), path.name
