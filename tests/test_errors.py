"""Bad input fails as a typed error that names the field, never as a traceback."""

import json

import pytest

from wsnpriv import climetrics
from wsnpriv.cli import _parse_b_grid, main as cli_main, run_scenarios
from wsnpriv.climetrics import (
    HuntCampaign,
    montecarlo_hunt,
    parse_strategy,
    pipeline_config_from_doc,
)
from wsnpriv.phantom import WalkConfig
from wsnpriv.pipeline import PipelineConfig, PrivacyLevel
from wsnpriv.ppda import SppdaCluster
from wsnpriv.rng import SimRng

SCENARIO = {
    "name": "ok-scenario", "level": "full", "width": 5, "height": 5,
    "sources": [22, 24], "readings": {"22": 5, "24": 7}, "master_seed": 42,
}


def duplicate_sources(tmp_path, capsys):
    with pytest.raises(ValueError, match="^sources: "):
        PipelineConfig(width=5, height=5, level=PrivacyLevel.FULL,
                       sources=(22, 22), readings={22: 5}, master_seed=1)


def walk_not_object(tmp_path, capsys):
    with pytest.raises(ValueError, match="^walk: expected object$"):
        pipeline_config_from_doc({**SCENARIO, "walk": 5})
    for walk, field in (({"mode": 3}, "walk.mode"), ({"mode": ["pure"]}, "walk.mode"),
                        ({"mode": "sideways"}, "walk.mode"), ({"hops": "5"}, "walk.hops"),
                        ({"hops": True}, "walk.hops"), ({"hops": -1}, "walk.hops")):
        with pytest.raises(ValueError, match=f"^{field}: "):
            pipeline_config_from_doc({**SCENARIO, "walk": walk})


def scenario_not_object(tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"scenarios": [7, SCENARIO]}))
    assert run_scenarios(str(path), str(tmp_path / "out")) == 1
    out = capsys.readouterr().out
    assert "error: scenario-0: expected an object" in out
    assert "ok: ok-scenario: 1 flow(s)" in out  # the rest of the batch still ran


def zero_trials(tmp_path, capsys):
    with pytest.raises(ValueError, match="^trials: must be >= 1$"):
        montecarlo_hunt(HuntCampaign(grids=((4, 4),), strategies=("flood",),
                                     trials=0, message_budget=5, master_seed=1))
    argv = ["--out", str(tmp_path), "simulate-hunt", "--grid", "4x4",
            "--strategy", "flood", "--trials", "0"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: trials: must be >= 1\n"


def zone_probability_zero(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "plan-zone", "--pr", "0", "--hops", "3"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: p_r: must be in (0, 1]\n"


def zone_probability_subnormal(tmp_path, capsys):
    for pr in ("5e-324", "1e-310"):  # 1 / p_r overflows; a linear search never ends
        argv = ["--out", str(tmp_path), "plan-zone", "--pr", pr, "--hops", "1"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().out.startswith("error: p_r: ")


def b_grid_range_outside_unit(tmp_path, capsys):
    # Rejected before expansion: 0:2:0.0000005 built 4M points, 0:inf:0.5 never stopped.
    for spec in ("0:2:0.0000005", "0:inf:0.5", "-0.5:1:0.5", "nan:1:0.5", "0:nan:0.5"):
        argv = ["--out", str(tmp_path), "disclosure-curve", f"--b-grid={spec}"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().out == "error: b: must be in [0, 1]\n"


def b_grid_too_many_points(tmp_path, capsys):
    # A tiny step inside [0, 1] stops at 100,001 points: 0:1:0.000001 wrote 1,000,001
    # points in 10 s, 0:1:1e-300 never stopped.  0:1:0.00001 is the largest that fits.
    assert len(_parse_b_grid("0:1:0.00001")) == 100_001
    for spec in ("0:1:0.000001", "0:1:1e-300"):
        argv = ["--out", str(tmp_path), "disclosure-curve", f"--b-grid={spec}"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().out == "error: b-grid: range gives more than 100001 points\n"


def b_grid_infinite_step(tmp_path, capsys):
    # start + 0 * inf is NaN, so 0:1:inf wrote a header-only CSV and exited 0.
    argv = ["--out", str(tmp_path), "disclosure-curve", "--b-grid=0:1:inf"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: b-grid: step must be finite\n"
    assert not (tmp_path / "disclosure_curve.csv").exists()


def sizes_range_huge(tmp_path, capsys):
    # The range stays lazy: the check stops at 65 instead of building 10^9 sizes.
    argv = ["--out", str(tmp_path), "bench", "--sizes", "3..1000000000"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: sizes: cluster sizes must lie in [3, 64]\n"


def dist_span_huge(tmp_path, capsys):
    # The span is checked before any per-size pass: uniform:3..1000000 took 8.7 s,
    # uniform:3..1000000000 died with a MemoryError, 3=0.5,1000000000=0.5 never ended.
    for spec, message in (("uniform:3..1000000000", "max_size: must lie in [min_size, 64]"),
                          ("3=0.5,1000000000=0.5", "max_size: must lie in [min_size, 64]"),
                          ("uniform:2..1000000000", "min_size: must be >= 3")):
        argv = ["--out", str(tmp_path), "disclosure-curve", f"--dist={spec}"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().out == f"error: {message}\n"
    assert not (tmp_path / "disclosure_curve.csv").exists()


def scenario_name_not_plain(tmp_path, capsys):
    names = ["../escaped", "/tmp/abs", "a/b", "a\\b", ".", "..", "", 7, None]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"scenarios": [{**SCENARIO, "name": n} for n in names]
                                + [SCENARIO]}))
    out_dir = tmp_path / "sub" / "out"
    assert cli_main(["--out", str(out_dir), "run-scenarios", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"error: name: {n!r} is not a plain file name" for n in names] + [
        "ok: ok-scenario: 1 flow(s)"]
    written = {p for p in tmp_path.rglob("*") if p.is_file()}
    assert written == {path, out_dir / "ok-scenario.json", out_dir / "ok-scenario.csv"}


def scenario_name_taken(tmp_path, capsys):
    # A second scenario of a name (given, or the scenario-<i> default) fails
    # alone: it wrote over the first one's files, and each printed ok.
    unnamed = {k: v for k, v in SCENARIO.items() if k != "name"}
    scenarios = [{**SCENARIO, "name": "a"},
                 {**SCENARIO, "name": "a", "readings": {"22": 6, "24": 7}},
                 {**SCENARIO, "name": "scenario-3"}, unnamed]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"scenarios": scenarios}))
    assert run_scenarios(str(path), str(tmp_path / "out")) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ok: a: 1 flow(s)", "error: name: 'a' is taken by an earlier scenario",
        "ok: scenario-3: 1 flow(s)", "error: name: 'scenario-3' is taken by an earlier scenario"]
    report = json.loads((tmp_path / "out" / "a.json").read_text())
    assert report["flows"][0]["delivered_value"] == 12  # the first scenario's 5 + 7
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "a.csv", "a.json", "scenario-3.csv", "scenario-3.json"]


def out_is_a_file(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    argv = ["--out", str(afile), "plan-zone", "--pr", "0.1", "--hops", "2"]
    assert cli_main(argv) == 2  # was a FileExistsError traceback
    assert capsys.readouterr().out.startswith("error: out: ")
    # run-scenarios checks its output directory before it runs any scenario.
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"scenarios": [SCENARIO]}))
    assert cli_main(["--out", str(afile), "run-scenarios", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out: ")
    assert afile.read_text() == "kept"


def output_name_is_a_directory(tmp_path, capsys):
    (tmp_path / "plan_zone.csv").mkdir()
    argv = ["--out", str(tmp_path), "plan-zone", "--pr", "0.1", "--hops", "2"]
    assert cli_main(argv) == 2  # was an IsADirectoryError traceback
    assert capsys.readouterr().out.startswith("error: out: ")
    assert not (tmp_path / "plan-zone.summary.json").exists()
    # In a batch, the scenario whose file name is taken fails alone, with status 1.
    (tmp_path / "taken.json").mkdir()
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"scenarios": [{**SCENARIO, "name": "taken"}, SCENARIO]}))
    assert run_scenarios(str(path), str(tmp_path)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("error: taken: out: ")
    assert lines[1] == "ok: ok-scenario: 1 flow(s)"


def modulus_not_prime(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "aggregate", "--x", "1", "--y", "2", "--z", "3",
            "--modulus", "10"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: modulus: 10 is not prime\n"


def strategy_not_integer(tmp_path, capsys):
    with pytest.raises(ValueError, match="^strategy: expected an integer"):
        parse_strategy("twoway:x")
    argv = ["--out", str(tmp_path), "simulate-hunt", "--grid", "4x4",
            "--strategy", "twoway:x", "--trials", "1"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out.startswith("error: strategy: ")


def twoway_negative_length(tmp_path, capsys):
    # Refused when the spec is parsed, before the flood cell runs any trial.
    with pytest.raises(ValueError, match="^receptor_length: must be >= 0$"):
        parse_strategy("twoway:-1")

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    argv = ["--out", str(tmp_path), "simulate-hunt", "--grid", "5x5",
            "--strategy", "flood", "--strategy", "twoway:-1"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(climetrics, "hunt", no_trial)
        assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: receptor_length: must be >= 0\n"
    assert not (tmp_path / "hunt_trials.csv").exists()


def walk_hops_over_the_bound(tmp_path, capsys):
    # A 10^9-hop phantom walk ran for minutes per message; 10,000 hops is the bound.
    assert WalkConfig(hops=10_000).hops == 10_000
    with pytest.raises(ValueError, match="^hops: must be <= 10000$"):
        parse_strategy("phantom:1000000000")
    argv = ["--out", str(tmp_path), "simulate-hunt", "--grid", "3x3",
            "--strategy", "phantom:1000000000", "--trials", "1", "--budget", "1"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: hops: must be <= 10000\n"


def grid_not_wxh(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "simulate-hunt", "--grid", "3", "--strategy", "flood"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: grid: expected WxH, got '3'\n"


def grid_zero_width(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "simulate-hunt", "--grid", "0x4",
            "--strategy", "flood", "--trials", "1"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: width: must be >= 1\n"


def grid_too_large(tmp_path, capsys):
    # 10^10 nodes: rejected before any position is allocated.
    argv = ["--out", str(tmp_path), "simulate-hunt", "--grid", "100000x100000",
            "--strategy", "flood", "--trials", "1"]
    assert cli_main(argv) == 2
    message = "error: width: 100000x100000 grid is over 1000000 nodes\n"
    assert capsys.readouterr().out == message
    assert run_pipeline_doc(tmp_path, {**SCENARIO, "width": 100000, "height": 100000}) == 2
    assert capsys.readouterr().out == message


def run_pipeline_doc(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return cli_main(["--out", str(tmp_path), "run-pipeline", str(path)])


def pool_size_not_int(tmp_path, capsys):
    for field in ("modulus", "pool_size", "af_bank"):
        for value in ("x", 1.5, True):
            with pytest.raises(ValueError, match=f"^{field}: expected int$"):
                pipeline_config_from_doc({**SCENARIO, field: value})
    assert run_pipeline_doc(tmp_path, {**SCENARIO, "pool_size": "x"}) == 2
    assert capsys.readouterr().out == "error: pool_size: expected int\n"


def bank_split_invalid(tmp_path, capsys):
    for pool_size, af_bank in ((4, 4), (4, 0), (4, 9)):
        with pytest.raises(ValueError, match="^af_bank: "):
            pipeline_config_from_doc({**SCENARIO, "pool_size": pool_size, "af_bank": af_bank})
    assert run_pipeline_doc(tmp_path, {**SCENARIO, "pool_size": 4, "af_bank": 4}) == 2
    assert capsys.readouterr().out == "error: af_bank: must be in [1, pool_size=4)\n"


def ss_bank_too_large(tmp_path, capsys):
    assert run_pipeline_doc(tmp_path, {**SCENARIO, "pool_size": 70000, "af_bank": 1}) == 2
    assert capsys.readouterr().out == (
        "error: pool_size: SS bank (pool_size - af_bank) over 65536 keys\n"
    )


def ss_bank_too_large_direct(tmp_path, capsys):
    with pytest.raises(ValueError, match="^pool_size: SS bank"):
        SppdaCluster(SimRng(1, "direct"), pool_size=70000, af_bank=1)


def af_bank_too_large_direct(tmp_path, capsys):
    # Refused before the pool is drawn: 2^40 keys died in generate_pool with a
    # MemoryError.  The largest split, 65,536 keys in each bank, still builds.
    with pytest.raises(ValueError, match="^af_bank: AF bank over 65536 keys$"):
        SppdaCluster(SimRng(1, "direct"), pool_size=2**40, af_bank=2**40 - 1)
    SppdaCluster(SimRng(1, "direct"), pool_size=2 * 65536, af_bank=65536)


def modulus_too_small(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "aggregate", "--x", "1", "--y", "2", "--modulus", "3"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: modulus: GF(3) has fewer than 3 nonzero seeds\n"


def _pipeline_error(name, field, message):
    """A case: run-pipeline on SCENARIO updated by `field` exits 2 with `message`."""
    def case(tmp_path, capsys):
        assert run_pipeline_doc(tmp_path, {**SCENARIO, **field}) == 2
        assert capsys.readouterr().out == f"error: {message}\n"
    case.__name__ = name
    return case


PIPELINE_ERRORS = [
    ("source_out_of_range", {"sources": [22, 99], "readings": {"22": 5, "99": 7}},
     "sources: node 99 outside [0, 25)"),
    ("sink_out_of_range", {"sink": 25}, "sink: node 25 outside [0, 25)"),
    ("source_at_sink", {"sources": [22, 0], "readings": {"22": 5, "0": 7}},
     "sources: node 0 is the sink"),
    ("reading_missing", {"readings": {"22": 5}}, "readings: missing for sources [24]"),
    ("no_sources", {"sources": []}, "sources: at least one source required"),
    ("one_source_perturbed", {"sources": [22]},
     "sources: perturbation layer needs at least two sources to form a cluster"),
    ("receptor_length_negative", {"receptor_length": -1, "level": "none"},
     "receptor_length: must be >= 0"),
    ("radio_range_list", {"radio_range": [1]}, "radio_range: expected number"),
    ("radio_range_string", {"radio_range": "1.5"}, "radio_range: expected number"),
    # Once one hash cell of 40,000 nodes: 8e8 pair tests toward a complete graph.
    ("radio_range_too_large", {"width": 200, "height": 200, "radio_range": 1e300},
     "radio_range: 1e+300 needs over 100000000 node-pair tests"),
    ("sink_string", {"sink": "3"}, "sink: expected int"),
    ("source_string", {"sources": ["22", 24]}, "sources: expected int"),
    ("source_float", {"sources": [22.7, 24]}, "sources: expected int"),
    ("reading_string", {"readings": {"22": 5, "24": "a"}}, "readings.24: expected int"),
    ("reading_key_not_decimal", {"readings": {"22": 5, "x": 7}},
     "readings: key 'x' is not a decimal node id"),
    ("aggregator_dummy_string", {"aggregator_dummy": "x"}, "aggregator_dummy: expected int"),
    ("receptor_length_string", {"receptor_length": "x"},
     "receptor_length: expected int or null"),
    ("walk_hops_negative", {"walk": {"hops": -1}}, "walk.hops: must be >= 0"),
    ("walk_hops_too_many", {"walk": {"hops": 1_000_000_000}}, "walk.hops: must be <= 10000"),
    ("no_af_candidate",  # every node of a 3x1 grid is the sink or a source
     {"width": 3, "height": 1, "sources": [1, 2], "readings": {"1": 5, "2": 7}},
     "sources: no aggregator-forwarder candidate can reach both 1 and 2"),
]


# PipelineConfig's own rules: a document that breaks one is refused when it is parsed.
CONFIG_RULE_ERRORS = [
    *(error for error in PIPELINE_ERRORS if error[0] in (
        "no_sources", "one_source_perturbed", "source_at_sink", "reading_missing",
        "receptor_length_negative")),
    ("duplicate_sources", {"sources": [22, 22]}, "sources: duplicate node ids in [22, 22]"),
    ("bank_split", {"pool_size": 4, "af_bank": 4}, "af_bank: must be in [1, pool_size=4)"),
    ("af_bank_too_large", {"pool_size": 2**40, "af_bank": 2**40 - 1},
     "af_bank: AF bank over 65536 keys"),
]


@pytest.mark.parametrize("field, message", [error[1:] for error in CONFIG_RULE_ERRORS],
                         ids=[error[0] for error in CONFIG_RULE_ERRORS])
def test_config_rules_refuse_the_document_when_parsed(field, message):
    with pytest.raises(ValueError) as refused:
        pipeline_config_from_doc({**SCENARIO, **field})
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "case", [duplicate_sources, walk_not_object, scenario_not_object, zero_trials,
             zone_probability_zero, zone_probability_subnormal, b_grid_range_outside_unit,
             b_grid_too_many_points, b_grid_infinite_step, sizes_range_huge,
             dist_span_huge, scenario_name_not_plain, scenario_name_taken, out_is_a_file,
             output_name_is_a_directory, modulus_not_prime, strategy_not_integer,
             twoway_negative_length, walk_hops_over_the_bound, grid_not_wxh, grid_zero_width,
             grid_too_large, pool_size_not_int, bank_split_invalid, ss_bank_too_large,
             ss_bank_too_large_direct, af_bank_too_large_direct, modulus_too_small,
             *(_pipeline_error(*error) for error in PIPELINE_ERRORS)],
    ids=lambda case: case.__name__,
)
def test_bad_input_is_a_typed_error(case, tmp_path, capsys):
    case(tmp_path, capsys)
