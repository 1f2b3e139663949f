"""Bad input fails as a typed error that names the field, never as a traceback."""

import json

import pytest

from wsnpriv.cli import main as cli_main
from wsnpriv.climetrics import (
    HuntCampaign,
    ScenarioError,
    montecarlo_hunt,
    parse_strategy,
    pipeline_config_from_doc,
    run_scenarios,
)
from wsnpriv.pipeline import ConfigError, PipelineConfig, PrivacyLevel

SCENARIO = {
    "name": "ok-scenario", "level": "full", "width": 5, "height": 5,
    "sources": [22, 24], "readings": {"22": 5, "24": 7}, "master_seed": 42,
}


def duplicate_sources(tmp_path, capsys):
    cfg = PipelineConfig(width=5, height=5, level=PrivacyLevel.FULL,
                         sources=(22, 22), readings={22: 5}, master_seed=1)
    with pytest.raises(ConfigError, match="^sources: "):
        cfg.validate()


def walk_not_object(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="^walk: expected object$"):
        pipeline_config_from_doc({**SCENARIO, "walk": 5})
    for walk, field in (({"mode": 3}, "walk.mode"), ({"mode": ["pure"]}, "walk.mode"),
                        ({"mode": "sideways"}, "walk.mode"), ({"hops": "5"}, "walk.hops"),
                        ({"hops": True}, "walk.hops"), ({"hops": -1}, "walk.hops")):
        with pytest.raises(ScenarioError, match=f"^{field}: "):
            pipeline_config_from_doc({**SCENARIO, "walk": walk})


def scenario_not_object(tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"scenarios": [7, SCENARIO]}))
    assert run_scenarios(str(path), str(tmp_path / "out")) == 1
    out = capsys.readouterr().out
    assert "error: scenario-0: expected an object" in out
    assert "ok: ok-scenario: 1 flow(s)" in out  # the rest of the batch still ran


def zero_trials(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="^trials: must be >= 1$"):
        montecarlo_hunt(HuntCampaign(grids=((4, 4),), strategies=("flood",),
                                     trials=0, message_budget=5, master_seed=1))
    argv = ["--out", str(tmp_path), "simulate-hunt", "--grid", "4x4",
            "--strategy", "flood", "--trials", "0"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().out == "error: trials: must be >= 1\n"


def zone_probability_zero(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "plan-zone", "--pr", "0", "--hops", "3"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: p_r: must be in (0, 1]\n"


def modulus_not_prime(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "aggregate", "--x", "1", "--y", "2", "--z", "3",
            "--modulus", "10"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == "error: modulus: 10 is not prime\n"


def strategy_not_integer(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="^strategy: expected an integer"):
        parse_strategy("twoway:x")
    argv = ["--out", str(tmp_path), "simulate-hunt", "--grid", "4x4",
            "--strategy", "twoway:x", "--trials", "1"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().out.startswith("error: strategy: ")


def grid_zero_width(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "simulate-hunt", "--grid", "0x4",
            "--strategy", "flood", "--trials", "1"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().out == "error: width: must be >= 1\n"


def run_pipeline_doc(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return cli_main(["--out", str(tmp_path), "run-pipeline", str(path)])


def pool_size_not_int(tmp_path, capsys):
    for field in ("modulus", "pool_size", "af_bank"):
        for value in ("x", 1.5, True):
            with pytest.raises(ScenarioError, match=f"^{field}: expected int$"):
                pipeline_config_from_doc({**SCENARIO, field: value})
    assert run_pipeline_doc(tmp_path, {**SCENARIO, "pool_size": "x"}) == 1
    assert capsys.readouterr().out == "error: pool_size: expected int\n"


def bank_split_invalid(tmp_path, capsys):
    for pool_size, af_bank in ((4, 4), (4, 0), (4, 9)):
        cfg = pipeline_config_from_doc({**SCENARIO, "pool_size": pool_size, "af_bank": af_bank})
        with pytest.raises(ConfigError, match="^af_bank: "):
            cfg.validate()
    assert run_pipeline_doc(tmp_path, {**SCENARIO, "pool_size": 4, "af_bank": 4}) == 1
    assert capsys.readouterr().out == "error: af_bank: must be in [1, pool_size=4)\n"


def ss_bank_too_large(tmp_path, capsys):
    assert run_pipeline_doc(tmp_path, {**SCENARIO, "pool_size": 70000, "af_bank": 1}) == 1
    assert capsys.readouterr().out == (
        "error: pool_size: SS bank (pool_size - af_bank) over 65536 keys\n"
    )


@pytest.mark.parametrize(
    "case", [duplicate_sources, walk_not_object, scenario_not_object, zero_trials,
             zone_probability_zero, modulus_not_prime, strategy_not_integer,
             grid_zero_width, pool_size_not_int, bank_split_invalid, ss_bank_too_large],
    ids=lambda case: case.__name__,
)
def test_bad_input_is_a_typed_error(case, tmp_path, capsys):
    case(tmp_path, capsys)
