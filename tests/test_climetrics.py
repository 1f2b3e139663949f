import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnpriv import netsim
from wsnpriv.cli import main, run_scenarios
from wsnpriv.climetrics import (
    SPPDA_DIST,
    ClusterSizeDist,
    DisclosureModel,
    HuntCampaign,
    bench_aggregation,
    bench_pipeline_pairs,
    disclosure_curve,
    disclosure_probability,
    hunt_rows_to_csv,
    montecarlo_hunt,
    parse_strategy,
    pipeline_config_from_doc,
)
from wsnpriv.netsim import build_grid
from wsnpriv.phantom import TwoWay, WalkConfig, WalkMode, hunt
from wsnpriv.pipeline import PipelineConfig
from wsnpriv.rng import SimRng


# --- cluster size distributions ---

def test_dist_validation():
    with pytest.raises(ValueError):
        ClusterSizeDist(2, 3, (0.5, 0.5))
    with pytest.raises(ValueError):
        ClusterSizeDist(4, 3, ())
    with pytest.raises(ValueError):
        ClusterSizeDist(3, 4, (1.0,))
    with pytest.raises(ValueError):
        ClusterSizeDist(3, 4, (0.9, 0.2))
    with pytest.raises(ValueError):
        ClusterSizeDist(3, 4, (1.1, -0.1))


def test_uniform_dist():
    dist = ClusterSizeDist.uniform(3, 6)
    assert list(dist.items()) == [(3, 0.25), (4, 0.25), (5, 0.25), (6, 0.25)]


# --- disclosure probability ---

def test_sppda_disclosure_is_b_squared():
    # Degenerate size-3 distribution under the all-links model: p = b^2.
    for b in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert disclosure_probability(b) == pytest.approx(b * b)


def test_disclosure_uniform_oracle_value():
    # Uniform sizes 3..5 at b = 0.5: (0.25 + 0.125 + 0.0625) / 3.
    dist = ClusterSizeDist.uniform(3, 5)
    expected = (0.5**2 + 0.5**3 + 0.5**4) / 3
    assert expected == pytest.approx(0.14583333333333331)
    assert disclosure_probability(0.5, dist) == pytest.approx(expected)


def test_any_link_model_endpoints_and_dominance():
    dist = ClusterSizeDist.uniform(3, 5)
    assert disclosure_probability(0.0, dist, DisclosureModel.ANY_LINK) == 0.0
    assert disclosure_probability(1.0, dist, DisclosureModel.ANY_LINK) == 1.0
    for b in (0.1, 0.4, 0.8):
        assert (
            disclosure_probability(b, dist, DisclosureModel.ANY_LINK)
            >= disclosure_probability(b, dist, DisclosureModel.ALL_LINKS)
        )


def test_disclosure_domain():
    with pytest.raises(ValueError):
        disclosure_probability(-0.01)
    with pytest.raises(ValueError):
        disclosure_probability(1.01)


@settings(max_examples=200, deadline=None)
@given(
    b1=st.floats(min_value=0.0, max_value=1.0),
    b2=st.floats(min_value=0.0, max_value=1.0),
    model=st.sampled_from(list(DisclosureModel)),
)
def test_disclosure_monotone_in_b(b1, b2, model):
    lo, hi = sorted((b1, b2))
    dist = ClusterSizeDist.uniform(3, 8)
    assert disclosure_probability(lo, dist, model) <= disclosure_probability(
        hi, dist, model
    ) + 1e-12


def test_disclosure_curve_rows():
    rows = disclosure_curve(
        [0.0, 0.5, 1.0],
        [("sppda", SPPDA_DIST, DisclosureModel.ALL_LINKS)],
    )
    assert [(r["b"], r["p_disclose"]) for r in rows] == [
        (0.0, 0.0), (0.5, 0.25), (1.0, 1.0)
    ]
    assert all(r["scheme"] == "sppda" and r["model"] == "all-links" for r in rows)


# --- benchmarks ---

def test_bench_validation():
    with pytest.raises(ValueError):
        bench_aggregation([3], repetitions=5)
    with pytest.raises(ValueError):
        bench_aggregation([2], repetitions=30)
    with pytest.raises(ValueError):
        bench_aggregation([65], repetitions=30)


def test_bench_aggregation_smoke():
    rows = bench_aggregation([3, 6], repetitions=30)
    schemes = [(r.scheme, r.cluster_size) for r in rows]
    assert schemes == [("sppda", 3), ("cpda", 3), ("cpda", 6)]
    assert all(r.median_ns > 0 and r.repetitions == 30 for r in rows)
    cpda3 = next(r for r in rows if r.scheme == "cpda" and r.cluster_size == 3)
    cpda6 = next(r for r in rows if r.cluster_size == 6)
    assert cpda6.median_ns > cpda3.median_ns  # more parties must cost more


def test_bench_pipeline_pairs_smoke():
    rows = bench_pipeline_pairs([1, 4], repetitions=30)
    assert [r.cluster_size for r in rows] == [1, 4]
    # S parallel clusters should cost roughly S times one cluster; allow a
    # wide band since absolute timing is machine-bound.
    ratio = rows[1].median_ns / rows[0].median_ns
    assert 2.0 <= ratio <= 12.0


# --- hunt campaigns ---

def test_parse_strategy():
    assert parse_strategy("flood") == WalkConfig()
    assert parse_strategy("phantom:7") == WalkConfig(WalkMode.PURE, 7)
    tw = parse_strategy("twoway:4")
    assert isinstance(tw, TwoWay) and tw.receptor_length == 4
    for bad in ("phantom", "walk:3", "phantom:", ""):
        with pytest.raises(ValueError):
            parse_strategy(bad)


def test_montecarlo_single_trial_equals_direct_hunt():
    campaign = HuntCampaign(
        grids=((6, 6),), strategies=("flood",), trials=1,
        message_budget=50, master_seed=9,
    )
    (cell,) = montecarlo_hunt(campaign)
    direct = hunt(
        build_grid(6, 6), WalkConfig(), 50, SimRng(9, "hunt/6x6/flood/trial:0")
    )
    assert cell["median_safety"] == direct.safety_period
    assert cell["capture_rate"] == float(direct.captured)
    assert cell["trial_rows"][0]["transmissions"] == direct.transmissions_total


def test_montecarlo_csv_deterministic():
    campaign = HuntCampaign(
        grids=((5, 5),), strategies=("flood", "phantom:3"), trials=5,
        message_budget=30, master_seed=2,
    )
    csv1 = hunt_rows_to_csv(montecarlo_hunt(campaign))
    csv2 = hunt_rows_to_csv(montecarlo_hunt(campaign))
    assert csv1 == csv2
    assert csv1.splitlines()[0].startswith("trial,strategy,walk_hops")
    assert len(csv1.splitlines()) == 1 + 2 * 5


def test_montecarlo_rows_do_not_depend_on_a_shape_an_earlier_campaign_walked():
    # build_grid shares one step table per shape across calls: a campaign on
    # a table another campaign filled must emit what it emits on an empty one.
    later = HuntCampaign(
        grids=((7, 6),), strategies=("twoway:3", "phantom:4"), trials=4,
        message_budget=30, master_seed=5,
    )
    netsim._lattice.cache_clear()
    montecarlo_hunt(HuntCampaign(
        grids=((7, 6),), strategies=("phantom:6",), trials=3,
        message_budget=30, master_seed=11,
    ))
    assert any(row is not None for row in build_grid(7, 6).step_table())
    on_filled_table = montecarlo_hunt(later)
    netsim._lattice.cache_clear()
    assert montecarlo_hunt(later) == on_filled_table


def test_montecarlo_quantile_ordering():
    campaign = HuntCampaign(
        grids=((8, 8),), strategies=("phantom:4",), trials=20,
        message_budget=60, master_seed=3,
    )
    (cell,) = montecarlo_hunt(campaign)
    assert cell["q25_safety"] <= cell["median_safety"] <= cell["q75_safety"]
    assert 0.0 <= cell["capture_rate"] <= 1.0


# --- scenario files ---

def test_scenario_doc_validation_names_field():
    base = {
        "level": "full", "width": 5, "height": 5, "sources": [22, 24],
        "readings": {"22": 5, "24": 7}, "master_seed": 1,
    }
    cfg = pipeline_config_from_doc(base)
    assert cfg.sources == (22, 24)

    for key, value, needle in [
        ("level", "ultra", "level"),
        ("width", "5", "width"),
        ("master_seed", True, "master_seed"),
        ("sources", 5, "sources"),
    ]:
        bad = dict(base)
        bad[key] = value
        with pytest.raises(ValueError, match=needle):
            pipeline_config_from_doc(bad)
    missing = dict(base)
    del missing["readings"]
    with pytest.raises(ValueError, match="readings"):
        pipeline_config_from_doc(missing)


def test_partial_walk_takes_pipeline_default():
    base = {
        "level": "full", "width": 5, "height": 5, "sources": [22, 24],
        "readings": {"22": 5, "24": 7}, "master_seed": 1,
    }
    default = PipelineConfig.walk
    assert pipeline_config_from_doc(base).walk == default
    assert pipeline_config_from_doc({**base, "walk": {}}).walk == default
    assert pipeline_config_from_doc({**base, "walk": {"hops": 2}}).walk == WalkConfig(
        mode=default.mode, hops=2)
    assert pipeline_config_from_doc({**base, "walk": {"mode": "pure"}}).walk == WalkConfig(
        mode=WalkMode.PURE, hops=default.hops)
    assert pipeline_config_from_doc({**base, "name": "x", "extra": [1]}).sources == (22, 24)


def test_run_scenarios_empty_list(tmp_path):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"scenarios": []}))
    assert run_scenarios(str(f), str(tmp_path / "out")) == 0


def test_run_scenarios_bad_file(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text("{not json")
    with pytest.raises(ValueError, match="^file: "):
        run_scenarios(str(f), str(tmp_path / "out"))
    assert main(["--out", str(tmp_path / "out"), "run-scenarios", str(f)]) == 2
    assert capsys.readouterr().out.startswith("error: file: ")

    f.write_text(json.dumps({"scenarios": [{"name": "broken", "level": "full"}]}))
    assert run_scenarios(str(f), str(tmp_path / "out")) == 1
    assert "readings" in capsys.readouterr().out


def test_run_reference_scenario(tmp_path):
    status = run_scenarios("scenarios/reference_sppda.json", str(tmp_path))
    assert status == 0
    doc = json.loads((tmp_path / "reference-sppda.json").read_text())
    assert doc["flows"][0]["delivered_value"] == 12
    csv_text = (tmp_path / "reference-sppda.csv").read_text()
    assert ",12," in csv_text
