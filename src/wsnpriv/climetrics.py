"""Experiment harness: disclosure curves, timing benchmarks, hunt campaigns.

Everything here emits deterministic CSV (fixed row order under a fixed
master seed) plus a JSON summary; plotting is downstream.  Benchmark rows
report medians of repeated runs with warm-up excluded, because absolute
wall-clock numbers are machine-bound — the contracts are growth ratios.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import statistics
import time
from dataclasses import dataclass

from .netsim import build_grid
from .phantom import FloodOnly, Phantom, TwoWay, WalkConfig, WalkMode, hunt
from .pipeline import PipelineConfig, PrivacyLevel, run_pipeline
from .ppda import PrimeField, SppdaCluster, run_cpda
from .rng import SimRng

__all__ = [
    "DisclosureModel",
    "ClusterSizeDist",
    "SPPDA_DIST",
    "disclosure_probability",
    "disclosure_curve",
    "TimingRow",
    "bench_aggregation",
    "bench_pipeline_pairs",
    "HuntCampaign",
    "montecarlo_hunt",
    "hunt_rows_to_csv",
    "run_scenarios",
    "ScenarioError",
]


class ScenarioError(ValueError):
    """Scenario file failed validation; message names the offending field."""


class DisclosureModel(enum.Enum):
    # Disclosure needs every peer link of a member broken vs any one link.
    ALL_LINKS = "all-links"
    ANY_LINK = "any-link"


@dataclass(frozen=True)
class ClusterSizeDist:
    """Probability distribution over cluster sizes m in [min_size, max_size]."""

    min_size: int
    max_size: int
    probs: tuple[float, ...]  # P(k = m) for m = min_size .. max_size

    def __post_init__(self):
        if self.min_size < 3:
            raise ValueError("min_size: must be >= 3")
        if self.min_size > self.max_size:
            raise ValueError("max_size: must be >= min_size")
        if len(self.probs) != self.max_size - self.min_size + 1:
            raise ValueError("probs: need one probability per cluster size")
        if any(p < 0 for p in self.probs):
            raise ValueError("probs: must be non-negative")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probs: must sum to 1")

    def items(self):
        return zip(range(self.min_size, self.max_size + 1), self.probs)

    @classmethod
    def uniform(cls, min_size: int, max_size: int) -> "ClusterSizeDist":
        n = max_size - min_size + 1
        return cls(min_size, max_size, tuple(1.0 / n for _ in range(n)))


# Fixed three-party scheme: two sources plus one aggregator, always.
SPPDA_DIST = ClusterSizeDist(min_size=3, max_size=3, probs=(1.0,))


def disclosure_probability(
    b: float,
    dist: ClusterSizeDist = SPPDA_DIST,
    model: DisclosureModel = DisclosureModel.ALL_LINKS,
) -> float:
    """P(private data disclosed) given per-link break probability b.

    ALL_LINKS: a size-m cluster leaks when all m-1 peer exchanges of a
    member are read, contributing b^(m-1).  ANY_LINK: one broken link
    suffices, contributing 1 - (1-b)^(m-1).  The fixed three-party scheme
    under ALL_LINKS reduces to b^2.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError("b: must be in [0, 1]")
    total = 0.0
    for m, p in dist.items():
        if model is DisclosureModel.ALL_LINKS:
            term = b ** (m - 1)
        else:
            term = 1.0 - (1.0 - b) ** (m - 1)
        total += p * term
    return total


def disclosure_curve(
    b_grid: list[float],
    schemes: list[tuple[str, ClusterSizeDist, DisclosureModel]],
) -> list[dict]:
    """One row per (b, scheme), ready for CSV emission."""
    rows = []
    for name, dist, model in schemes:
        for b in b_grid:
            rows.append({
                "scheme": name,
                "model": model.value,
                "b": b,
                "p_disclose": disclosure_probability(b, dist, model),
            })
    return rows


@dataclass(frozen=True)
class TimingRow:
    scheme: str
    cluster_size: int
    median_ns: int
    repetitions: int


def _median_timing(fn, repetitions: int, warmup: int = 3) -> int:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples))


def bench_aggregation(
    sizes: list[int], repetitions: int, master_seed: int = 1
) -> list[TimingRow]:
    """Median per-aggregation cost: fixed-3 scheme plus the n-party baseline."""
    if repetitions < 30:
        raise ValueError("repetitions: must be >= 30 for stable medians")
    for n in sizes:
        if not 3 <= n <= 64:
            raise ValueError("sizes: cluster sizes must lie in [3, 64]")
    field_ = PrimeField()
    rows: list[TimingRow] = []

    rng = SimRng(master_seed, "bench/sppda")
    cluster = SppdaCluster(rng.stream("setup"), field_=field_)
    vals = rng.stream("values")
    rows.append(TimingRow(
        scheme="sppda", cluster_size=3,
        median_ns=_median_timing(
            lambda: cluster.run_round(
                vals.randrange(field_.p), vals.randrange(field_.p),
                vals.randrange(field_.p),
            ),
            repetitions,
        ),
        repetitions=repetitions,
    ))

    for n in sizes:
        rng_n = SimRng(master_seed, f"bench/cpda:{n}")
        vals = rng_n.stream("values")
        counter = [0]
        def one_round(n=n, rng_n=rng_n, vals=vals, counter=counter):
            counter[0] += 1
            run_cpda(
                [vals.randrange(field_.p) for _ in range(n)],
                rng_n.stream(f"r:{counter[0]}"), field_,
            )
        rows.append(TimingRow(
            scheme="cpda", cluster_size=n,
            median_ns=_median_timing(one_round, repetitions),
            repetitions=repetitions,
        ))
    return rows


def bench_pipeline_pairs(
    pair_counts: list[int], repetitions: int, master_seed: int = 1
) -> list[TimingRow]:
    """Total fixed-3 aggregation cost over S clusters; contract is linear growth."""
    field_ = PrimeField()
    rows = []
    for pairs in pair_counts:
        rng = SimRng(master_seed, f"bench/pairs:{pairs}")
        clusters = [
            SppdaCluster(rng.stream(f"setup:{i}"), field_=field_)
            for i in range(pairs)
        ]
        vals = rng.stream("values")
        def all_rounds(clusters=clusters, vals=vals):
            for c in clusters:
                c.run_round(
                    vals.randrange(field_.p), vals.randrange(field_.p),
                    vals.randrange(field_.p),
                )
        rows.append(TimingRow(
            scheme="sppda-pipeline", cluster_size=pairs,
            median_ns=_median_timing(all_rounds, repetitions),
            repetitions=repetitions,
        ))
    return rows


@dataclass(frozen=True)
class HuntCampaign:
    grids: tuple[tuple[int, int], ...]
    strategies: tuple[str, ...]  # "flood" | "phantom:<h>" | "twoway:<L>"
    trials: int
    message_budget: int
    master_seed: int


def parse_strategy(spec: str):
    if spec == "flood":
        return FloodOnly()
    kind, _, arg = spec.partition(":")
    if kind in ("phantom", "twoway") and arg:
        try:
            n = int(arg)
        except ValueError:
            raise ScenarioError(
                f"strategy: expected an integer after {kind}:, got {spec!r}"
            ) from None
        if kind == "phantom":
            return Phantom(WalkConfig(mode=WalkMode.PURE, hops=n))
        return TwoWay(receptor_length=n)
    raise ScenarioError(f"strategy: unrecognized spec {spec!r}")


def montecarlo_hunt(campaign: HuntCampaign) -> list[dict]:
    """Per (grid, strategy) cell: safety-period quantiles over seeded trials.

    Also emits per-trial rows (strategy, grid, safety period, capture flag,
    transmissions, mean latency) for the CSV log.
    """
    if campaign.trials < 1:
        raise ScenarioError("trials: must be >= 1")
    summary = []
    for (w, h) in campaign.grids:
        topology = build_grid(w, h)
        for spec in campaign.strategies:
            strategy = parse_strategy(spec)
            safeties = []
            captures = 0
            trial_rows = []
            for t in range(campaign.trials):
                rng = SimRng(campaign.master_seed, f"hunt/{w}x{h}/{spec}/trial:{t}")
                report = hunt(topology, strategy, campaign.message_budget, rng)
                safeties.append(report.safety_period)
                captures += int(report.captured)
                delivered = [l for l in report.delivery_latency_hops if l >= 0]
                trial_rows.append({
                    "trial": t,
                    "strategy": spec,
                    "walk_hops": strategy.walk.hops if isinstance(strategy, Phantom) else 0,
                    "grid_w": w,
                    "grid_h": h,
                    "safety_period": report.safety_period,
                    "captured": int(report.captured),
                    "transmissions": report.transmissions_total,
                    "mean_latency_hops": (
                        round(sum(delivered) / len(delivered), 3) if delivered else -1
                    ),
                })
            safeties.sort()
            summary.append({
                "grid_w": w,
                "grid_h": h,
                "strategy": spec,
                "trials": campaign.trials,
                "median_safety": statistics.median(safeties),
                "q25_safety": safeties[len(safeties) // 4],
                "q75_safety": safeties[(3 * len(safeties)) // 4],
                "capture_rate": captures / campaign.trials,
                "trial_rows": trial_rows,
            })
    return summary


HUNT_CSV_COLUMNS = [
    "trial", "strategy", "walk_hops", "grid_w", "grid_h",
    "safety_period", "captured", "transmissions", "mean_latency_hops",
]


def hunt_rows_to_csv(summary: list[dict]) -> str:
    return rows_to_csv([row for cell in summary for row in cell["trial_rows"]], HUNT_CSV_COLUMNS)


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in columns})
    return buf.getvalue()


_LEVELS = {lv.value: lv for lv in PrivacyLevel}
_WALK_MODES = {m.value: m for m in WalkMode}


def pipeline_config_from_doc(doc: dict) -> PipelineConfig:
    """Validate a scenario document; errors name the offending field."""
    def need(key, kind):
        if key not in doc:
            raise ScenarioError(f"{key}: missing required field")
        value = doc[key]
        if kind is int and isinstance(value, bool):
            raise ScenarioError(f"{key}: expected {kind.__name__}")
        if not isinstance(value, kind):
            raise ScenarioError(f"{key}: expected {kind.__name__}")
        return value

    def optional(key, kind, default):
        return need(key, kind) if key in doc else default

    level_name = need("level", str)
    if level_name not in _LEVELS:
        raise ScenarioError(f"level: unknown value {level_name!r}")
    readings = {int(k): int(v) for k, v in need("readings", dict).items()}
    walk_doc = doc.get("walk", {})
    if not isinstance(walk_doc, dict):
        raise ScenarioError("walk: expected object")
    mode, hops = walk_doc.get("mode", "directed"), walk_doc.get("hops", 5)
    if not isinstance(mode, str) or mode not in _WALK_MODES:
        raise ScenarioError(f"walk.mode: unknown value {mode!r}")
    if isinstance(hops, bool) or not isinstance(hops, int) or hops < 0:
        raise ScenarioError("walk.hops: expected int >= 0")
    walk = WalkConfig(mode=_WALK_MODES[mode], hops=hops)
    cfg = PipelineConfig(
        width=need("width", int),
        height=need("height", int),
        level=_LEVELS[level_name],
        sources=tuple(int(s) for s in need("sources", list)),
        readings=readings,
        master_seed=need("master_seed", int),
        radio_range=float(doc.get("radio_range", 1.0)),
        sink=int(doc.get("sink", 0)),
        walk=walk,
        receptor_length=(
            int(doc["receptor_length"]) if doc.get("receptor_length") is not None else None
        ),
        modulus=optional("modulus", int, 2**31 - 1),
        pool_size=optional("pool_size", int, 256),
        af_bank=optional("af_bank", int, 128),
        aggregator_dummy=int(doc.get("aggregator_dummy", 0)),
    )
    return cfg


def run_scenarios(path: str, out_dir: str) -> int:
    """Execute every scenario in a JSON file; returns a process exit status."""
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot parse scenario file: {exc}")
        return 1
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list):
        print("error: scenarios: expected a list")
        return 1
    status = 0
    for i, scen in enumerate(scenarios):
        if not isinstance(scen, dict):
            print(f"error: scenario-{i}: expected an object")
            status = 1
            continue
        name = scen.get("name", f"scenario-{i}")
        try:
            cfg = pipeline_config_from_doc(scen)
            report = run_pipeline(cfg)
        except (ScenarioError, ValueError) as exc:
            print(f"error: {name}: {exc}")
            status = 1
            continue
        report_doc = report.to_doc()
        (out / f"{name}.json").write_text(
            json.dumps(report_doc, indent=2, sort_keys=True) + "\n"
        )
        rows = [
            {
                "scenario": name,
                "flow": j,
                "origin": fl["origin"],
                "delivered_value": fl["delivered_value"],
                "route_hops": fl["route_hops"],
                "transmissions": fl["transmissions"],
            }
            for j, fl in enumerate(report_doc["flows"])
        ]
        (out / f"{name}.csv").write_text(rows_to_csv(
            rows, ["scenario", "flow", "origin", "delivered_value",
                   "route_hops", "transmissions"],
        ))
        print(f"ok: {name}: {len(rows)} flow(s)")
    return status
