"""Experiment harness: disclosure curves, timing benchmarks, hunt campaigns,
and the scenario-document parser.

Rows come in a fixed order under a fixed master seed, ready for the CLI's
CSV files; plotting is downstream.  Benchmark rows report warm medians of
repeated runs, rows timed in turn, because absolute wall-clock numbers are
machine-bound — the contracts are growth ratios.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import io
import json
import pathlib
import statistics
import time
import typing
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, fields, replace

from .netsim import NodeId, build_grid
from .phantom import TwoWay, WalkConfig, WalkMode, hunt
from .pipeline import PipelineConfig, PrivacyLevel
from .ppda import SppdaCluster
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
]


@contextlib.contextmanager
def expecting(field: str, form: str, spec: str):
    """Re-raise a ValueError from parsing `spec` as `field: expected form`."""
    try:
        yield
    except ValueError:
        raise ValueError(f"{field}: expected {form}, got {spec!r}") from None


class DisclosureModel(enum.Enum):
    # Disclosure needs every peer link of a member broken vs any one link.
    ALL_LINKS = "all-links"
    ANY_LINK = "any-link"


CLUSTER_SIZES = range(3, 65)  # the cluster sizes m that curves and benchmarks take


@dataclass(frozen=True)
class ClusterSizeDist:
    """Probability distribution over cluster sizes m in [min_size, max_size],
    a span inside CLUSTER_SIZES."""

    min_size: int
    max_size: int
    probs: tuple[float, ...]  # P(k = m) for m = min_size .. max_size

    def __post_init__(self):
        if self.min_size < CLUSTER_SIZES[0]:
            raise ValueError(f"min_size: must be >= {CLUSTER_SIZES[0]}")
        if not self.min_size <= self.max_size <= CLUSTER_SIZES[-1]:
            raise ValueError(f"max_size: must lie in [min_size, {CLUSTER_SIZES[-1]}]")
        if len(self.probs) != self.max_size - self.min_size + 1:
            raise ValueError("probs: need one probability per cluster size")
        if not all(p >= 0 for p in self.probs):  # also NaN
            raise ValueError("probs: must be non-negative")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probs: must sum to 1")

    def items(self):
        return zip(range(self.min_size, self.max_size + 1), self.probs)

    @classmethod
    def over(cls, min_size: int, max_size: int, prob) -> "ClusterSizeDist":
        """P(k = m) = prob(m) for each m in the span.  Only sizes in CLUSTER_SIZES
        are visited, so a span past them fails its check without a pass over it."""
        probs = tuple(prob(m) for m in CLUSTER_SIZES if min_size <= m <= max_size)
        return cls(min_size, max_size, probs)

    @classmethod
    def uniform(cls, min_size: int, max_size: int) -> "ClusterSizeDist":
        n = max_size - min_size + 1
        return cls.over(min_size, max_size, lambda m: 1.0 / n)


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
    under ALL_LINKS reduces to b^2.  b models an outside eavesdropper, and
    the probability is a member's, not the aggregator's (whose own share is
    never sent); a co-source holding the banks reads a member at any b.
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


WARMUP = 3  # untimed calls of every row before any row is timed


def _timed_rows(rows: list[tuple[str, int, typing.Callable[[], None]]],
                repetitions: int) -> list[TimingRow]:
    """One TimingRow per (scheme, cluster_size, fn): fn's median ns per call.

    Every fn is warmed up first; then each repetition times every fn once
    in turn, so a burst of host load lands on all rows alike instead of on
    whichever row happened to be running.
    """
    for _, _, fn in rows:
        for _ in range(WARMUP):
            fn()
    samples: list[list[int]] = [[] for _ in rows]
    for _ in range(repetitions):
        for (_, _, fn), row in zip(rows, samples):
            t0 = time.perf_counter_ns()
            fn()
            row.append(time.perf_counter_ns() - t0)
    return [TimingRow(scheme, size, int(statistics.median(row)), repetitions)
            for (scheme, size, _), row in zip(rows, samples)]


def _warm_rounds(clusters: int, n: int, master_seed: int):
    """One warm round over `clusters` n-party clusters set up from the
    bench/rounds:<clusters>x<n> streams."""
    rng = SimRng(master_seed, f"bench/rounds:{clusters}x{n}")
    built = [SppdaCluster(rng.stream(f"setup:{i}"), node_ids=tuple(range(n)))
             for i in range(clusters)]
    vals = rng.stream("values")

    def all_rounds():
        for c in built:  # fresh values per cluster
            c.run_round(*(vals.randrange(c.field.p) for _ in range(n)))
    return all_rounds


def bench_aggregation(
    sizes: Sequence[int], repetitions: int, master_seed: int = 1
) -> list[TimingRow]:
    """Median cost of one warm round: the fixed-3 scheme, then CPDA at each
    size, each an SppdaCluster of that size set up beforehand, so both send
    their sealed frames.  All rows are timed together, interleaved."""
    if repetitions < 30:
        raise ValueError("repetitions: must be >= 30 for stable medians")
    for n in sizes:
        if n not in CLUSTER_SIZES:
            raise ValueError(
                f"sizes: cluster sizes must lie in [{CLUSTER_SIZES[0]}, {CLUSTER_SIZES[-1]}]")
    rows = [("sppda", 3, _warm_rounds(1, 3, master_seed))]
    rows += [("cpda", n, _warm_rounds(1, n, master_seed)) for n in sizes]
    return _timed_rows(rows, repetitions)


def bench_pipeline_pairs(
    pair_counts: list[int], repetitions: int, master_seed: int = 1
) -> list[TimingRow]:
    """Total fixed-3 aggregation cost over S clusters; contract is linear growth."""
    rows = [("sppda-pipeline", pairs, _warm_rounds(pairs, 3, master_seed))
            for pairs in pair_counts]
    return _timed_rows(rows, repetitions)


@dataclass(frozen=True)
class HuntCampaign:
    grids: tuple[tuple[int, int], ...]
    strategies: tuple[str, ...]  # "flood" | "phantom:<h>" | "twoway:<L>"
    trials: int
    message_budget: int
    master_seed: int


def parse_strategy(spec: str) -> WalkConfig | TwoWay:
    if spec == "flood":
        return WalkConfig()
    kind, _, arg = spec.partition(":")
    if kind in ("phantom", "twoway") and arg:
        with expecting("strategy", f"an integer after {kind}:", spec):
            n = int(arg)
        if kind == "phantom":
            return WalkConfig(mode=WalkMode.PURE, hops=n)
        return TwoWay(receptor_length=n)
    raise ValueError(f"strategy: unrecognized spec {spec!r}")


def montecarlo_hunt(campaign: HuntCampaign) -> list[dict]:
    """Per (grid, strategy) cell: safety-period quantiles over seeded trials.

    Also emits per-trial rows (strategy, grid, safety period, capture flag,
    transmissions, mean latency) for the CSV log.
    """
    if campaign.trials < 1:
        raise ValueError("trials: must be >= 1")
    strategies = [(spec, parse_strategy(spec)) for spec in campaign.strategies]
    summary = []
    for (w, h) in campaign.grids:
        topology = build_grid(w, h)
        for spec, strategy in strategies:
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
                    "walk_hops": strategy.hops if isinstance(strategy, WalkConfig) else 0,
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


def _expect(key: str, value, kinds: tuple[type, ...], name: str):
    if type(value) not in kinds:  # exact types: a bool is not an int
        raise ValueError(f"{key}: expected {name}")
    return value


def _readings(key: str, value) -> dict[NodeId, int]:
    readings = {}
    for node, v in _expect(key, value, (dict,), "object").items():
        if not (isinstance(node, str) and node.isdecimal()):
            raise ValueError(f"{key}: key {node!r} is not a decimal node id")
        readings[int(node)] = _expect(f"{key}.{node}", v, (int,), "int")
    return readings


def _enum(cls: type[enum.Enum]):
    members = {m.value: m for m in cls}

    def parse(key: str, value):
        if isinstance(value, str) and value in members:
            return members[value]
        raise ValueError(f"{key}: unknown value {value!r}")
    return parse


def _fields_parser(cls, defaults=None):
    """Parser for a JSON object of dataclass `cls`, each field parsed by its annotation.
    Present fields are type-checked before missing ones are reported; an omitted field
    takes its value from `defaults` if given, else from the dataclass.  Unknown keys pass."""
    hints = typing.get_type_hints(cls)
    spec = [(f.name, _PARSERS[hints[f.name]], defaults is None and f.default is MISSING)
            for f in fields(cls)]

    def parse(key: str, value):
        prefix = f"{key}." if key else ""
        doc = _expect(key or "config", value, (dict,), "object")
        kwargs = {name: parse_field(prefix + name, doc[name])
                  for name, parse_field, _ in spec if name in doc}
        missing = [prefix + name for name, _, required in spec if required and name not in doc]
        if missing:
            raise ValueError(f"{', '.join(missing)}: missing required field")
        try:
            return cls(**kwargs) if defaults is None else replace(defaults, **kwargs)
        except ValueError as exc:  # the dataclass's own checks, e.g. walk.hops
            raise ValueError(f"{prefix}{exc}") from None
    return parse


# One parser per field annotation of PipelineConfig and WalkConfig.
_PARSERS = {
    int: lambda key, v: _expect(key, v, (int,), "int"),
    float: lambda key, v: float(_expect(key, v, (int, float), "number")),
    int | None: lambda key, v: _expect(key, v, (int, type(None)), "int or null"),
    tuple[NodeId, ...]: lambda key, v: tuple(_expect(key, s, (int,), "int")
                                             for s in _expect(key, v, (list,), "list")),
    dict[NodeId, int]: _readings,
    PrivacyLevel: _enum(PrivacyLevel),
    WalkMode: _enum(WalkMode),
}
# A partial walk object fills in from PipelineConfig's default walk, not
# from WalkConfig's own defaults.
_PARSERS[WalkConfig] = _fields_parser(WalkConfig, defaults=PipelineConfig.walk)
_parse_config = _fields_parser(PipelineConfig)


def pipeline_config_from_doc(doc: dict) -> PipelineConfig:
    """Validate a scenario document; errors name the offending field."""
    return _parse_config("", doc)


def read_json(path: str, key: str):
    """The JSON document at `path`; an unreadable file is bad input in `key`."""
    try:
        return json.loads(pathlib.Path(path).read_bytes())  # JSON is UTF-8, whatever the locale
    except (OSError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None
