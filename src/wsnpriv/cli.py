"""Command-line surface.

Subcommands: plan-zone, simulate-hunt, aggregate, bench, disclosure-curve,
run-pipeline, run-scenarios.  Results go to CSV files plus a JSON summary
(config echo and a digest of every emitted file) in the output directory,
which defaults to the WSNPRIV_OUT_DIR environment variable, then the
current directory.  All output is byte-deterministic under a fixed seed.
Exit status: 0 on success, 2 on bad input, 1 when a run on valid input
fails (for run-scenarios, when any scenario in the batch failed).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import pathlib
import sys

from . import climetrics
from .climetrics import (
    ClusterSizeDist,
    DisclosureModel,
    HuntCampaign,
    SPPDA_DIST,
    bench_aggregation,
    disclosure_curve,
    expecting,
    hunt_rows_to_csv,
    montecarlo_hunt,
    rows_to_csv,
)
from .phantom import min_zone_nodes
from .pipeline import run_pipeline
from .ppda import PrimeField, run_sppda
from .rng import SimRng

__all__ = ["main"]


def _out_dir(args) -> pathlib.Path:
    path = pathlib.Path(
        args.out or os.environ.get("WSNPRIV_OUT_DIR") or "."
    )
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_summary(out: pathlib.Path, command: str, config: dict,
                   results: dict, files: list[pathlib.Path]) -> None:
    summary = {
        "command": command,
        "config": config,
        "results": results,
        "file_digests": {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files
        },
    }
    (out / f"{command}.summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )


def _parse_grid(spec: str) -> tuple[int, int]:
    with expecting("grid", "WxH", spec):
        w, h = spec.lower().split("x")
        return int(w), int(h)


def _parse_b_grid(spec: str) -> list[float]:
    # "start:stop:step" or comma-separated values.
    if ":" not in spec:
        with expecting("b-grid", "numbers", spec):
            return [float(x) for x in spec.split(",")]
    with expecting("b-grid", "start:stop:step", spec):
        start, stop, step = (float(x) for x in spec.split(":"))
    if not step > 0:
        raise ValueError("b-grid: step must be > 0")
    if start > stop:
        raise ValueError(f"b-grid: start {start:g} must be <= stop {stop:g}")
    if not (0.0 <= start and stop <= 1.0):
        raise ValueError("b: must be in [0, 1]")
    points = (start + k * step for k in itertools.count())
    return [round(b, 12) for b in itertools.takewhile(lambda b: b <= stop + 1e-12, points)]


def _parse_dist(spec: str) -> ClusterSizeDist:
    # "sppda" or "uniform:min..max" or "m1=p1,m2=p2,..."
    if spec == "sppda":
        return SPPDA_DIST
    with expecting("dist", "sppda, uniform:min..max or m=p,...", spec):
        if spec.startswith("uniform:"):
            lo, _, hi = spec[len("uniform:"):].partition("..")
            lo, hi = int(lo), int(hi)
        else:
            parts = (part.partition("=") for part in spec.split(","))
            pairs = {int(m): float(p) for m, _, p in parts}
    if spec.startswith("uniform:"):
        return ClusterSizeDist.uniform(lo, hi)
    lo, hi = min(pairs), max(pairs)
    return ClusterSizeDist(
        lo, hi, tuple(pairs.get(m, 0.0) for m in range(lo, hi + 1))
    )


def cmd_plan_zone(args) -> int:
    plan = min_zone_nodes(args.pr, args.hops)
    out = _out_dir(args)
    rows = [{"p_r": plan.p_r, "hops": plan.hops, "n_min": plan.n_min, "k": plan.k}]
    csv_path = out / "plan_zone.csv"
    csv_path.write_text(rows_to_csv(rows, ["p_r", "hops", "n_min", "k"]))
    _write_summary(out, "plan-zone", {"pr": args.pr, "hops": args.hops},
                   rows[0], [csv_path])
    print(f"zone plan: N_min={plan.n_min} (K={plan.k}) for P_r={plan.p_r}, H={plan.hops}")
    return 0


def cmd_simulate_hunt(args) -> int:
    campaign = HuntCampaign(
        grids=(_parse_grid(args.grid),),
        strategies=tuple(args.strategy),
        trials=args.trials,
        message_budget=args.budget,
        master_seed=args.seed,
    )
    summary = montecarlo_hunt(campaign)
    out = _out_dir(args)
    csv_path = out / "hunt_trials.csv"
    csv_path.write_text(hunt_rows_to_csv(summary))
    cells = [{k: v for k, v in cell.items() if k != "trial_rows"} for cell in summary]
    _write_summary(out, "simulate-hunt",
                   {"grid": args.grid, "strategies": list(args.strategy),
                    "trials": args.trials, "budget": args.budget,
                    "seed": args.seed},
                   {"cells": cells}, [csv_path])
    for cell in cells:
        print(f"{cell['strategy']}: median safety {cell['median_safety']} "
              f"(capture rate {cell['capture_rate']:.2f})")
    return 0


def cmd_aggregate(args) -> int:
    field_ = PrimeField(args.modulus)
    result = run_sppda(args.x, args.y, args.z, SimRng(args.seed, "aggregate"), field_)
    out = _out_dir(args)
    doc = {"total": result.total, "pair_sum": result.pair_sum}
    _write_summary(out, "aggregate",
                   {"x": args.x, "y": args.y, "z": args.z,
                    "modulus": args.modulus, "seed": args.seed},
                   doc, [])
    print(f"pair_sum = {result.pair_sum} (D = {result.total} mod {args.modulus})")
    return 0


def _parse_sizes(spec: str) -> range | list[int]:
    # A lo..hi range stays lazy, so bench_aggregation's per-size check
    # stops at the first size out of bounds.
    with expecting("sizes", "lo..hi or a comma list", spec):
        if ".." in spec:
            lo, _, hi = spec.partition("..")
            return range(int(lo), int(hi) + 1)
        return [int(x) for x in spec.split(",")]


def cmd_bench(args) -> int:
    rows = bench_aggregation(_parse_sizes(args.sizes), args.reps, args.seed)
    out = _out_dir(args)
    docs = [dataclasses.asdict(r) for r in rows]
    csv_path = out / "bench.csv"
    csv_path.write_text(rows_to_csv(
        docs, ["scheme", "cluster_size", "median_ns", "repetitions"]
    ))
    _write_summary(out, "bench",
                   {"sizes": args.sizes, "reps": args.reps, "seed": args.seed},
                   {"rows": docs}, [csv_path])
    for d in docs:
        print(f"{d['scheme']} n={d['cluster_size']}: {d['median_ns']} ns median")
    return 0


def cmd_disclosure_curve(args) -> int:
    b_grid = _parse_b_grid(args.b_grid)
    dist = _parse_dist(args.dist)
    schemes = [("sppda", SPPDA_DIST, DisclosureModel.ALL_LINKS)]
    if dist is not SPPDA_DIST:
        schemes.append(("cpda", dist, DisclosureModel(args.model)))
    rows = disclosure_curve(b_grid, schemes)
    out = _out_dir(args)
    csv_path = out / "disclosure_curve.csv"
    csv_path.write_text(rows_to_csv(rows, ["scheme", "model", "b", "p_disclose"]))
    _write_summary(out, "disclosure-curve",
                   {"b_grid": args.b_grid, "dist": args.dist, "model": args.model},
                   {"points": len(rows)}, [csv_path])
    print(f"wrote {len(rows)} curve points to {csv_path}")
    return 0


def cmd_run_pipeline(args) -> int:
    doc = climetrics.read_json(args.config, "config")
    report = run_pipeline(climetrics.pipeline_config_from_doc(doc))
    out = _out_dir(args)
    json_path = out / "pipeline_report.json"
    json_path.write_text(
        json.dumps(report.to_doc(), indent=2, sort_keys=True) + "\n"
    )
    _write_summary(out, "run-pipeline", doc,
                   {"flows": len(report.flows)}, [json_path])
    for fl in report.flows:
        print(f"flow from node {fl.origin}: gateway recorded {fl.delivered_value} "
              f"({fl.route_hops} hops, {fl.transmissions} transmissions)")
    return 0


def cmd_run_scenarios(args) -> int:
    return climetrics.run_scenarios(args.file, str(_out_dir(args)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnpriv",
        description="Two-layer context privacy toolkit for sensor networks",
    )
    parser.add_argument("--out", default=None,
                        help="output directory (default: $WSNPRIV_OUT_DIR or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan-zone", help="size the minimum flooding zone")
    p.add_argument("--pr", type=float, required=True)
    p.add_argument("--hops", type=int, required=True)
    p.set_defaults(func=cmd_plan_zone)

    p = sub.add_parser("simulate-hunt", help="Monte-Carlo adversary campaign")
    p.add_argument("--grid", required=True, help="WxH")
    p.add_argument("--strategy", action="append", required=True,
                   help="flood | phantom:<h> | twoway:<L> (repeatable)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_simulate_hunt)

    p = sub.add_parser("aggregate", help="run one private aggregation round")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--modulus", type=int, default=2**31 - 1)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("bench", help="aggregation timing benchmark")
    p.add_argument("--sizes", default="3..12", help="e.g. 3..12 or 3,6,12")
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("disclosure-curve", help="disclosure probability table")
    p.add_argument("--b-grid", default="0:1:0.05", help="start:stop:step or list")
    p.add_argument("--dist", default="uniform:3..5",
                   help="sppda | uniform:min..max | m=p,m=p,...")
    p.add_argument("--model", default="all-links",
                   choices=[m.value for m in DisclosureModel])
    p.set_defaults(func=cmd_disclosure_curve)

    p = sub.add_parser("run-pipeline", help="run one pipeline config (JSON file)")
    p.add_argument("config")
    p.set_defaults(func=cmd_run_pipeline)

    p = sub.add_parser("run-scenarios", help="run a scenario batch (JSON file)")
    p.add_argument("file")
    p.set_defaults(func=cmd_run_scenarios)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Bad input (a ValueError) prints `error: <field>:
    <reason>` and returns 2, argparse's usage-error status; a run that fails
    on valid input (a RuntimeError) prints `error: <reason>` and returns 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}")
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
