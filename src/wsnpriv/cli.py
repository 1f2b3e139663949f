"""Command-line surface.

Subcommands: plan-zone, simulate-hunt, aggregate, bench, disclosure-curve,
run-pipeline, run-scenarios.  Output goes to --out, else the
WSNPRIV_OUT_DIR environment variable, else the current directory.  Each
subcommand but run-scenarios writes its files, then <command>.summary.json:
the config echo (the parsed options; run-pipeline's config document), the
results and a digest of every file written.  run-scenarios writes
<name>.json and <name>.csv per scenario and no summary.  All output is
UTF-8, written over in place and byte-deterministic under a fixed seed.
Exit status: 0 on success, 2 on bad input (an unusable --out too), 1 when
a run on valid input fails (for run-scenarios, when any scenario failed).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
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
from .pipeline import ConfigError, run_pipeline
from .ppda import DEFAULT_MODULUS, PrimeField, run_sppda
from .rng import SimRng

__all__ = ["main", "run_scenarios"]

B_GRID_MAX = 100_001  # points in a start:stop:step range; 0:1:0.00001 fits


@contextlib.contextmanager
def _out_errors():
    """An output path the OS refuses is bad input: ConfigError("out: ...")."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from exc


def _out_dir(out: str | None) -> pathlib.Path:
    path = pathlib.Path(out or os.environ.get("WSNPRIV_OUT_DIR") or ".")
    with _out_errors():
        path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: pathlib.Path, text: str) -> bytes:
    """Write `text` as UTF-8 over `path` in place, cut the file there and
    return the bytes.  Without O_TRUNC, ext4 flushes no replaced data."""
    data = text.encode()
    with _out_errors():
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as f:
            f.write(data)
            f.truncate()
    return data


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _finish(args, results: dict, files: dict[str, str],
            config: dict | None = None) -> pathlib.Path:
    """Write each {name: text} file, then <command>.summary.json: the config
    echo (the parsed options unless `config` is given), `results` and the
    SHA-256 of every file's bytes.  Returns the output directory."""
    out = _out_dir(args.out)
    digests = {}
    for name, text in files.items():
        digests[name] = hashlib.sha256(_write(out / name, text)).hexdigest()
    if config is None:
        config = {k: v for k, v in vars(args).items() if k not in ("out", "command", "func")}
    summary = {"command": args.command, "config": config, "results": results,
               "file_digests": digests}
    _write(out / f"{args.command}.summary.json", _json(summary))
    return out


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
    if step == float("inf"):  # start + 0 * inf is NaN: the range would come out empty
        raise ValueError("b-grid: step must be finite")
    if start > stop:
        raise ValueError(f"b-grid: start {start:g} must be <= stop {stop:g}")
    if not (0.0 <= start and stop <= 1.0):
        raise ValueError("b: must be in [0, 1]")
    points = (start + k * step for k in itertools.count())
    in_range = itertools.takewhile(lambda b: b <= stop + 1e-12, points)
    grid = [round(b, 12) for b in itertools.islice(in_range, B_GRID_MAX + 1)]
    if len(grid) > B_GRID_MAX:
        raise ValueError(f"b-grid: range gives more than {B_GRID_MAX} points")
    return grid


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
    return ClusterSizeDist.over(min(pairs), max(pairs), lambda m: pairs.get(m, 0.0))


def cmd_plan_zone(args) -> int:
    plan = min_zone_nodes(args.pr, args.hops)
    row = {"p_r": plan.p_r, "hops": plan.hops, "n_min": plan.n_min, "k": plan.k}
    _finish(args, row, {"plan_zone.csv": rows_to_csv([row], list(row))})
    print(f"zone plan: N_min={plan.n_min} (K={plan.k}) for P_r={plan.p_r}, H={plan.hops}")
    return 0


def cmd_simulate_hunt(args) -> int:
    campaign = HuntCampaign(
        grids=(_parse_grid(args.grid),),
        strategies=tuple(args.strategies),
        trials=args.trials,
        message_budget=args.budget,
        master_seed=args.seed,
    )
    summary = montecarlo_hunt(campaign)
    cells = [{k: v for k, v in cell.items() if k != "trial_rows"} for cell in summary]
    _finish(args, {"cells": cells}, {"hunt_trials.csv": hunt_rows_to_csv(summary)})
    for cell in cells:
        print(f"{cell['strategy']}: median safety {cell['median_safety']} "
              f"(capture rate {cell['capture_rate']:.2f})")
    return 0


def cmd_aggregate(args) -> int:
    field_ = PrimeField(args.modulus)
    result = run_sppda(args.x, args.y, args.z, SimRng(args.seed, "aggregate"), field_)
    _finish(args, {"total": result.total, "pair_sum": result.pair_sum}, {})
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
    docs = [dataclasses.asdict(r) for r in rows]
    columns = ["scheme", "cluster_size", "median_ns", "repetitions"]
    _finish(args, {"rows": docs}, {"bench.csv": rows_to_csv(docs, columns)})
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
    csv_text = rows_to_csv(rows, ["scheme", "model", "b", "p_disclose"])
    out = _finish(args, {"points": len(rows)}, {"disclosure_curve.csv": csv_text})
    print(f"wrote {len(rows)} curve points to {out / 'disclosure_curve.csv'}")
    return 0


def _run_doc(doc) -> dict:
    """Parse a scenario document, run it, and return its report as JSON data."""
    return run_pipeline(climetrics.pipeline_config_from_doc(doc)).to_doc()


def cmd_run_pipeline(args) -> int:
    doc = climetrics.read_json(args.config, "config")
    report = _run_doc(doc)
    _finish(args, {"flows": len(report["flows"])},
            {"pipeline_report.json": _json(report)}, config=doc)
    for fl in report["flows"]:
        print(f"flow from node {fl['origin']}: gateway recorded {fl['delivered_value']} "
              f"({fl['route_hops']} hops, {fl['transmissions']} transmissions)")
    return 0


def _say(line: str) -> None:
    """Print a line; what stdout cannot encode prints escaped, as zon\\xe9."""
    encoding = sys.stdout.encoding or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


def run_scenarios(path: str, out_dir: str | None) -> int:
    """Run every scenario of a JSON batch file, each to <name>.json and
    <name>.csv (no summary).  Returns 1 if any scenario failed (the rest
    still run), else 0; an unreadable file or a missing list raises."""
    out = _out_dir(out_dir)
    doc = climetrics.read_json(path, "file")
    scenarios = doc.get("scenarios") if isinstance(doc, dict) else None
    if not isinstance(scenarios, list):
        raise ConfigError("scenarios: expected a list")
    status = 0
    for i, scen in enumerate(scenarios):
        if not isinstance(scen, dict):
            _say(f"error: scenario-{i}: expected an object")
            status = 1
            continue
        name = scen.get("name", f"scenario-{i}")
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            _say(f"error: name: {name!r} is not a plain file name")
            status = 1
            continue
        try:
            report = _run_doc(scen)
            _write(out / f"{name}.json", _json(report))
            rows = [{"scenario": name, "flow": j, **fl} for j, fl in enumerate(report["flows"])]
            _write(out / f"{name}.csv", rows_to_csv(
                rows, ["scenario", "flow", "origin", "delivered_value",
                       "route_hops", "transmissions"],
            ))
        except (OSError, ValueError, RuntimeError) as exc:
            _say(f"error: {name}: {exc}")
            status = 1
            continue
        _say(f"ok: {name}: {len(rows)} flow(s)")
    return status


@functools.cache  # built on first use, not at import: most importers never parse
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
    p.add_argument("--strategy", action="append", dest="strategies", metavar="STRATEGY",
                   required=True, help="flood | phantom:<h> | twoway:<L> (repeatable)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_simulate_hunt)

    p = sub.add_parser("aggregate", help="run one private aggregation round")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--modulus", type=int, default=DEFAULT_MODULUS)
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
    p.set_defaults(func=lambda args: run_scenarios(args.file, args.out))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Bad input (a ValueError) prints `error: <field>:
    <reason>` and returns 2, argparse's usage-error status; a run that fails
    on valid input (a RuntimeError) prints `error: <reason>` and returns 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        _say(f"error: {exc}")
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
