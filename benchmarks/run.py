"""wsnpriv benchmark: four closed-loop workloads against this checkout's src/.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all      # every workload, by name
    python3 benchmarks/run.py --smoke             # brief self-check of the benchmark

One client in one thread issues one operation after another.  Each run
starts fresh interpreters: six that only set up, and one that sets up and
then measures for S seconds, untraced (--trace 0: end-to-end metrics) or
traced (--trace 1: per-layer metrics).  The last stdout line is a JSON
object with the keys correct, attempted, failed and metrics.  The exit
status is 0 when every operation succeeded and every output checked out,
1 when one did not, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("hunt", "aggregate-cold", "rounds-warm", "pipeline-cli")
SETUPS = 7           # setups per run; setup_s is their median
DEADLINE_S = 170     # every run ends inside 180 s


class BenchError(Exception):
    """The benchmark could not run."""


def spawn(args: dict, started: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = DEADLINE_S - (time.monotonic() - started)
    args = dict(args, spawned_ns=time.monotonic_ns())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(args)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=max(timeout, 1),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args['workload']}: worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args['workload']}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up SETUPS times, measure once; every step in a fresh interpreter."""
    started = time.monotonic()
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loadavg_before": os.getloadavg(),
    }
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    base = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        setups = [
            spawn(dict(base, setup_only=True, workdir=str(workdir / f"setup-{k}")), started)
            for k in range(SETUPS - 1)
        ]
        result = spawn(dict(base, setup_only=False, workdir=str(workdir / "run")), started)
        setups.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    env["loadavg_after"] = os.getloadavg()
    env["wsnpriv_file"] = result["wsnpriv_file"]
    metrics = dict(result["metrics"])
    if not trace:
        metrics.update(
            setup_s=statistics.median(s["setup_s"] for s in setups),
            peak_rss_mb=result["peak_rss_mb"],
        )
    return {
        "env": env,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "named": result.get("named", {}),
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
        "digest": result.get("digest"),
        "host_slowdown": result.get("host_slowdown"),
        "samples": result.get("samples", result.get("passes")),
    }


def units(trace: bool) -> dict:
    """Metric names and units, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def show(run: dict, trace: bool) -> None:
    """Print a run's environment and every metric by name, with its unit."""
    env = run["env"]
    print(f"# workload {env['workload']} seed {env['seed']} seconds {env['seconds']} trace {env['trace']}")
    print(f"# env {json.dumps(env)}")
    print(f"# attempted {run['attempted']} failed {run['failed']} "
          f"fail_rate {run['failed'] / run['attempted']:.6g} samples {run['samples']}")
    if run["digest"]:
        print(f"# output digest {run['digest']}")
        print(f"# host slowdown {run['host_slowdown']:.3f} (reference kernel time over its uncontended time)")
    print(f"# setup_wall_s {run['setup_wall_s']:.6g} s (median set-up time before scaling)")
    for name, unit in units(trace).items():
        print(f"{name:48s} {run['metrics'][name]:>16.6g} {unit}")
    for name, (value, unit) in run["named"].items():
        print(f"{name:48s} {value:>16.6g} {unit}")


def result_line(run: dict, trace: bool) -> str:
    return json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": run["metrics"][name], "unit": unit}
            for name, unit in units(trace).items()
        },
    })


def smoke() -> int:
    """Every workload briefly, traced and untraced, plus the seed and pin checks."""
    with open(HERE / "pinned.json") as f:
        default_seed = json.load(f)["default_seed"]
    ok = True
    for name in WORKLOADS:
        runs = [run_workload(name, seed, 1, False) for seed in (default_seed, default_seed + 1)]
        traced = run_workload(name, default_seed, 1, True)
        for run in (*runs, traced):
            ok &= run["correct"]
            if set(run["metrics"]) != set(units(run["env"]["trace"])):
                print(f"smoke: {name}: metrics differ from those BENCHMARK.json lists")
                ok = False
        if runs[0]["digest"] == runs[1]["digest"]:
            print(f"smoke: {name}: seed {default_seed + 1} gave the digest of seed {default_seed}")
            ok = False
        print(f"smoke: {name}: digests {runs[0]['digest'][:12]} / {runs[1]['digest'][:12]}, "
              f"failed {sum(r['failed'] for r in (*runs, traced))}, "
              f"tracing throughput ratio {traced['metrics']['tracing.throughput_ratio']:.3f}")
    print(f"smoke: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload briefly")
    parser.add_argument("--out", help="also write every run, with its environment, to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wsnpriv" / "__init__.py").is_file():
        print(f"error: no wsnpriv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        if args.smoke:
            return smoke()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        runs = [run_workload(name, args.seed, args.seconds, trace) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for run in runs:
        show(run, trace)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(runs, indent=2) + "\n")
    if len(runs) == 1:
        print(result_line(runs[0], trace))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                f"{r['env']['workload']}/{name}": {"value": r["metrics"][name], "unit": unit}
                for r in runs for name, unit in units(trace).items()
            },
        }))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
