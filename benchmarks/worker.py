"""One workload run in a fresh interpreter; `run.py` starts it.

Usage: python3 benchmarks/worker.py '<json>' with keys workload, seed,
seconds, trace, setup_only, workdir and spawned_ns (CLOCK_MONOTONIC
reading taken just before the interpreter was started, so `setup_s`
covers interpreter start-up, the `wsnpriv` import, input generation,
topology and cluster construction, and warm-up; it is scaled to an
uncontended host like every other time, see HostSpeed).

Prints one JSON object on its last stdout line.  Exits 3 when `wsnpriv`
would not be imported from this checkout's `src`.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import defaultdict

import tracer

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINNED = json.loads((HERE / "pinned.json").read_text())


def quantile_us(ns: list, q: int) -> float:
    """q-th percentile in microseconds; q is 50 or 90."""
    if len(ns) < 2:
        return ns[0] / 1e3
    return statistics.quantiles(ns, n=10)[q // 10 - 1] / 1e3


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"benchmark failure: {what}", file=sys.stderr)

    def run(self, op, call):
        """Call and check one operation; returns (result, ns, units) or None."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            result = call()
        except Exception:
            self.fail(f"{op.kind} raised\n{traceback.format_exc()}")
            return None
        ns = time.perf_counter_ns() - start
        try:
            units = op.check(result)
        except Exception as exc:
            self.fail(f"{op.kind}: {type(exc).__name__}: {exc}")
            return None
        return result, ns, units


def reference_kernel() -> int:
    """Fixed work in the workloads' mix: integer arithmetic, SHA-256 of short
    inputs, dict stores, int/str/bytes conversion.  No `wsnpriv` code, so a
    change to the program cannot change it."""
    acc, table = 1, {}
    for i in range(300):
        acc = (acc * 1103515245 + 12345) % 2147483647
        table[i & 63] = hashlib.sha256(acc.to_bytes(8, "big")).digest()
        acc ^= len(str(acc)) + sum(table[i & 63][:4])
    return acc


class Samples:
    """Per-operation records in arrays allocated before the timed loop.

    A faster program fits more operations into a run; records that grew
    with them would raise `peak_rss_mb`, which is read when the loop ends.
    Operations past CAPACITY are still run, checked and counted in the
    batch rates, but their times are not kept.
    """

    CAPACITY = 1 << 18

    def __init__(self):
        self.norm = array("d", [0.0]) * self.CAPACITY  # scaled ns per unit of work
        self.wall = array("d", [0.0]) * self.CAPACITY  # wall-clock ns per operation
        self.units = array("q", [0]) * self.CAPACITY
        self.kind = array("B", [0]) * self.CAPACITY    # index into self.kinds
        self.kinds: list = []
        self.rates = array("d", [0.0]) * (self.CAPACITY // 4)  # per batch
        self.n = self.batches = 0
        self.batch, self.batch_units, self.batch_ns = 0, 0, 0.0

    def add(self, batch: int, kind: str, ns: int, units: int, scale: float) -> None:
        if batch != self.batch:
            self.close_batch()
            self.batch = batch
        self.batch_units += units
        self.batch_ns += ns * scale
        if self.n < self.CAPACITY:
            if kind not in self.kinds:
                self.kinds.append(kind)
            self.norm[self.n] = ns * scale / units
            self.wall[self.n] = ns
            self.units[self.n] = units
            self.kind[self.n] = self.kinds.index(kind)
            self.n += 1

    def close_batch(self) -> None:
        if self.batch_ns and self.batches < len(self.rates):
            self.rates[self.batches] = self.batch_units * 1e9 / self.batch_ns
            self.batches += 1
        self.batch_units, self.batch_ns = 0, 0.0

    def wall_by_kind(self) -> dict:
        out: dict = defaultdict(list)
        for k, ns in zip(self.kind[:self.n], self.wall[:self.n]):
            out[self.kinds[k]].append(ns)
        return out


class HostSpeed:
    """Operation times scaled to the speed of an uncontended host.

    Other tenants' load slowed this 2-vCPU host by up to 2x for seconds at a
    time, so wall-clock medians moved 10-35% between runs.  The reference
    kernel is timed after every 5 ms of operations (and after every longer
    operation); the operations in between are scaled by KERNEL_NS over the
    mean of the kernel times on either side of them.  That cancels most of
    the host's swings while keeping every change to the program's own cost.
    """

    KERNEL_NS = 340_000  # the kernel's fastest time on that host, uncontended
    EVERY_NS = 5_000_000

    def __init__(self, samples: Samples):
        self.samples = samples
        self.kernel_ns = [self.kernel()]
        self.pending: list = []
        self.since = 0

    @staticmethod
    def kernel() -> int:
        """Wall-clock ns of one reference_kernel() call."""
        start = time.perf_counter_ns()
        reference_kernel()
        return time.perf_counter_ns() - start

    def add(self, batch: int, kind: str, ns: int, units: int) -> None:
        self.pending.append((batch, kind, ns, units))
        self.since += ns
        if self.since >= self.EVERY_NS:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        self.kernel_ns.append(self.kernel())
        scale = 2 * self.KERNEL_NS / (self.kernel_ns[-2] + self.kernel_ns[-1])
        for batch, kind, ns, units in self.pending:
            self.samples.add(batch, kind, ns, units, scale)
        self.pending.clear()
        self.since = 0


def run_untraced(workload, seconds: float, tally: Tally) -> dict:
    samples = Samples()
    host = HostSpeed(samples)
    digest = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        for op in workload.batch(i):
            done = tally.run(op, op.call)
            if done is None:
                continue
            result, ns, units = done
            host.add(i, op.kind, ns, units)
            if i == 0:
                digest.update(op.emit(result))
        i += 1
    host.flush()
    samples.close_batch()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_unit = samples.norm[:samples.n]
    return {
        "batches": i,
        "digest": digest.hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "metrics": {
            "norm_ops_per_s": statistics.median(samples.rates[:samples.batches]),
            "norm_op_us_p50": quantile_us(per_unit, 50),
            "norm_op_us_p90": quantile_us(per_unit, 90),
        },
        "named": named_metrics(workload.name, samples),
        "host_slowdown": statistics.median(host.kernel_ns) / host.KERNEL_NS,
        "samples": samples.n,
    }


def named_metrics(name: str, samples: Samples) -> dict:
    """The workload's own end-to-end metrics, wall-clock as measured:
    {name: [value, unit]}."""
    latency = samples.wall_by_kind()

    def rate(kinds):
        ns = [t for k in kinds for t in latency[k]]
        return [len(ns) * 1e9 / sum(ns), "1/s"]

    def us(kind, q):
        return [quantile_us(latency[kind], q), "us"]

    if name == "hunt":
        msgs = sum(samples.units[:samples.n])
        return {"hunt_msgs_per_s": [msgs * 1e9 / sum(samples.wall[:samples.n]), "1/s"]}
    if name == "aggregate-cold":
        return {
            "sppda_per_s": rate(["sppda"]),
            "sppda_us_p50": us("sppda", 50),
            "sppda_us_p90": us("sppda", 90),
            "cpda_per_s": rate([k for k in latency if k.startswith("cpda")]),
        }
    if name == "rounds-warm":
        return {
            "round_per_s": rate(["round"]),
            "round_us_p50": us("round", 50),
            "round_us_p90": us("round", 90),
        }
    return {
        "scenario_per_s": rate(["scenario"]),
        "scenario_ms_p50": [quantile_us(latency["scenario"], 50) / 1e3, "ms"],
        "scenario_ms_p90": [quantile_us(latency["scenario"], 90) / 1e3, "ms"],
    }


def run_traced(workload, seconds: float, tally: Tally) -> dict:
    """Repeat batch 0 traced for two thirds of the time, then untraced.

    Every pass runs the same operations, so every pass must make the same
    calls.  The per-layer counts are those of the first pass, which starts
    from the state setup left; times are the mean over the traced passes.
    """
    ops = workload.batch(0)

    def one_pass(wrap):
        busy = 0
        for op_id, op in enumerate(ops):
            done = tally.run(op, wrap(op_id, op))
            if done is not None:
                busy += done[1]
        return busy

    rec = tracer.Tracer()
    traced, counts, kinds = [], [], {}
    offset = 0
    rec.install()
    try:
        deadline = time.perf_counter() + seconds * 2 / 3
        while not traced or time.perf_counter() < deadline:
            def wrap(op_id, op, offset=offset):
                kinds[offset + op_id] = op.kind
                return lambda: rec.run_op(offset + op_id, op.call)
            traced.append(one_pass(wrap))
            counts.append(rec.end_pass())
            offset += len(ops)
    finally:
        rec.uninstall()

    untraced = []
    stop = time.perf_counter() + seconds / 3
    while not untraced or time.perf_counter() < stop:
        untraced.append(one_pass(lambda op_id, op: op.call))

    calls = [{name: c[name] for name in tracer.SPAN_NAMES} for c in counts]
    if any(c != calls[0] for c in calls):
        tally.fail("traced passes over identical operations made different calls")
    pins = PINNED["per_op_counts"]
    for op_id, per_op in rec.per_op_counts().items():
        for name, want in pins.get(kinds[op_id], {}).items():
            if per_op[name] != want:
                tally.fail(f"{kinds[op_id]}: {per_op[name]} {name} calls, pinned {want}")

    total_ns, self_ns = rec.times()
    passes = len(traced)
    ratio = statistics.mean(untraced) / statistics.mean(traced)
    return {
        "passes": passes,
        "metrics": tracer.layer_metrics(
            counts[0],
            {k: v / passes for k, v in total_ns.items()},
            {k: v / passes for k, v in self_ns.items()},
            rec.gc_collections / passes,
            rec.gc_pause_ns / passes,
            len(ops),
            ratio,
        ),
    }


def main() -> int:
    kernel_start = HostSpeed.kernel()
    args = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import wsnpriv

    origin = pathlib.Path(wsnpriv.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        print(f"error: wsnpriv resolves to {origin}, not to {SRC}", file=sys.stderr)
        return 3
    import workloads

    workdir = pathlib.Path(args["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args["workload"]](args["seed"], workdir)
    workload.setup()
    setup_ns = time.monotonic_ns() - args["spawned_ns"] - kernel_start
    # Scaled like every other time; see HostSpeed.
    scale = 2 * HostSpeed.KERNEL_NS / (kernel_start + HostSpeed.kernel())
    result = {
        "setup_s": setup_ns * scale / 1e9,
        "setup_wall_s": setup_ns / 1e9,
        "wsnpriv_file": str(origin.relative_to(SRC.parent.resolve())),
    }
    if not args["setup_only"]:
        tally = Tally()
        if args["trace"]:
            result.update(run_traced(workload, args["seconds"], tally))
        else:
            result.update(run_untraced(workload, args["seconds"], tally))
            pinned = PINNED["digests"].get(workload.name)
            if args["seed"] == PINNED["default_seed"] and result["digest"] != pinned:
                tally.fail(f"output digest {result['digest']} differs from pinned {pinned}")
        result.update(attempted=tally.attempted, failed=tally.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
