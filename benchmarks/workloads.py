"""The four benchmark workloads: seeded inputs, operations and output checks.

Each workload turns the workload seed into inputs, builds what its
operations need (`setup`), and hands out batches of operations.  Batch `i`
is a pure function of (seed, i), so batch 0 is the same on every run with
one seed; its emitted output is what the pinned digests cover.

The program is reached only through module attributes (`ppda.run_sppda`,
never a name imported into this file), so the wrappers the traced run
installs in the `wsnpriv` modules see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import random
from dataclasses import dataclass
from typing import Callable

import wsnpriv.cli as cli
import wsnpriv.climetrics as climetrics
import wsnpriv.ppda as ppda
import wsnpriv.rng as rng

P = 2**31 - 1


class CheckError(Exception):
    """An operation returned a wrong result."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    `call` is the timed part.  `check` runs untimed right after it, raises
    CheckError on a wrong result, and returns the units of work the
    operation completed (simulated messages for `hunt`, else 1).  `emit`
    gives the bytes the operation emitted, for the output digest.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], int]
    emit: Callable[[object], bytes]


def sub_seed(*labels) -> int:
    """A 63-bit integer derived from labels; distinct labels, distinct seeds."""
    digest = hashlib.sha256("\x1f".join(map(str, labels)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


class Hunt:
    """Monte-Carlo hunt campaign cells shaped like acceptance criterion 4.

    Why: Layer 1 and netsim do nearly all the work and Layer 2 is idle.
    Calls `montecarlo_hunt` with several trials per call, so state shared
    across the trials of a campaign can show up.  Trial counts put the
    BFS/schedule-bound cells (flood, phantom) at about a third of the time
    and the walk-step-bound two-way cells at the rest.
    """

    name = "hunt"
    # (grid, strategy, trials per call, message budget)
    CELLS = (
        ((30, 30), "flood", 8, 200),
        ((30, 30), "phantom:10", 6, 200),
        ((30, 30), "twoway:10", 1, 150),
        ((20, 20), "twoway:10", 1, 150),
        ((10, 10), "twoway:10", 4, 150),
    )

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed

    def setup(self) -> None:
        # Warm-up: one short trial of each strategy on a small grid.
        master = sub_seed("hunt/warm-up", self.seed)
        for spec in ("flood", "phantom:10", "twoway:10"):
            op = self._op(master, (10, 10), spec, 1, 150)
            op.check(op.call())

    def batch(self, i: int) -> list[Op]:
        master = sub_seed("hunt", self.seed, i)
        return [self._op(master, *cell) for cell in self.CELLS]

    def _op(self, master, grid, spec, trials, budget) -> Op:
        campaign = climetrics.HuntCampaign(
            grids=(grid,), strategies=(spec,), trials=trials,
            message_budget=budget, master_seed=master,
        )
        # Default roles: sink at node 0, source at the opposite corner.
        hops = grid[0] + grid[1] - 2

        def check(summary) -> int:
            expect(len(summary) == 1, "one summary cell per campaign")
            rows = summary[0]["trial_rows"]
            expect(len(rows) == trials, "one row per trial")
            for row in rows:
                sp = row["safety_period"]
                expect(1 <= sp <= budget, "safety period within the budget")
                expect(row["captured"] or sp == budget,
                       "an uncaptured trial runs the whole budget")
                expect(row["transmissions"] > 0, "messages were transmitted")
                lat = row["mean_latency_hops"]
                expect(lat == -1 or lat >= hops,
                       "no route is shorter than the hop distance")
                if spec == "flood":
                    # The hunter closes one hop per flooded message.
                    expect(row["captured"] and sp == hops and lat == hops,
                           "flood capture after exactly the hop distance")
            return sum(row["safety_period"] for row in rows)

        return Op(
            kind=f"{spec}@{grid[0]}x{grid[1]}",
            call=lambda: climetrics.montecarlo_hunt(campaign),
            check=check,
            emit=lambda summary: climetrics.hunt_rows_to_csv(summary).encode(),
        )


class AggregateCold:
    """Fresh `run_sppda` calls interleaved 10:3 with `run_cpda` at n = 3, 6, 12.

    Why: key setup (pool, two bank permutations, SS relay bootstrap)
    dominates each `run_sppda`; Layer 1 is idle.  The proportions are those
    of acceptance criterion 1.
    """

    name = "aggregate-cold"
    PATTERN = ("sppda",) * 3 + (3,) + ("sppda",) * 3 + (6,) + ("sppda",) * 3 + (12,) + ("sppda",)

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed

    def setup(self) -> None:
        # Warm-up: one batch of calls with inputs no timed batch uses.
        for op in self.batch(-1):
            op.check(op.call())

    def batch(self, i: int) -> list[Op]:
        values = random.Random(sub_seed("aggregate-cold", self.seed, i))
        master = sub_seed("aggregate-cold/rng", self.seed, i)
        ops = []
        for j, kind in enumerate(self.PATTERN):
            if kind == "sppda":
                ops.append(self._sppda(master, j, *(values.randrange(P) for _ in range(3))))
            else:
                ops.append(self._cpda(master, j, [values.randrange(P) for _ in range(kind)]))
        return ops

    @staticmethod
    def _sppda(master, j, x, y, z) -> Op:
        def check(result) -> int:
            expect(result.pair_sum == (x + y) % P, "run_sppda pair sum is (x + y) mod p")
            expect(result.total == (x + y + z) % P, "run_sppda total is (x + y + z) mod p")
            return 1

        return Op(
            kind="sppda",
            call=lambda: ppda.run_sppda(x, y, z, rng.SimRng(master, f"bench/sppda:{j}")),
            check=check,
            emit=lambda r: f"sppda {r.total} {r.pair_sum}\n".encode(),
        )

    @staticmethod
    def _cpda(master, j, vals) -> Op:
        def check(result) -> int:
            expect(result == sum(vals) % P, "run_cpda result is the sum mod p")
            return 1

        return Op(
            kind=f"cpda:{len(vals)}",
            call=lambda: ppda.run_cpda(vals, rng.SimRng(master, f"bench/cpda:{j}")),
            check=check,
            emit=lambda r: f"cpda {len(vals)} {r}\n".encode(),
        )


class RoundsWarm:
    """`SppdaCluster.run_round` calls, round-robin over clusters built in setup.

    Why: the same layer the other way round.  Seal/open (8 + 8 per round),
    share generation and the Lagrange solve dominate; key setup is paid
    once, in `setup_s`.
    """

    name = "rounds-warm"
    CLUSTERS = 16

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.clusters = []

    def setup(self) -> None:
        self.clusters = [
            ppda.SppdaCluster(rng.SimRng(self.seed, f"bench/cluster:{k}"))
            for k in range(self.CLUSTERS)
        ]
        # Warm-up: one round on every cluster.
        for op in self.batch(-1):
            op.check(op.call())

    def batch(self, i: int) -> list[Op]:
        values = random.Random(sub_seed("rounds-warm", self.seed, i))
        return [
            self._op(cluster, *(values.randrange(P) for _ in range(3)))
            for cluster in self.clusters
        ]

    @staticmethod
    def _op(cluster, x, y, z) -> Op:
        def check(out) -> int:
            result, transcript = out
            expect(result.pair_sum == (x + y) % P, "run_round pair sum is (x + y) mod p")
            expect(result.total == (x + y + z) % P, "run_round total is (x + y + z) mod p")
            expect(transcript.result == result, "transcript records the result")
            return 1

        return Op(
            kind="round",
            call=lambda: cluster.run_round(x, y, z),
            check=check,
            emit=lambda out: json.dumps(out[1].to_doc(), sort_keys=True).encode() + b"\n",
        )


class PipelineCli:
    """In-process `cli.main(["--out", d, "run-pipeline", cfg])` calls.

    Why: the only workload that runs `pair_sources`, the pipeline's
    `flood()` and `shortest_path` delivery, and the CLI's JSON and digest
    output.  Configs cover grids around 20x20 with about ten sources, all
    four privacy levels, and both phantom and two-way delivery.
    """

    name = "pipeline-cli"
    CONFIGS = 64
    LEVELS = ("none", "anonymity-only", "perturbation-only", "full")

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "out"
        self.configs: list[tuple[pathlib.Path, dict]] = []
        self.stdout = io.StringIO()

    def setup(self) -> None:
        gen = random.Random(sub_seed("pipeline-cli", self.seed))
        for k in range(self.CONFIGS):
            w, h = gen.randint(18, 22), gen.randint(18, 22)
            sources = gen.sample(range(1, w * h), gen.randint(9, 11))
            doc = {
                "level": self.LEVELS[k % 4],
                "width": w,
                "height": h,
                "sources": sources,
                "readings": {str(s): gen.randrange(10**6) for s in sources},
                "aggregator_dummy": gen.randrange(10**6),
                "master_seed": gen.randrange(2**31),
                "walk": {"mode": "directed", "hops": gen.randint(3, 8)},
            }
            if (k // 4) % 2:
                # Two-way delivery when the anonymity layer is on.  Receptors
                # of 10-20 hops meet a walk within a few thousand steps, far
                # inside deliver_two_way's 10,000-step limit.
                doc["receptor_length"] = gen.randint(10, 20)
            path = self.workdir / f"config-{k:02d}.json"
            path.write_text(json.dumps(doc, sort_keys=True))
            self.configs.append((path, doc))
        # Warm-up: the first config of each privacy level.
        for path, doc in self.configs[:4]:
            op = self._op(path, doc)
            op.check(op.call())

    def batch(self, i: int) -> list[Op]:
        return [self._op(path, doc) for path, doc in self.configs]

    def _op(self, path: pathlib.Path, doc: dict) -> Op:
        argv = ["--out", str(self.out), "run-pipeline", str(path)]
        sink = self.stdout

        def call():
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink):
                return cli.main(argv)

        def check(status) -> int:
            expect(status == 0, "run-pipeline exits 0")
            report = json.loads((self.out / "pipeline_report.json").read_text())
            summary = json.loads((self.out / "run-pipeline.summary.json").read_text())
            expect(summary["config"] == doc, "summary echoes the config")
            readings = {int(k): v for k, v in doc["readings"].items()}
            width = doc["width"]
            flows = report["flows"]
            if doc["level"] in ("perturbation-only", "full"):
                expect(len(flows) == len(readings) // 2, "one flow per source pair")
                expect(len(report["unpaired_sources"]) == len(readings) % 2,
                       "at most one unpaired source")
                for fl in flows:
                    c = fl["cluster"]
                    expect(fl["delivered_value"] == (readings[c["s1"]] + readings[c["s2"]]) % P,
                           "gateway records the pair sum")
            else:
                expect([fl["origin"] for fl in flows] == doc["sources"], "one flow per source")
                for fl in flows:
                    expect(fl["delivered_value"] == readings[fl["origin"]] % P,
                           "gateway records the reading")
            for fl in flows:
                # Unit grid, sink at node 0: hop distance is x + y.
                hops = fl["origin"] % width + fl["origin"] // width
                expect(fl["route_hops"] >= hops, "no route is shorter than the hop distance")
                expect(fl["transmissions"] >= fl["route_hops"], "every hop is a transmission")
            return 1

        def emit(status) -> bytes:
            return b"".join(
                (self.out / name).read_bytes()
                for name in ("pipeline_report.json", "run-pipeline.summary.json")
            )

        return Op(kind="scenario", call=call, check=check, emit=emit)


WORKLOADS = {w.name: w for w in (Hunt, AggregateCold, RoundsWarm, PipelineCli)}
