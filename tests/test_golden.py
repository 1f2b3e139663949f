"""Golden outputs: SHA-256 digests of seeded runs, pinned in golden/digests.json.

Byte-determinism is checked against recorded bytes, not just "two runs
match": a refactor or speed-up that changes any CLI file, hunt report,
flood schedule, pipeline report or aggregation transcript, or that draws
the random streams differently, fails here.

To re-record after an intended output change (say so in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import pathlib
import sys

import pytest

from wsnpriv.cli import main as cli_main
from wsnpriv.netsim import build_grid
from wsnpriv.phantom import (
    FloodOnly,
    Phantom,
    TwoWay,
    WalkConfig,
    WalkMode,
    flood,
    hunt,
)
from wsnpriv.pipeline import PipelineConfig, PrivacyLevel, run_pipeline
from wsnpriv.ppda import SppdaCluster
from wsnpriv.rng import SimRng

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "golden" / "digests.json"
REFERENCE_SCENARIO = HERE.parent / "scenarios" / "reference_sppda.json"

CRITERION_10_ARGV = (
    ["plan-zone", "--pr", "0.01", "--hops", "3"],
    ["aggregate", "--x", "5", "--y", "7", "--z", "3", "--seed", "4"],
    ["simulate-hunt", "--grid", "8x8", "--strategy", "flood",
     "--strategy", "phantom:4", "--trials", "20", "--budget", "60",
     "--seed", "2"],
    ["disclosure-curve", "--b-grid", "0:1:0.05", "--dist", "uniform:3..5"],
    ["run-scenarios", str(REFERENCE_SCENARIO)],
)
TWOWAY_ARGV = ["simulate-hunt", "--grid", "8x8", "--strategy", "twoway:5",
               "--trials", "20", "--budget", "60", "--seed", "2"]

HUNT_STRATEGIES = {
    "flood": FloodOnly(),
    "phantom-pure": Phantom(WalkConfig(WalkMode.PURE, 4)),
    "phantom-directed": Phantom(WalkConfig(WalkMode.DIRECTED, 4)),
    "twoway": TwoWay(5),
}


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def _log_doc(log):
    return [[t.tick, t.sender, t.payload_id, sorted(t.hearers)] for t in log]


def _cli_files(out: pathlib.Path, runs) -> dict:
    for argv in runs:
        assert cli_main(["--out", str(out), *argv]) == 0
    return {f.name: _sha(f.read_bytes()) for f in sorted(out.iterdir())}


def digest_cli(tmp: pathlib.Path) -> dict:
    files = {f"criterion-10/{k}": v
             for k, v in _cli_files(tmp / "c10", CRITERION_10_ARGV).items()}
    files.update({f"twoway/{k}": v
                  for k, v in _cli_files(tmp / "twoway", [TWOWAY_ARGV]).items()})
    return files


def digest_hunt(tmp: pathlib.Path) -> dict:
    topo = build_grid(8, 8)
    out = {}
    for name, strategy in HUNT_STRATEGIES.items():
        for seed in range(5):
            r = hunt(topo, strategy, 40, SimRng(seed, "golden/hunt"), record_log=True)
            out[f"{name}/seed:{seed}"] = _sha({
                "safety_period": r.safety_period,
                "captured": r.captured,
                "transmissions": r.transmissions_total,
                "latencies": list(r.delivery_latency_hops),
                "moves": [list(m) for m in r.adversary_moves],
                "log": _log_doc(r.log),
            })
    return out


def digest_flood(tmp: pathlib.Path) -> dict:
    topo = build_grid(7, 6)
    out = {}
    for origin, dest in ((0, 41), (41, 0), (17, 17), (3, 38), (20, 6)):
        res = flood(topo, origin, dest)
        # The per-broadcast log is an attribute on older flood() results and
        # log(topology, payload_id) on Schedule; both must give these bytes.
        log = res.log(topo, "msg") if callable(res.log) else res.log
        out[f"{origin}->{dest}"] = _sha({
            "delivered": res.delivered,
            "transmissions": res.transmissions,
            "latency_hops": res.latency_hops,
            "log": _log_doc(log),
        })
    return out


def digest_pipeline(tmp: pathlib.Path) -> dict:
    out = {}
    for level in PrivacyLevel:
        for delivery, receptor_length in (("phantom", None), ("twoway", 6)):
            cfg = PipelineConfig(
                width=6, height=6, level=level, sources=(23, 29, 35),
                readings={23: 11, 29: 1_900_000_123, 35: 7},
                master_seed=17, receptor_length=receptor_length,
                aggregator_dummy=4,
            )
            out[f"{level.value}/{delivery}"] = _sha(run_pipeline(cfg).to_doc())
    return out


def digest_sppda(tmp: pathlib.Path) -> dict:
    out = {}
    for seed in range(5):
        cluster = SppdaCluster(SimRng(seed, "golden/sppda"))
        _, transcript = cluster.run_round(1_000 + seed, 2**31 - 2 - seed, seed)
        out[f"seed:{seed}"] = _sha(transcript.to_doc())
    return out


GROUPS = {
    "cli": digest_cli,
    "hunt": digest_hunt,
    "flood": digest_flood,
    "pipeline": digest_pipeline,
    "sppda": digest_sppda,
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_golden_digests(group, tmp_path):
    pinned = json.loads(DIGESTS.read_text())[group]
    assert GROUPS[group](tmp_path) == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: fn(pathlib.Path(tmp) / name) for name, fn in GROUPS.items()}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, doc.values()))} digests to {DIGESTS}", file=sys.stderr)
