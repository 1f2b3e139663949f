"""Golden outputs: SHA-256 digests of seeded runs, pinned in golden/digests.json.

Byte-determinism is checked against recorded bytes, not just "two runs
match": a refactor or speed-up that changes any CLI file, hunt report,
flood schedule, pipeline report or aggregation transcript, or that draws
the random streams differently, fails here.  The CLI files themselves are
committed under golden/cli/ as well, so an output change shows in a diff
row by row; the hunt, flood, pipeline and sppda groups are digests only.

To re-record digests and documents after an intended output change (say so
in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import ast
import hashlib
import importlib
import json
import pathlib
import pkgutil
import runpy
import shutil
import sys

import pytest

from wsnpriv import phantom
from wsnpriv.cli import main as cli_main
from wsnpriv.netsim import build_grid
from wsnpriv.phantom import (
    NoRendezvousError,
    TwoWay,
    WalkConfig,
    WalkMode,
    flood,
    hunt,
    route_message,
)
from wsnpriv.pipeline import PipelineConfig, PrivacyLevel, run_pipeline
from wsnpriv.ppda import SppdaCluster
from wsnpriv.rng import SimRng

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "golden" / "digests.json"
CLI_DOCS = HERE / "golden" / "cli"  # the files digest_cli writes, as <run>/<file>
CLI_DOCS_CAP = 64 * 1024  # bytes over all of CLI_DOCS; larger outputs keep a digest only
REFERENCE_SCENARIO = HERE.parent / "scenarios" / "reference_sppda.json"
TRACER = HERE.parent / "benchmarks" / "tracer.py"
README = HERE.parent / "README.md"

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
    "flood": WalkConfig(),
    "phantom-pure": WalkConfig(WalkMode.PURE, 4),
    "phantom-directed": WalkConfig(WalkMode.DIRECTED, 4),
    "twoway": TwoWay(5),
}


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def _log_doc(sched, payload_id):
    """Every forwarding broadcast as [tick, sender, payload_id, hearers], in
    (tick, sender) order, read off first_heard((u,)) for each node u."""
    topo = sched.topology
    ticks = sorted(filter(None, (sched.first_heard((u,)) for u in range(topo.node_count))))
    return [[t, u, payload_id, sorted(topo.adjacency[u])] for t, u in ticks]


def _cli_files(out: pathlib.Path, runs) -> dict:
    for argv in runs:
        assert cli_main(["--out", str(out), *argv]) == 0
    return {f.name: _sha(f.read_bytes()) for f in sorted(out.iterdir())}


def digest_cli(tmp: pathlib.Path) -> dict:
    """Digests of the files the CLI runs write, keyed as CLI_DOCS lays them out."""
    files = {f"criterion-10/{k}": v
             for k, v in _cli_files(tmp / "criterion-10", CRITERION_10_ARGV).items()}
    files.update({f"twoway/{k}": v
                  for k, v in _cli_files(tmp / "twoway", [TWOWAY_ARGV]).items()})
    return files


def _documents(root: pathlib.Path) -> dict:
    """Every file under root, {relative posix path: bytes}."""
    return {f.relative_to(root).as_posix(): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


def _hunt_log(topo, strategy, rng: SimRng, messages: int) -> list:
    """The broadcasts of a hunt's delivered messages 1..messages, replayed
    on the streams hunt draws from: the receptor first, then every walk."""
    route = strategy.receptor(topo, rng) if isinstance(strategy, TwoWay) else strategy
    walk_rng = rng.stream("walk")
    log = []
    for msg in range(1, messages + 1):
        try:
            sched = route_message(topo, topo.sources[0], topo.sink, route, walk_rng)
        except NoRendezvousError:
            continue
        log += _log_doc(sched, f"msg:{msg}")
    return log


def digest_hunt(tmp: pathlib.Path) -> dict:
    topo = build_grid(8, 8)
    out = {}
    for name, strategy in HUNT_STRATEGIES.items():
        for seed in range(5):
            r = hunt(topo, strategy, 40, SimRng(seed, "golden/hunt"))
            out[f"{name}/seed:{seed}"] = _sha({
                "safety_period": r.safety_period,
                "captured": r.captured,
                "transmissions": r.transmissions_total,
                "latencies": list(r.delivery_latency_hops),
                "moves": [list(m) for m in r.adversary_moves],
                "log": _hunt_log(topo, strategy, SimRng(seed, "golden/hunt"), r.safety_period),
            })
    return out


def digest_flood(tmp: pathlib.Path) -> dict:
    topo = build_grid(7, 6)
    out = {}
    for origin, dest in ((0, 41), (41, 0), (17, 17), (3, 38), (20, 6)):
        res = flood(topo, origin, dest)
        out[f"{origin}->{dest}"] = _sha({
            "delivered": res.latency_hops >= 0,
            "transmissions": res.transmissions,
            "latency_hops": res.latency_hops,
            "log": _log_doc(res, "msg"),
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
    if group == "cli":  # and the bytes behind those digests, as committed
        committed = _documents(CLI_DOCS)
        assert sum(map(len, committed.values())) <= CLI_DOCS_CAP
        assert committed.keys() == pinned.keys()
        regenerated = _documents(tmp_path)
        for name, data in committed.items():
            assert regenerated[name] == data, f"{CLI_DOCS.name}/{name} differs"


def test_every_traced_name_resolves():
    # The benchmark tracer rebinds each TRACED function or method to a timing
    # wrapper, so a name deleted from src/ fails every traced benchmark run.
    traced = runpy.run_path(str(TRACER), run_name="tracer")["TRACED"]
    for module_name, attr, _ in traced:
        owner = importlib.import_module(f"wsnpriv.{module_name}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = vars(owner).get(cls)
        assert owner is not None and name in vars(owner), f"{module_name}.{attr}"


def test_tracer_counts_every_two_way_message():
    # benchmarks/tracer.py counts two-way hops from what deliver_two_way
    # returns, so hunt must send each two-way message through that name;
    # a hunt that walked some other way would leave the counts at 0.
    tracer = runpy.run_path(str(TRACER), run_name="tracer")["Tracer"]()
    topo = build_grid(8, 8)
    tracer.install()
    try:
        reports = [phantom.hunt(topo, TwoWay(5), 40, SimRng(seed)) for seed in range(4)]
    finally:
        tracer.uninstall()
    counts = tracer.end_pass()
    latencies = [h for report in reports for h in report.delivery_latency_hops]
    assert counts["phantom.messages"] == counts["phantom.deliver_two_way"] == len(latencies)
    assert counts["phantom.twoway_hops"] == sum(h for h in latencies if h >= 0) > 0


def test_every_exported_name_resolves():
    # A name deleted from src/ must leave its module's __all__ and the
    # package's imports with it; a stale entry breaks `import *` and the
    # package import.  Each module's __all__ is checked, and each name
    # wsnpriv/__init__.py imports, read from its source.
    package = importlib.import_module("wsnpriv")
    modules = [info.name for info in pkgutil.iter_modules(package.__path__)]
    for module_name in modules:
        module = importlib.import_module(f"wsnpriv.{module_name}")
        for name in module.__all__:
            assert hasattr(module, name), f"wsnpriv.{module_name}.__all__: {name}"
    init = ast.parse(pathlib.Path(package.__file__).read_text(encoding="utf-8"))
    imports = [node for node in init.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(modules)
    for node in imports:
        module = importlib.import_module(f"wsnpriv.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"wsnpriv/__init__.py: {node.module}.{alias.name}"
            assert hasattr(package, alias.asname or alias.name)


def test_readme_quick_start_runs(capsys):
    # README's first python block, run as written: its asserts hold and no
    # call in it has gone stale.
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "10 True\n"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: fn(pathlib.Path(tmp) / name) for name, fn in GROUPS.items()}
        documents = _documents(pathlib.Path(tmp) / "cli")
        size = sum(map(len, documents.values()))
        if size > CLI_DOCS_CAP:
            sys.exit(f"CLI documents total {size} bytes, over the {CLI_DOCS_CAP}-byte cap")
        shutil.rmtree(CLI_DOCS, ignore_errors=True)
        shutil.copytree(pathlib.Path(tmp) / "cli", CLI_DOCS)
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, doc.values()))} digests to {DIGESTS} and "
          f"{len(documents)} documents ({size} bytes) to {CLI_DOCS}", file=sys.stderr)
