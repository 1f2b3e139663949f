"""Per-layer tracing from outside the program.

`Tracer.install` rebinds the public functions of each `wsnpriv` module to
timing wrappers, in every `wsnpriv` module namespace that holds them
(`bfs_distances`, for one, lives in `netsim`, `phantom` and `pipeline`).
Methods (`SimRng.__init__`, `StreamMacCipher.seal`/`open`,
`SppdaCluster.__init__`/`run_round`) are rebound on their class.

Each call becomes a span (name, start, end, parent span, operation id),
kept in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover.  Hooks on a few results add counts
that only the returned values show (walk steps, messages, bytes sealed).
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute, metric prefix or None for "<module>.<attribute>")
TRACED = (
    ("rng", "SimRng.__init__", "rng.SimRng"),
    ("netsim", "build_grid", None),
    ("netsim", "bfs_distances", None),
    ("netsim", "shortest_path", None),
    ("phantom", "hunt", None),
    ("phantom", "random_walk", None),
    ("phantom", "deliver_two_way", None),
    ("phantom", "build_receptor", None),
    ("phantom", "flood", None),
    ("keymgmt", "generate_pool", None),
    ("keymgmt", "register_pair", None),
    ("keymgmt", "establish_ss_channel", None),
    ("keymgmt", "StreamMacCipher.seal", "keymgmt.seal"),
    ("keymgmt", "StreamMacCipher.open", "keymgmt.open"),
    ("ppda", "SppdaCluster.__init__", "ppda.SppdaCluster.setup"),
    ("ppda", "SppdaCluster.run_round", None),
    ("ppda", "gen_shares", None),
    ("ppda", "node_aggregate", None),
    ("ppda", "solve_aggregate", None),
    ("ppda", "run_cpda", None),
    ("ppda", "run_sppda", None),
    ("pipeline", "run_pipeline", None),
    ("pipeline", "pair_sources", None),
    ("climetrics", "pipeline_config_from_doc", None),
    ("climetrics", "montecarlo_hunt", None),
    ("cli", "main", None),
)

# Spans whose traced children are worth separating out.
SELF_TIMED = (
    "phantom.hunt",
    "keymgmt.establish_ss_channel",
    "ppda.SppdaCluster.setup",
    "ppda.SppdaCluster.run_round",
    "ppda.run_cpda",
    "pipeline.run_pipeline",
    "cli.main",
    "climetrics.montecarlo_hunt",
)

OP_SPAN = "bench.op"


def span_name(module: str, attr: str, name: str | None) -> str:
    return name or f"{module}.{attr}"


SPAN_NAMES = tuple(span_name(*t) for t in TRACED)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _bfs(counts, origins, args, kwargs, result):
    topology = _arg(args, kwargs, 0, "topology")
    # Node count plus far corner tells grids apart; the origin completes the key.
    origins.add((topology.node_count, topology.positions[-1], _arg(args, kwargs, 1, "origin")))


def _random_walk(counts, origins, args, kwargs, path):
    counts["phantom.walk_steps"] += len(path) - 1


def _two_way(counts, origins, args, kwargs, route):
    receptor = set(_arg(args, kwargs, 2, "receptor").nodes)
    counts["phantom.twoway_hops"] += len(route) - 1
    counts["phantom.walk_steps"] += next(i for i, node in enumerate(route) if node in receptor)


def _flood(counts, origins, args, kwargs, result):
    counts["phantom.flood_transmissions"] += result.transmissions


def _hunt(counts, origins, args, kwargs, report):
    counts["phantom.messages"] += report.safety_period
    counts["phantom.captured_trials" if report.captured else "phantom.censored_trials"] += 1


def _seal(counts, origins, args, kwargs, body):
    counts["keymgmt.seal.bytes"] += len(_arg(args, kwargs, 3, "plaintext"))


def _open(counts, origins, args, kwargs, plaintext):
    counts["keymgmt.open.bytes"] += len(_arg(args, kwargs, 3, "body"))


def _pipeline(counts, origins, args, kwargs, report):
    counts["pipeline.flows"] += len(report.flows)
    counts["pipeline.transmissions"] += sum(fl.transmissions for fl in report.flows)


HOOKS = {
    "netsim.bfs_distances": _bfs,
    "phantom.random_walk": _random_walk,
    "phantom.deliver_two_way": _two_way,
    "phantom.flood": _flood,
    "phantom.hunt": _hunt,
    "keymgmt.seal": _seal,
    "keymgmt.open": _open,
    "pipeline.run_pipeline": _pipeline,
}

COUNTERS = (
    "phantom.walk_steps", "phantom.twoway_hops", "phantom.flood_transmissions",
    "phantom.messages", "phantom.captured_trials", "phantom.censored_trials",
    "keymgmt.seal.bytes", "keymgmt.open.bytes", "pipeline.flows", "pipeline.transmissions",
)


class Tracer:
    """Span recorder plus the rebinding of `wsnpriv` names to wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent index, op id)
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.bfs_origins: set = set()
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_start = 0
        self._mark = 0
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self.counts, self.bfs_origins, args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id: int, call):
        """Run one benchmark operation as the root span of its op id."""
        self.op = op_id
        return self.wrap(OP_SPAN, call)()

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "wsnpriv" or n.startswith("wsnpriv.")]
        for module_name, attr, name in TRACED:
            module = importlib.import_module(f"wsnpriv.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._rebind(owner, method, original, self.wrap(span_name(module_name, attr, name), original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span_name(module_name, attr, name), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _rebind(self, owner, key, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start

    def end_pass(self) -> Counter:
        """Counts since the previous call: calls per span name, hook
        counters and distinct BFS origins."""
        calls = Counter(span[0] for span in self.spans[self._mark:])
        calls.update(self.counts)
        calls["netsim.bfs_distinct_origins"] = len(self.bfs_origins)
        self._mark = len(self.spans)
        self.counts = Counter()
        self.bfs_origins = set()
        return calls

    def times(self) -> tuple[dict, dict]:
        """Total and self time in ns per span name."""
        total: dict = defaultdict(int)
        child: dict = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_ns: dict = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name in SELF_TIMED:
                self_ns[name] += end - start - child[index]
        return total, self_ns

    def per_op_counts(self) -> dict:
        """Calls per span name within each operation, keyed by op id."""
        per_op: dict = defaultdict(Counter)
        for name, _, _, _, op in self.spans:
            if name != OP_SPAN:
                per_op[op][name] += 1
        return per_op


def layer_metrics(counts: dict, total_ns: dict, self_ns: dict, gc_collections: float,
                  gc_pause_ns: float, ops: int, throughput_ratio: float) -> dict:
    """Per-layer values for one pass: counts as recorded, times in seconds."""
    def s(name):
        return total_ns.get(name, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = counts.get(name, 0)
        values[f"{name}.s"] = s(name)
        if name in SELF_TIMED:
            values[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    for name in COUNTERS:
        values[name] = counts.get(name, 0)
    bfs_calls = counts.get("netsim.bfs_distances", 0)
    values.update({
        "rng.streams_per_op": ratio(counts.get("rng.SimRng", 0), ops),
        "netsim.bfs_distinct_origins": counts.get("netsim.bfs_distinct_origins", 0),
        "netsim.bfs_reuse_ratio": ratio(counts.get("netsim.bfs_distinct_origins", 0), bfs_calls),
        "phantom.hunt_us_per_msg": ratio(s("phantom.hunt") * 1e6, counts.get("phantom.messages", 0)),
        "phantom.walk_steps_per_s": ratio(
            counts.get("phantom.walk_steps", 0),
            s("phantom.random_walk") + s("phantom.deliver_two_way"),
        ),
        "keymgmt.seal_ns_per_byte": ratio(s("keymgmt.seal") * 1e9, counts.get("keymgmt.seal.bytes", 0)),
        "ppda.setup_share": ratio(s("ppda.SppdaCluster.setup"), s("ppda.run_sppda")),
        "python.gc_collections": gc_collections,
        "python.gc_pause_s": gc_pause_ns / 1e9,
        "tracing.throughput_ratio": throughput_ratio,
    })
    return values
