"""Layer 1: source-location anonymity by phantom routing.

A message first performs a random walk away from its source (ending at a
phantom node), then floods from there to reach the sink.  The two-way
variant replaces the flood with a rendezvous: the sink pre-establishes a
receptor walk, source messages random-walk until they hit it, and follow
it home.  Both walks, and the directed walk's fallback, take their steps
from one non-backtracking kernel, `_walk`.

The adversary is a patient hunter.  It camps at a node, and for each
delivered message relocates to the transmitter it heard earliest, read off
`Schedule.first_heard` (ties as its docstring says); against two-way
routing it listens while the walk runs instead (deliver_two_way's
`listen`), which hears the same node at the same tick.  It catches the
source at its node at a moment the source is transmitting.  The safety
period is the number of messages the source got out before that happens.

The flooding-zone math (how many nodes a zone needs so that back-tracing
succeeds with probability below a target) is exact combinatorics.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Collection, Container, Iterable
from dataclasses import dataclass, field
from itertools import repeat

from .netsim import NodeId, Topology
from .rng import SimRng

__all__ = [
    "WalkMode",
    "WalkConfig",
    "ReceptorPath",
    "Schedule",
    "HuntReport",
    "ZonePlan",
    "TwoWay",
    "NoRendezvousError",
    "WALK_MAX_STEPS",
    "random_walk",
    "flood",
    "build_receptor",
    "deliver_two_way",
    "route_message",
    "hunt",
    "min_zone_nodes",
]

WALK_MAX_STEPS = 10_000  # longest walk either Layer-1 route takes for one message


class NoRendezvousError(RuntimeError):
    """Two-way walk exhausted its step budget without hitting the receptor."""


class WalkMode(enum.Enum):
    PURE = "pure"
    DIRECTED = "directed"


@dataclass(frozen=True)
class WalkConfig:
    """Phantom routing: walk `hops` hops, then flood.  0 hops is plain flooding."""

    mode: WalkMode = WalkMode.PURE
    hops: int = 0

    def __post_init__(self):
        if self.hops < 0:
            raise ValueError("hops: must be >= 0")
        if self.hops > WALK_MAX_STEPS:
            raise ValueError(f"hops: must be <= {WALK_MAX_STEPS}")


@dataclass(frozen=True)
class ReceptorPath:
    """Self-avoiding path; its last node is the destination."""

    nodes: tuple[NodeId, ...]


@dataclass(frozen=True)
class TwoWay:
    """Two-way routing: a run's messages share one receptor() of up to receptor_length hops."""

    receptor_length: int

    def __post_init__(self):
        if self.receptor_length < 0:
            raise ValueError("receptor_length: must be >= 0")

    def receptor(self, topology: Topology, rng: SimRng) -> ReceptorPath:
        """The run's receptor: ends at topology.sink, drawn from rng's "receptor" stream."""
        stream = rng.stream("receptor")
        return build_receptor(topology, topology.sink, self.receptor_length, stream)


@dataclass(frozen=True)
class HuntReport:
    safety_period: int
    captured: bool
    transmissions_total: int
    delivery_latency_hops: tuple[int, ...]
    adversary_moves: tuple[tuple[int, NodeId, NodeId], ...]  # (message, from, to)


@dataclass(frozen=True)
class ZonePlan:
    p_r: float
    hops: int
    n_min: int
    k: int


def _walk(
    topology: Topology, route: list[NodeId], steps: int, stop: Container[NodeId], rng: SimRng
) -> bool:
    """Extend `route` by up to `steps` pure steps; True if it ends in `stop`.

    A one-node route's first step is choice() over the records of
    steps_from(cur), one per neighbour.  Every later step draws from the
    slots of the record of the edge it came in on, as choice() would;
    build_grid topologies of one shape share those records.  route[-1] must
    have neighbours.
    """
    getrandbits = rng.getrandbits
    step_slots = topology.step_slots
    append = route.append
    if len(route) > 1:
        prev, cur = route[-2:]
        record = topology.steps_from(prev)[topology.adjacency[prev].index(cur)]
    elif steps < 1:
        return False
    else:  # no prev: the first step may take any neighbour
        record = rng.choice(topology.steps_from(route[0]))
        append(record[0])
        if record[0] in stop:
            return True
        steps -= 1
    _, k, slots, _ = record
    for _ in repeat(None, steps):
        if slots is None:
            slots = step_slots(record)
        record = slots[getrandbits(k)]
        while record is None:
            record = slots[getrandbits(k)]
        nxt, k, slots, _ = record
        append(nxt)
        if nxt in stop:
            return True
    return False


def random_walk(
    topology: Topology, source: NodeId, cfg: WalkConfig, rng: SimRng
) -> list[NodeId]:
    """Walk of cfg.hops hops from source; last element is the phantom node.

    Pure mode never immediately backtracks unless trapped.  Directed mode
    prefers neighbors strictly farther from the walk's origin, pushing the
    phantom away from the true source; falls back to the pure rule when no
    such neighbor exists.
    """
    path = [source]
    if not topology.adjacency[source]:
        return path
    if cfg.mode is WalkMode.PURE:
        _walk(topology, path, cfg.hops, (), rng)
        return path
    pos = topology.positions
    for _ in range(cfg.hops):
        cur = path[-1]
        d_cur = math.dist(pos[cur], pos[source])
        farther = [n for n in topology.adjacency[cur] if math.dist(pos[n], pos[source]) > d_cur]
        if farther:
            path.append(rng.choice(farther))
        else:
            _walk(topology, path, 1, (), rng)
    return path


@dataclass
class Schedule:
    """One routed message: who forwards it when, what it cost, when it lands.

    Node walk[i] forwards at tick i (its first place on the walk wins).  A
    flood then starts from flood_origin (the walk's end) at tick len(walk):
    every node of the (connected) field forwards at len(walk) + its hop
    distance from flood_origin, destination excepted, unless the walk
    already had it forward.  Two-way routes have no flood (flood_origin is
    None).  The flood's hop distances come from the topology's memo
    (Topology.distances_from), built the first time first_heard() needs
    them, never otherwise; a node's own tick is
    first_heard((node,)).  `transmissions` counts every broadcast (walk
    revisits included) and `latency_hops` is the tick the destination first
    hears the message.  Every Schedule was delivered: a two-way walk that
    misses its receptor raises NoRendezvousError instead.
    """

    topology: Topology = field(repr=False, compare=False)
    walk: list[NodeId]
    flood_origin: NodeId | None
    destination: NodeId
    transmissions: int
    latency_hops: int

    def first_heard(self, nodes: Iterable[NodeId]) -> tuple[int, NodeId] | None:
        """(tick, node) of the earliest of `nodes` to forward, or None.

        Each walk tick holds one node and comes before every flood tick, so
        the first walk node among `nodes` wins outright.  Otherwise the
        lowest flood tick does, lowest id on a tie.
        """
        walk = self.walk
        nodes = frozenset(nodes)
        first = next(filter(nodes.__contains__, walk), None)
        if first is not None:
            return walk.index(first), first
        others = nodes - {self.destination}
        if self.flood_origin is None or not others:
            return None
        dist = self.topology.distances_from(self.flood_origin)
        return min([(len(walk) + dist[v], v) for v in others])


def flood(topology: Topology, origin: NodeId, destination: NodeId) -> Schedule:
    """Whole-field flood: every node retransmits once, destination excepted.

    A node first hearing the message at tick t retransmits at tick t; the
    origin transmits at tick 0.  Latency is the hop distance from origin to
    destination.
    """
    return route_message(topology, origin, destination, WalkConfig(), None)


def build_receptor(
    topology: Topology, destination: NodeId, length: int, rng: SimRng
) -> ReceptorPath:
    """Self-avoiding walk of up to `length` >= 0 hops anchored at the destination.

    Grown outward from the destination and reversed, so the stored path
    runs interior -> destination.  Truncates if the walk traps itself.
    """
    walk = [destination]
    visited = {destination}
    for _ in range(length):
        options = [n for n in topology.adjacency[walk[-1]] if n not in visited]
        if not options:
            break
        nxt = rng.choice(options)
        walk.append(nxt)
        visited.add(nxt)
    walk.reverse()
    return ReceptorPath(nodes=tuple(walk))


def deliver_two_way(
    topology: Topology,
    source: NodeId,
    receptor: ReceptorPath,
    rng: SimRng,
    max_steps: int = WALK_MAX_STEPS,
    *,
    listen: tuple[Collection[NodeId], list[tuple[int, NodeId]]] | None = None,
) -> list[NodeId]:
    """Random-walk from source until the receptor is hit, then follow it home.

    Returns the full route (walk prefix + receptor suffix).  A source
    already on the receptor sends straight down the pre-established path.
    A disconnected field raises DisconnectedGraphError before any draw.

    With listen = (nodes, heard), the list `heard` receives (tick, node)
    for the first of `nodes` to forward, as Schedule.first_heard reads it
    off the route, if one does.  The walk stops at that node to record it,
    then walks on to the receptor on the same step budget, so the route and
    the draws are the same.
    """
    topology.distances_from(source)
    nodes, heard = listen or ((), None)
    index_of = {node: i for i, node in enumerate(receptor.nodes)}
    scan = 0  # no listened node forwards before route[scan]
    if source in index_of:
        route = list(receptor.nodes[index_of[source]:])
    else:
        route = [source]
        ear = nodes and source not in nodes
        met = _walk(topology, route, max_steps, index_of.keys() | nodes if ear else index_of, rng)
        if ear:
            scan = len(route) - 1
            if met and route[-1] not in index_of:  # heard before the rendezvous
                met = _walk(topology, route, max_steps + 1 - len(route), index_of, rng)
        if not met:
            raise NoRendezvousError(f"no rendezvous with receptor within {max_steps} steps")
        route.extend(receptor.nodes[index_of[route[-1]] + 1:])
    if nodes:  # the last node, the receptor's destination, never forwards
        for tick in range(scan, len(route) - 1):
            if route[tick] in nodes:
                heard.append((tick, route[tick]))
                break
    return route


def route_message(
    topology: Topology,
    source: NodeId,
    destination: NodeId,
    strategy: WalkConfig | ReceptorPath,
    rng: SimRng | None,
) -> Schedule:
    """Route one message from source to destination under `strategy`.

    A WalkConfig walks its h hops, then floods from the walk's end; h = 0
    is plain flooding and draws nothing from `rng`, which may be None.
    Latency is h plus the walk end's entry in the destination's memoized
    hop distances (distances_from), as hop distance is symmetric.  A
    ReceptorPath (a run builds it by TwoWay.receptor) is two-way routing:
    the message walks until it meets the receptor and follows it home, or
    raises NoRendezvousError.
    """
    if isinstance(strategy, ReceptorPath):
        route = deliver_two_way(topology, source, strategy, rng)
        hops = len(route) - 1
        return Schedule(topology, route[:-1], None, destination, hops, hops)

    path = random_walk(topology, source, strategy, rng) if strategy.hops else [source]
    h = len(path) - 1
    latency = h + topology.distances_from(destination)[path[-1]]
    # The field is connected: every node but the destination floods once.
    flooded = topology.node_count - 1
    return Schedule(topology, path[:h], path[-1], destination, flooded + h, latency)


def hunt(
    topology: Topology,
    strategy: WalkConfig | TwoWay,
    message_budget: int,
    rng: SimRng,
) -> HuntReport:
    """Run a back-tracing adversary against the chosen routing strategy.

    Walks come from rng's "walk" stream (a 0-hop WalkConfig floods); a
    TwoWay strategy first builds the run's one receptor by TwoWay.receptor.

    The adversary relocates at most once per message, to the transmitter it
    heard earliest from its current position: Schedule.first_heard of its
    neighbours, or for a two-way message the node deliver_two_way hears
    while the walk runs, listening to those neighbours.  Each two-way
    message goes through deliver_two_way, looked up when called.  Capture:
    the adversary is at the source when the source transmits (it either sat
    there at message start, or relocated there because it heard the source
    itself).  The adversary starts at the sink.
    """
    if message_budget < 1:
        raise ValueError("message_budget: must be >= 1")
    if not topology.sources:
        raise ValueError("sources: the topology has no source to hunt")
    source = topology.sources[0]
    destination = topology.sink
    adversary = destination

    walk_rng = rng.stream("walk")
    receptor = strategy.receptor(topology, rng) if isinstance(strategy, TwoWay) else None

    transmissions_total = 0
    latencies: list[int] = []
    moves: list[tuple[int, NodeId, NodeId]] = []
    captured = False
    safety_period = message_budget

    for msg in range(1, message_budget + 1):
        nbrs = topology.adjacency[adversary]
        if receptor is None:
            sched = route_message(topology, source, destination, strategy, walk_rng)
            cost, latency = sched.transmissions, sched.latency_hops
            heard = sched.first_heard(nbrs) if adversary != source else None
        else:
            ear: list[tuple[int, NodeId]] = []
            try:
                route = deliver_two_way(topology, source, receptor, walk_rng, listen=(nbrs, ear))
            except NoRendezvousError:
                # Message lost: its walk's broadcasts count in no total and the
                # hunter hears none (xfail test_hunt_counts_the_walks_of_lost_messages).
                latencies.append(-1)
                continue
            cost = latency = len(route) - 1
            heard = ear[0] if ear else None

        transmissions_total += cost
        latencies.append(latency)

        # Source transmits at tick 0 of every message, so an adversary
        # camped on it (only when the sink is the source) stays and catches it.
        if heard is not None and adversary != source:
            moves.append((msg, adversary, heard[1]))
            adversary = heard[1]
        if adversary == source:
            captured = True
            safety_period = msg
            break

    return HuntReport(
        safety_period=safety_period,
        captured=captured,
        transmissions_total=transmissions_total,
        delivery_latency_hops=tuple(latencies),
        adversary_moves=tuple(moves),
    )


def min_zone_nodes(p_r: float, hops: int) -> ZonePlan:
    """Smallest flooding-zone size N >= hops with C(N, hops) > 1/p_r.

    1/C(N, H) is the paper's counting model (choosing one H-subset of N
    nodes), not the success probability of an adversary who sees where the
    walk ends, which can be far higher: on a 2x5 zone (N = 10, the answer
    for p_r = 0.01 at 3 hops) a pure walk's end names the source with
    probability 0.400, not 1/120.  C(N, hops) grows with N, so N is found
    by galloping from hops, then bisecting.
    """
    if not 0.0 < p_r <= 1.0:
        raise ValueError("p_r: must be in (0, 1]")
    if hops < 1:
        raise ValueError("hops: must be >= 1")
    threshold = 1.0 / p_r
    if not math.isfinite(threshold):
        raise ValueError(f"p_r: 1/p_r overflows for p_r={p_r!r}")
    lo, hi = hops, hops + 1  # C(hops, hops) = 1 <= threshold, since p_r <= 1
    while math.comb(hi, hops) <= threshold:
        lo, hi = hi, hops + 2 * (hi - hops)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(mid, hops) > threshold:
            hi = mid
        else:
            lo = mid
    return ZonePlan(p_r=p_r, hops=hops, n_min=hi, k=math.comb(hi, hops))
