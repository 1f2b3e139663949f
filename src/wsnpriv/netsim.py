"""Sensor-field model: immutable topologies and the transmission record.

Nodes live at 2-D positions and are adjacent iff their Euclidean distance is
within the radio range.  One designated sink (the home gateway) plus one or
more source nodes.  All experiment topologies must be connected; builders
check this at construction time.

Time is integer ticks, one hop per tick.  A Transmission records a single
broadcast: everyone within radio range of the sender hears it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .rng import SimRng

__all__ = [
    "NodeId",
    "Topology",
    "Transmission",
    "DisconnectedGraphError",
    "PlacementError",
    "build_grid",
    "build_random_geometric",
    "bfs_distances",
    "shortest_path",
    "step_draw",
    "draw",
]

NodeId = int
GRID_MAX_NODES = 10**6  # a larger lattice fails as bad input, not as a MemoryError
PAIR_TESTS_MAX = 10**8  # distance tests the spatial hash may make; 1000x1000 at range 1 makes 4e6


class DisconnectedGraphError(ValueError):
    """Raised when a builder would produce a disconnected field."""


class PlacementError(RuntimeError):
    """Raised when random placement cannot reach a connected field."""


@dataclass(frozen=True)
class Transmission:
    tick: int
    sender: NodeId
    payload_id: str
    hearers: frozenset[NodeId]


# One walk step's draw: k random bits index a slot tuple of 2**k entries
# holding the candidates, then None for each value Random.choice rejects.
StepDraw = tuple[int, tuple[NodeId | None, ...]]


@dataclass(frozen=True)
class Topology:
    positions: tuple[tuple[float, float], ...]
    radio_range: float
    adjacency: tuple[tuple[NodeId, ...], ...]  # sorted neighbor ids per node
    sink: NodeId
    sources: tuple[NodeId, ...]
    # Tables derived from the fields above, filled on first use and shared
    # by every caller; never part of equality, hashing or repr.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return len(self.positions)

    def distance(self, a: NodeId, b: NodeId) -> float:
        (ax, ay), (bx, by) = self.positions[a], self.positions[b]
        return math.hypot(ax - bx, ay - by)

    def distances_from(self, origin: NodeId) -> list[int]:
        """bfs_distances(self, origin), computed once per origin.

        The list is shared by every caller and must not be mutated.
        """
        key = ("bfs", origin)
        dist = self._memo.get(key)
        if dist is None:
            dist = self._memo[key] = bfs_distances(self, origin)
        return dist

    def step_row(self, cur: NodeId) -> dict[NodeId | None, StepDraw]:
        """Non-backtracking walk steps out of `cur`, built on first use.

        step_row(cur)[prev] is the draw over cur's neighbours other than
        prev (all of them when prev is the only one; prev is None at a
        walk's start).  Empty for a node without neighbours.
        """
        rows = self.step_table()
        row = rows[cur]
        if row is None:
            nbrs = self.adjacency[cur]
            row = rows[cur] = {
                prev: step_draw(nbrs[:i] + nbrs[i + 1:] or nbrs)
                for i, prev in enumerate(nbrs)
            }
            if nbrs:
                row[None] = step_draw(nbrs)
        return row

    def step_table(self) -> list[dict[NodeId | None, StepDraw] | None]:
        """The step_row of every node, None where not built yet.

        For loops that index rows directly instead of calling step_row on
        every step; only rows a walk visits are ever built.
        """
        rows = self._memo.get("steps")
        if rows is None:
            rows = self._memo["steps"] = [None] * self.node_count
        return rows


def step_draw(candidates: tuple[NodeId, ...]) -> StepDraw:
    """The draw table for a uniform pick from `candidates` (non-empty).

    Random.choice(seq) draws k = len(seq).bit_length() bits and redraws while
    they index past the end; draw() repeats those exact calls, so a walk
    consumes its stream as a choice()-based walk would.
    """
    k = len(candidates).bit_length()
    return k, candidates + (None,) * ((1 << k) - len(candidates))


def draw(getrandbits, step: StepDraw) -> NodeId:
    """Pick from a step_draw table with a Random's getrandbits, as choice()."""
    k, slots = step
    pick = slots[getrandbits(k)]
    while pick is None:
        pick = slots[getrandbits(k)]
    return pick


def _build_adjacency(
    positions: list[tuple[float, float]], radio_range: float
) -> tuple[tuple[NodeId, ...], ...]:
    # Spatial hash keeps this near-linear.  Cells are a hair wider than the
    # radio range, so nodes two cells apart fail the distance test however
    # it rounds.  A cell is compared with itself and its four later cells,
    # so each node pair is tested once.
    cell = radio_range * (1 + 1e-9)
    buckets: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
    for i, (x, y) in enumerate(positions):
        buckets.setdefault((int(x // cell), int(y // cell)), []).append((i, x, y))
    r2 = radio_range * radio_range
    adjacency: list[list[int]] = [[] for _ in positions]
    tests = 0
    for (cx, cy), members in buckets.items():
        pool = members.copy()
        for later in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)):
            pool += buckets.get(later, ())
        m = len(members)
        tests += m * len(pool) - m * (m + 1) // 2
        if tests > PAIR_TESTS_MAX:  # a range this wide builds a near-complete graph
            raise ValueError(
                f"radio_range: {radio_range} needs over {PAIR_TESTS_MAX} node-pair tests"
            )
        for k, (i, xi, yi) in enumerate(members, 1):
            for j, xj, yj in pool[k:]:
                if (xi - xj) ** 2 + (yi - yj) ** 2 <= r2:
                    adjacency[i].append(j)
                    adjacency[j].append(i)
    return tuple(tuple(sorted(nbrs)) for nbrs in adjacency)


def bfs_distances(topology: Topology, origin: NodeId) -> list[int]:
    """Hop distance from origin to every node (-1 for unreachable)."""
    dist = [-1] * topology.node_count
    dist[origin] = 0
    queue = deque([origin])
    adjacency = topology.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def shortest_path(topology: Topology, origin: NodeId, destination: NodeId) -> list[NodeId]:
    """One BFS shortest path origin -> destination (lowest-id tie-break)."""
    prev: dict[NodeId, NodeId] = {origin: origin}
    queue = deque([origin])
    while queue:
        u = queue.popleft()
        if u == destination:
            break
        for v in topology.adjacency[u]:
            if v not in prev:
                prev[v] = u
                queue.append(v)
    if destination not in prev:
        raise DisconnectedGraphError(
            f"no path from {origin} to {destination}"
        )
    path = [destination]
    while path[-1] != origin:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _finish(
    positions: list[tuple[float, float]],
    radio_range: float,
    sink: NodeId | None,
    sources: tuple[NodeId, ...] | None,
) -> Topology:
    if not radio_range >= 1e-9:  # also NaN; a smaller range overflows the spatial hash
        raise ValueError("radio_range: must be >= 1e-9")
    n = len(positions)
    topology = Topology(
        positions=tuple(positions),
        radio_range=radio_range,
        adjacency=_build_adjacency(positions, radio_range),
        sink=0 if sink is None else sink,
        sources=(n - 1,) if sources is None else tuple(sources),
    )
    if n == 0 or -1 in topology.distances_from(0):
        raise DisconnectedGraphError(
            f"radio_range: field of {n} nodes is disconnected at radio range {radio_range}"
        )
    if not 0 <= topology.sink < n:
        raise ValueError(f"sink: node {topology.sink} outside [0, {n})")
    for s in topology.sources:
        if not 0 <= s < n:
            raise ValueError(f"sources: node {s} outside [0, {n})")
    return topology


def build_grid(
    width: int,
    height: int,
    radio_range: float = 1.0,
    sink: NodeId | None = None,
    sources: tuple[NodeId, ...] | None = None,
) -> Topology:
    """width x height unit lattice.  Node id = y * width + x.

    Default roles: sink at node 0 (one corner), single source at the
    opposite corner.
    """
    if width < 1 or height < 1:
        raise ValueError(f"{'width' if width < 1 else 'height'}: must be >= 1")
    if width * height > GRID_MAX_NODES:
        raise ValueError(f"width: {width}x{height} grid is over {GRID_MAX_NODES} nodes")
    positions = [(float(x), float(y)) for y in range(height) for x in range(width)]
    return _finish(positions, radio_range, sink, sources)


def build_random_geometric(
    node_count: int,
    area_side: float,
    radio_range: float,
    rng: SimRng,
    sink: NodeId | None = None,
    sources: tuple[NodeId, ...] | None = None,
    max_attempts: int = 50,
) -> Topology:
    """Uniform placement in a square; retries until connected."""
    if node_count < 1:
        raise ValueError("node_count: must be >= 1")
    for _ in range(max_attempts):
        positions = [
            (rng.uniform(0.0, area_side), rng.uniform(0.0, area_side))
            for _ in range(node_count)
        ]
        try:
            return _finish(positions, radio_range, sink, sources)
        except DisconnectedGraphError:
            continue
    raise PlacementError(
        f"no connected placement of {node_count} nodes in {max_attempts} attempts"
    )
