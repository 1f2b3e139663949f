"""Sensor-field model: immutable topologies, hop distances and walk-step tables.

Nodes live at 2-D positions; build_grid links two nodes iff their Euclidean
distance is within its radio range.  One designated sink (the home gateway)
plus one or more source nodes.  A broadcast is heard by every neighbour of
its sender.  Every experiment runs on a build_grid lattice, which counts
its links before building any and refuses a field of none (disconnected)
or of over LINKS_MAX adjacency entries; a Topology built directly takes any
adjacency, but routes only if connected.  Hop distances are |dx| + |dy| on
a range-1 lattice, bfs_distances on any other field, and per Topology.
A grid shape's positions and adjacency are built once per process, in a
bounded LRU (~160-170 B per node at range 1), with one table of walk-step
records, one per directed edge, that every build_grid Topology of the shape
fills and reads (~670-690 B per node once every record is filled).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "NodeId",
    "Topology",
    "DisconnectedGraphError",
    "build_grid",
    "bfs_distances",
    "shortest_path",
]

NodeId = int
GRID_MAX_NODES = 10**6  # a larger lattice fails as bad input, not as a MemoryError
# The most adjacency entries a grid may hold, ~0.9 GB at ~8.6 B per entry;
# 1000x1000 at range 1 holds 4e6.
LINKS_MAX = 10**8
# Grid shapes kept by build_grid: 32 of 30x30 at range 1 hold ~4.9 MB, and
# ~20 MB more once every step record of every shape is filled.
LATTICE_CACHE_SIZE = 32


class DisconnectedGraphError(ValueError):
    """Raised for a disconnected field."""


# A directed edge's walk steps, [cur, k, slots, prev]: a walk that came from
# prev to cur draws k random bits to index slots, a tuple of 2**k entries
# holding the records of cur's edges to its neighbours other than prev (all
# of them when prev is the only one), then None for each value Random.choice
# rejects.  k depends on cur alone; slots is None until first needed.
# Random.choice(seq) draws k = len(seq).bit_length() bits and redraws while
# they index past the end; phantom's walk repeats those exact calls, so a
# walk consumes its stream as a choice()-based walk would.
StepRecord = list


@dataclass(frozen=True)
class Topology:
    """A field and its roles, each role a node id in [0, node_count), checked
    when built.  Every route asks distances_from, so routing on a
    disconnected field raises DisconnectedGraphError."""

    positions: tuple[tuple[float, float], ...]
    adjacency: tuple[tuple[NodeId, ...], ...]  # sorted neighbor ids per node
    sink: NodeId
    sources: tuple[NodeId, ...]
    # Tables derived from the fields above, filled on first use and shared
    # by every caller; never part of equality, hashing or repr.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.positions)
        for key, node in (("sink", self.sink), *(("sources", s) for s in self.sources)):
            if not 0 <= node < n:
                raise ValueError(f"{key}: node {node} outside [0, {n})")

    @property
    def node_count(self) -> int:
        return len(self.positions)

    def distances_from(self, origin: NodeId) -> list[int]:
        """bfs_distances(self, origin), computed once per origin.

        On a range-1 build_grid lattice (its width in the memo) the list is
        |dx| + |dy|, two ranges per row; any other field runs the BFS and
        raises DisconnectedGraphError if a node is unreached.  The list is
        shared by every caller and must not be mutated.
        """
        key = ("bfs", origin)
        dist = self._memo.get(key)
        if dist is None:
            width = self._memo.get("lattice")
            if width is None:
                dist = bfs_distances(self, origin)
                if -1 in dist:
                    raise DisconnectedGraphError(
                        f"adjacency: no path from node {origin} to node {dist.index(-1)}")
            else:
                oy, ox = divmod(origin, width)
                dist = []
                for y in range(self.node_count // width):
                    dy = abs(y - oy)
                    dist += range(ox + dy, dy, -1)  # x = 0 .. ox - 1
                    dist += range(dy, dy + width - ox)  # x = ox .. width - 1
            self._memo[key] = dist
        return dist

    def steps_from(self, node: NodeId) -> tuple[StepRecord, ...]:
        """The step records of node's edges, in adjacency order, built on
        first use with their slots unfilled."""
        table = self.step_table()
        out = table[node]
        if out is None:
            adjacency = self.adjacency
            out = table[node] = tuple([
                [nxt, max(len(adjacency[nxt]) - 1, 1).bit_length(), None, node]
                for nxt in adjacency[node]
            ])
        return out

    def step_slots(self, record: StepRecord) -> tuple[StepRecord | None, ...]:
        """record's slots, filled on first use: a non-backtracking step
        draws among the records of the next edges."""
        slots = record[2]
        if slots is None:
            cur, k, _, prev = record
            out = self.steps_from(cur)
            out = tuple([r for r in out if r[0] != prev]) or out
            slots = record[2] = out + (None,) * ((1 << k) - len(out))
        return slots

    def step_table(self) -> list[tuple[StepRecord, ...] | None]:
        """The steps_from of every node, None where not built yet.

        Only records a walk reaches are ever built.  build_grid topologies
        of one shape share one table; a Topology built directly has its own.
        """
        rows = self._memo.get("steps")
        if rows is None:
            rows = self._memo["steps"] = [None] * self.node_count
        return rows


def _grid_adjacency(
    width: int, height: int, radio_range: float
) -> tuple[tuple[NodeId, ...], ...]:
    """Adjacency of the width x height unit lattice, linked by offset.

    A node links to the offsets (dx, dy) with float(dx)**2 + float(dy)**2 <=
    r**2, and offset (dx, dy) links (width - |dx|) x (height - |dy|) nodes.
    Before any row is built, those counts sum to the adjacency entries: over
    LINKS_MAX raises ValueError, and none on more than one node (r*r < 1)
    raises DisconnectedGraphError.  Any link means r*r >= 1, whose pitch-1
    links alone connect the lattice.  Rows are built a lattice row at a
    time, from slices of one padded id list.
    """
    n = width * height
    # reach[dy]: the widest dx in range at that dy.  The float test fails
    # for every wider offset once it fails, so reach only shrinks; no dx
    # past r passes it, so the scan starts there (at width - 1 for r = inf).
    r2 = radio_range * radio_range
    reach: list[int] = []
    links = -n  # the (0, 0) offset, which links no node
    dx = width - 1 if radio_range >= width else min(width - 1, int(radio_range) + 1)
    for dy in range(height):
        while dx >= 0 and float(dx) ** 2 + float(dy) ** 2 > r2:
            dx -= 1
        if dx < 0:
            break
        reach.append(dx)
        # Offsets -dx .. dx at dy, and at -dy too unless dy is 0.
        links += (height - dy) * ((2 * dx + 1) * width - dx * (dx + 1)) * (2 if dy else 1)
    if links > LINKS_MAX:
        raise ValueError(
            f"radio_range: {radio_range} needs {links} adjacency entries, over {LINKS_MAX}")
    if not links:
        if n > 1:
            raise DisconnectedGraphError(
                f"radio_range: field of {n} nodes is disconnected at radio range {radio_range}")
        return ((),)
    tall, side = len(reach) - 1, reach[0]
    # Each lattice row padded with -1 to the reach on both sides, and tall
    # rows of -1 above and below, in one list holding one int object per
    # node id: a whole row's neighbours at one stencil offset are one slice.
    # The offsets ascend (|dx| <= side < padded / 2), so every row is sorted.
    padded = width + 2 * side
    ids = [-1] * (tall * padded)
    for y in range(height):
        ids += [-1] * side
        ids += range(y * width, y * width + width)
        ids += [-1] * side
    ids += [-1] * (tall * padded)
    offsets = [dy * padded + dx for dy in range(-tall, tall + 1)
               for dx in range(-reach[abs(dy)], reach[abs(dy)] + 1) if dy or dx]
    rows: list[tuple[NodeId, ...]] = []
    for y in range(height):
        start = (y + tall) * padded + side
        for row in zip(*[ids[start + d:start + d + width] for d in offsets]):
            rows.append(row if -1 not in row else tuple([j for j in row if j >= 0]))
    return tuple(rows)


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
    """A shortest path origin -> destination, read off the memoized hop
    distances from the destination (distances_from): each hop goes to the
    lowest-id neighbour one hop nearer.  No caller in the package: kept
    while benchmarks/tracer.py traces it, as test_every_traced_name_resolves checks."""
    dist = topology.distances_from(destination)
    path = [origin]
    for d in range(dist[origin] - 1, -1, -1):
        path.append(next(v for v in topology.adjacency[path[-1]] if dist[v] == d))
    return path


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _lattice(width: int, height: int, radio_range: float) -> tuple:
    """(positions, adjacency, memo entries) of a grid that _grid_adjacency
    accepts.  The memo entries are an empty step table, which fills as walks
    visit it, and at range 1 (1 <= r*r < 2, 4 neighbours per node) the
    width, so distances_from needs no BFS.  A refusal is never cached, so it
    raises again on every call.
    """
    adjacency = _grid_adjacency(width, height, radio_range)
    xs = list(map(float, range(width)))  # one float object per coordinate
    positions = tuple([(x, y) for y in map(float, range(height)) for x in xs])
    memo = {"steps": [None] * len(adjacency)}
    if 1.0 <= radio_range * radio_range < 2.0:
        memo["lattice"] = width
    return positions, adjacency, memo


def build_grid(
    width: int,
    height: int,
    radio_range: float = 1.0,
    sink: NodeId | None = None,
    sources: tuple[NodeId, ...] | None = None,
) -> Topology:
    """width x height unit lattice.  Node id = y * width + x.

    Nodes within radio_range are linked by id offset, a lattice row at a
    time; a range whose links would make over LINKS_MAX adjacency entries,
    or none on more than one node, is refused first (_grid_adjacency).
    Positions share one float object per coordinate.  At range 1 it records
    the width, so distances_from needs no BFS.  Each call returns a new
    Topology with its own roles and memo over its shape's shared tables.

    Default roles: sink at node 0 (one corner), single source at the
    opposite corner.  The Topology checks that each role is a node id.
    """
    if width < 1 or height < 1:
        raise ValueError(f"{'width' if width < 1 else 'height'}: must be >= 1")
    n = width * height
    if n > GRID_MAX_NODES:
        raise ValueError(f"width: {width}x{height} grid is over {GRID_MAX_NODES} nodes")
    if not radio_range >= 1e-9:  # also NaN, which every offset's float test passes
        raise ValueError("radio_range: must be >= 1e-9")
    positions, adjacency, memo = _lattice(width, height, radio_range)
    topology = Topology(
        positions=positions,
        adjacency=adjacency,
        sink=0 if sink is None else sink,
        sources=(n - 1,) if sources is None else tuple(sources),
    )
    topology._memo.update(memo)
    return topology
