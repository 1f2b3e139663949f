"""Sensor-field model: immutable topologies, hop distances and walk-step tables.

Nodes live at 2-D positions; build_grid links two nodes iff their Euclidean
distance is within its radio range.  One designated sink (the home gateway)
plus one or more source nodes.  A broadcast is heard by every neighbour of
its sender.  Every experiment runs on a build_grid lattice, which refuses a
disconnected field; a Topology built directly takes any adjacency, but has
hop distances only if connected.  They are |dx| + |dy| on a range-1
lattice, bfs_distances on any other field, and per Topology.  A grid
shape's positions and adjacency are built once per process, in a bounded
LRU (~160-170 B per node at range 1), with one table of walk-step records,
one per directed edge, that every build_grid Topology of the shape fills
and reads (~670-690 B per node once every record is filled).
"""

from __future__ import annotations

from collections import Counter, deque
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
# The most node pairs a grid may hold in touching cells of side r * (1 + 1e-9).
PAIR_TESTS_MAX = 10**8  # 1000x1000 at range 1 holds 4e6
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
    positions: tuple[tuple[float, float], ...]
    adjacency: tuple[tuple[NodeId, ...], ...]  # sorted neighbor ids per node
    sink: NodeId
    sources: tuple[NodeId, ...]
    # Tables derived from the fields above, filled on first use and shared
    # by every caller; never part of equality, hashing or repr.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    A node links to the offsets (dx, dy) on the lattice with float(dx)**2 +
    float(dy)**2 <= r**2; rows are built a lattice row at a time, from
    slices of one padded id list.  Before any row is built, a range is
    refused if over PAIR_TESTS_MAX node pairs lie in touching cells (equal
    or adjacent in both axes) of side r * (1 + 1e-9).  A cell holds (lattice
    columns in its x span) x (lattice rows in its y span) nodes, so the
    count comes from per-axis sums.
    """
    n = width * height
    if n * (n - 1) // 2 > PAIR_TESTS_MAX:  # fewer pairs in all than the cap: nothing to count
        cell = radio_range * (1 + 1e-9)
        axes = []
        for side in (width, height):
            cells = Counter(int(v // cell) for v in map(float, range(side)))
            axes.append((sum(m * m for m in cells.values()),  # one cell's span with itself
                         sum(m * cells[c + 1] for c, m in cells.items())))  # with the next one's
        (xx, xn), (yy, yn) = axes
        # Pairs within a cell, then a cell with its later x, y and two diagonal cells.
        if (xx * yy - n) // 2 + xn * yy + xx * yn + 2 * xn * yn > PAIR_TESTS_MAX:
            raise ValueError(
                f"radio_range: {radio_range} needs over {PAIR_TESTS_MAX} node-pair tests"
            )
    # reach[dy]: the widest dx in range at that dy.  The float test fails
    # for every wider offset once it fails, so reach only shrinks.
    r2 = radio_range * radio_range
    reach: list[int] = []
    dx = width - 1
    for dy in range(height):
        while dx >= 0 and float(dx) ** 2 + float(dy) ** 2 > r2:
            dx -= 1
        if dx < 0:
            break
        reach.append(dx)
    tall, side = len(reach) - 1, reach[0]
    if not (tall or side):  # a lone node, or a range short of the lattice pitch
        return ((),) * (width * height)
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
    """(positions, adjacency, memo entries) of a connected grid.  The memo
    entries are an empty step table, which fills as walks visit it, and at
    range 1 the width.

    _grid_adjacency's float test links pitch-1 neighbours iff r*r >= 1, and
    those links alone connect the lattice; below that no node has a link.
    Range 1 is 1 <= r*r < 2 (4 neighbours per node), where distances_from
    needs no BFS.  A refusal is never cached, so it raises again on every call.
    """
    adjacency = _grid_adjacency(width, height, radio_range)
    n = width * height
    r2 = radio_range * radio_range
    if n > 1 and r2 < 1.0:
        raise DisconnectedGraphError(
            f"radio_range: field of {n} nodes is disconnected at radio range {radio_range}"
        )
    xs = list(map(float, range(width)))  # one float object per coordinate
    positions = tuple([(x, y) for y in map(float, range(height)) for x in xs])
    memo = {"steps": [None] * n}
    if 1.0 <= r2 < 2.0:
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
    time; a range linking too many node pairs is refused first
    (_grid_adjacency), then a field of more than one node short of range 1.
    Positions share one float object per coordinate.  At range 1 it records
    the width, so distances_from needs no BFS.  Each call returns a new
    Topology with its own roles and memo over its shape's shared tables.

    Default roles: sink at node 0 (one corner), single source at the
    opposite corner.
    """
    if width < 1 or height < 1:
        raise ValueError(f"{'width' if width < 1 else 'height'}: must be >= 1")
    n = width * height
    if n > GRID_MAX_NODES:
        raise ValueError(f"width: {width}x{height} grid is over {GRID_MAX_NODES} nodes")
    if not radio_range >= 1e-9:  # also NaN; far smaller ranges overflow the cell count
        raise ValueError("radio_range: must be >= 1e-9")
    positions, adjacency, memo = _lattice(width, height, radio_range)
    topology = Topology(
        positions=positions,
        adjacency=adjacency,
        sink=0 if sink is None else sink,
        sources=(n - 1,) if sources is None else tuple(sources),
    )
    topology._memo.update(memo)
    if not 0 <= topology.sink < n:
        raise ValueError(f"sink: node {topology.sink} outside [0, {n})")
    for s in topology.sources:
        if not 0 <= s < n:
            raise ValueError(f"sources: node {s} outside [0, {n})")
    return topology
