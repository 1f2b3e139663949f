"""Sensor-field model: immutable topologies, hop distances and walk-step tables.

Nodes live at 2-D positions; build_grid links two nodes iff their Euclidean
distance is within its radio range.  One designated sink (the home gateway)
plus one or more source nodes.  Every experiment runs on a build_grid
lattice, which refuses a disconnected field; a Topology built directly takes
any adjacency.  A broadcast is heard by every neighbour of its sender.
Hop distances on a range-1 lattice are |dx| + |dy| in closed form; every
other field runs bfs_distances.  A grid shape's positions, adjacency and
connectivity verdict are built once per process, in a bounded LRU
(~160-170 B per node at range 1); hop distances and walk-step rows stay per
Topology.
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
LATTICE_CACHE_SIZE = 32  # grid shapes kept by build_grid: 32 of 30x30 at range 1 hold ~4.9 MB


class DisconnectedGraphError(ValueError):
    """Raised for a disconnected field, or a destination no path reaches."""


# One walk step's draw: k random bits index a slot tuple of 2**k entries
# holding the candidates, then None for each value Random.choice rejects.
# Random.choice(seq) draws k = len(seq).bit_length() bits and redraws while
# they index past the end; phantom's walk repeats those exact calls, so a
# walk consumes its stream as a choice()-based walk would.
StepDraw = tuple[int, tuple[NodeId | None, ...]]


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
        |dx| + |dy|, two ranges per row; any other field runs the BFS.  The
        list is shared by every caller and must not be mutated.
        """
        key = ("bfs", origin)
        dist = self._memo.get(key)
        if dist is None:
            width = self._memo.get("lattice")
            if width is None:
                dist = bfs_distances(self, origin)
            else:
                oy, ox = divmod(origin, width)
                dist = []
                for y in range(self.node_count // width):
                    dy = abs(y - oy)
                    dist += range(ox + dy, dy, -1)  # x = 0 .. ox - 1
                    dist += range(dy, dy + width - ox)  # x = ox .. width - 1
            self._memo[key] = dist
        return dist

    def step_row(self, cur: NodeId) -> dict[NodeId | None, StepDraw]:
        """Non-backtracking walk steps out of `cur`, built on first use.

        step_row(cur)[prev] is the draw over cur's neighbours other than
        prev (all of them when prev is the only one; prev is None at a
        walk's start).  Empty for a node without neighbours.  Every prev
        leaves as many candidates, so one (k, pad) serves them all.
        """
        rows = self.step_table()
        row = rows[cur]
        if row is None:
            nbrs = self.adjacency[cur]
            m = max(len(nbrs) - 1, 1)
            k = m.bit_length()
            pad = (None,) * ((1 << k) - m)
            row = rows[cur] = {}
            for i, prev in enumerate(nbrs):
                row[prev] = k, (nbrs[:i] + nbrs[i + 1:] or nbrs) + pad
            if nbrs:
                k = len(nbrs).bit_length()
                row[None] = k, nbrs + (None,) * ((1 << k) - len(nbrs))
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


def _grid_adjacency(
    width: int, height: int, radio_range: float
) -> tuple[tuple[NodeId, ...], ...]:
    """Adjacency of the width x height unit lattice, linked by offset.

    A node links to the offsets (dx, dy) on the lattice with float(dx)**2 +
    float(dy)**2 <= r**2; rows are built a run of nodes at a time, from
    slices of one id list.  Before any row is built, a range is refused if
    over PAIR_TESTS_MAX node pairs lie in touching cells (equal or adjacent
    in both axes) of side r * (1 + 1e-9).  A cell holds (lattice columns in
    its x span) x (lattice rows in its y span) nodes, so the count comes
    from per-axis sums.
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
    # A run of a row's nodes has equal room (capped at the reach) to each
    # edge, so its members share one list of id offsets, and the ids at one
    # offset from the run are a slice of ids.  Rows with equal room above
    # and below share their runs.
    cuts = sorted({*range(side + 1), *range(width - side, width + 1)})
    ids = list(range(width * height))  # one int object per node id in every row
    runs: dict[tuple[int, int], list[tuple[int, int, list[int]]]] = {}
    rows: list[tuple[NodeId, ...]] = []
    for y in range(height):
        room = min(y, tall), min(height - 1 - y, tall)
        if room not in runs:
            runs[room] = [(a, b, _offsets(width, reach, a, room)) for a, b in zip(cuts, cuts[1:])]
        for a, b, offsets in runs[room]:
            start, stop = y * width + a, y * width + b
            if stop - start > 1:
                rows += zip(*[ids[start + d:stop + d] for d in offsets])
            else:  # one slice per offset costs more than one lookup
                rows.append(tuple([ids[start + d] for d in offsets]))
    return tuple(rows)


def _offsets(width: int, reach: list[int], x: int, room: tuple[int, int]) -> list[int]:
    """Sorted id offsets in range of column x, with room[0] rows below and room[1] above."""
    offsets: list[int] = []
    for dy in range(-room[0], room[1] + 1):
        r = reach[abs(dy)]
        offsets += range(dy * width - min(x, r), dy * width + min(width - 1 - x, r) + 1)
    offsets.remove(0)
    return offsets


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
    lowest-id neighbour one hop nearer."""
    dist = topology.distances_from(destination)
    if dist[origin] < 0:
        raise DisconnectedGraphError(f"no path from {origin} to {destination}")
    path = [origin]
    for d in range(dist[origin] - 1, -1, -1):
        path.append(next(v for v in topology.adjacency[path[-1]] if dist[v] == d))
    return path


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _lattice(width: int, height: int, radio_range: float) -> tuple:
    """(positions, adjacency, width at range 1 else None) of a connected grid.

    Range 1 is 1 <= r*r < 2 in _grid_adjacency's float test (4 neighbours
    per node): always connected, and distances_from needs no BFS there.
    A refusal is never cached, so it raises again on every call.
    """
    adjacency = _grid_adjacency(width, height, radio_range)
    xs = list(map(float, range(width)))  # one float object per coordinate
    positions = tuple([(x, y) for y in map(float, range(height)) for x in xs])
    lattice = width if 1.0 <= radio_range * radio_range < 2.0 else None
    if lattice is None and -1 in bfs_distances(Topology(positions, adjacency, 0, ()), 0):
        n = len(positions)
        raise DisconnectedGraphError(
            f"radio_range: field of {n} nodes is disconnected at radio range {radio_range}"
        )
    return positions, adjacency, lattice


def build_grid(
    width: int,
    height: int,
    radio_range: float = 1.0,
    sink: NodeId | None = None,
    sources: tuple[NodeId, ...] | None = None,
) -> Topology:
    """width x height unit lattice.  Node id = y * width + x.

    Nodes within radio_range are linked by id offset, a run of equally
    placed nodes at a time; a range linking too many node pairs is refused
    first (_grid_adjacency).  Positions share one float object per coordinate.
    At range 1 it records the width, so distances_from needs no BFS.

    A shape's positions, adjacency and connectivity verdict are built once
    per process (_lattice, a bounded LRU at ~160-170 B per node at range 1).
    Each call returns a new Topology with its own roles and memo, so hop
    distances and walk-step rows stay per Topology.

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
    positions, adjacency, lattice = _lattice(width, height, radio_range)
    topology = Topology(
        positions=positions,
        adjacency=adjacency,
        sink=0 if sink is None else sink,
        sources=(n - 1,) if sources is None else tuple(sources),
    )
    if lattice is not None:
        topology._memo["lattice"] = lattice
    if not 0 <= topology.sink < n:
        raise ValueError(f"sink: node {topology.sink} outside [0, {n})")
    for s in topology.sources:
        if not 0 <= s < n:
            raise ValueError(f"sources: node {s} outside [0, {n})")
    return topology
