import math
import re

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsnpriv import netsim
from wsnpriv.netsim import (
    DisconnectedGraphError,
    Topology,
    bfs_distances,
    build_grid,
    shortest_path,
    _grid_adjacency,
)
from wsnpriv.phantom import WalkConfig, random_walk
from wsnpriv.rng import SimRng

from random_fields import all_pairs_adjacency, linked_field, random_field


@pytest.fixture
def fresh_lattices():
    """An empty shape cache before and after a test that patches netsim's
    internals, so build_grid reruns its checks under the patch and no shape
    built under it outlives the test."""
    netsim._lattice.cache_clear()
    yield
    netsim._lattice.cache_clear()


def lattice_neighbors(width, height, x, y, radio_range):
    """Independent oracle: enumerate all lattice points within range."""
    out = set()
    for yy in range(height):
        for xx in range(width):
            if (xx, yy) == (x, y):
                continue
            if math.hypot(xx - x, yy - y) <= radio_range:
                out.add(yy * width + xx)
    return out


def test_singleton_grid():
    topo = build_grid(1, 1, 1.0, sink=0, sources=(0,))
    assert topo.node_count == 1
    assert set(topo.adjacency[0]) == set()


def test_grid_center_neighbors_match_lattice_oracle():
    topo = build_grid(3, 3, 1.0)
    assert set(topo.adjacency[4]) == lattice_neighbors(3, 3, 1, 1, 1.0)
    assert len(topo.adjacency[4]) == 4


def test_grid_corner_neighbors():
    topo = build_grid(3, 3, 1.0)
    assert set(topo.adjacency[0]) == lattice_neighbors(3, 3, 0, 0, 1.0)
    assert len(topo.adjacency[0]) == 2


def test_large_grid_degrees():
    topo = build_grid(50, 50, 1.0)
    assert topo.node_count == 2500
    for y in range(1, 49):
        for x in range(1, 49):
            assert len(topo.adjacency[y * 50 + x]) == 4


@pytest.mark.parametrize("width,height", [(1, 1), (3, 3), (5, 2), (10, 10)])
def test_grid_degree_set_matches_lattice_position(width, height):
    topo = build_grid(width, height, 1.0)
    for node in range(topo.node_count):
        x, y = node % width, node // width
        expected = sum(1 for d in (x > 0, x < width - 1, y > 0, y < height - 1) if d)
        assert len(topo.adjacency[node]) == expected


def test_adjacency_symmetric_and_irreflexive():
    for topo in (build_grid(7, 4), random_field(60, 8.0, 2.0, SimRng(3))):
        for a in range(topo.node_count):
            assert a not in topo.adjacency[a]
            for b in topo.adjacency[a]:
                assert a in topo.adjacency[b]


STENCIL_RANGES = [0.3, 0.5, 1.0, 1 + 1e-9, math.sqrt(2), 1.5, 2.5, 7.3, 1e18, 1e300, math.inf]


def test_grid_stencil_matches_all_pairs(monkeypatch):
    # Lattices wider and taller than 2 * reach + 1 (15 at range 7.3) have
    # nodes no padding reaches as well as edge nodes at every finite range
    # up to 7.3.  Both builders refuse exactly the fields the oracle's graph
    # leaves disconnected, and the cap's count is the entries they build:
    # a cap one below it refuses before any row is built.
    shapes = [(w, h, r) for w in range(1, 13) for h in range(1, 13) for r in STENCIL_RANGES]
    shapes += [(w, h, r) for w, h in ((17, 3), (3, 17), (16, 16), (20, 20))
               for r in STENCIL_RANGES if r <= 7.3]
    for width, height, radio_range in shapes:
        positions = [(float(x), float(y)) for y in range(height) for x in range(width)]
        expected = all_pairs_adjacency(positions, radio_range)
        links = sum(map(len, expected))
        graph = nx.Graph()
        graph.add_nodes_from(range(len(positions)))
        graph.add_edges_from((a, b) for a, nbrs in enumerate(expected) for b in nbrs)
        for build in (_grid_adjacency, lambda w, h, r: build_grid(w, h, r).adjacency):
            if nx.is_connected(graph):
                assert build(width, height, radio_range) == expected
            else:
                with pytest.raises(DisconnectedGraphError, match="^radio_range: field of "):
                    build(width, height, radio_range)
        if links:
            with monkeypatch.context() as patch:
                patch.setattr(netsim, "LINKS_MAX", links - 1)
                with pytest.raises(ValueError, match=f" needs {links} adjacency entries, "):
                    _grid_adjacency(width, height, radio_range)


def test_infinite_range_grid_is_complete():
    topo = build_grid(5, 5, radio_range=math.inf)
    assert topo.adjacency == tuple(
        tuple(j for j in range(25) if j != i) for i in range(25)
    )


@pytest.mark.parametrize("radio_range", [1.0, 2.5, 7.3])
def test_grid_rows_share_one_int_per_node(radio_range):
    # Identity lets list.index, `in` and dict lookups on walks skip __eq__.
    # At 7.3 padding shows on every row and column, so rows are filtered.
    topo = build_grid(30, 30, radio_range)
    first = {}
    for row in topo.adjacency:
        for j in row:
            assert first.setdefault(j, j) is j


def test_disconnected_grid_rejected():
    with pytest.raises(DisconnectedGraphError):
        build_grid(3, 3, 0.5)


def test_shortest_path_endpoints_and_length():
    topo = build_grid(4, 4)
    path = shortest_path(topo, 0, 15)
    assert path[0] == 0 and path[-1] == 15
    assert len(path) - 1 == bfs_distances(topo, 0)[15] == 6
    for a, b in zip(path, path[1:]):
        assert b in topo.adjacency[a]
    # A grid whose sink is not a corner and three seeded random fields, against
    # networkx: every hop is an edge to the lowest-id neighbour one hop nearer.
    fields = [build_grid(6, 5, sink=14)] + [
        random_field(40, 5.0, 1.6, SimRng(seed, "shortest-path")) for seed in (1, 2, 3)]
    for topo in fields:
        g = nx.Graph()
        g.add_nodes_from(range(topo.node_count))
        g.add_edges_from((a, b) for a, nbrs in enumerate(topo.adjacency) for b in nbrs)
        for destination in (topo.sink, topo.node_count // 2):
            hops_to = nx.single_source_shortest_path_length(g, destination)
            for origin in range(topo.node_count):
                path = shortest_path(topo, origin, destination)
                assert path[0] == origin and path[-1] == destination
                assert len(path) - 1 == nx.shortest_path_length(g, origin, destination)
                for a, b in zip(path, path[1:]):
                    assert g.has_edge(a, b)
                    assert b == min(v for v in g[a] if hops_to[v] == hops_to[a] - 1)
    # A hand-built field whose node 2 has no link has no hop distances, so
    # no path either, even from node 1, which reaches the destination.
    split = Topology(positions=((0.0, 0.0), (1.0, 0.0), (5.0, 0.0)),
                     adjacency=((1,), (0,), ()), sink=0, sources=())
    for origin in (1, 2):
        with pytest.raises(DisconnectedGraphError,
                           match="^adjacency: no path from node 0 to node 2$"):
            shortest_path(split, origin, 0)


def test_hop_distances_refuse_a_disconnected_field():
    # A path 0-1-2-3 beside a pair 4-5.  bfs_distances, the reference,
    # marks the pair unreached; distances_from refuses the field, and again
    # on the next call, as it keeps no failed list.
    field = linked_field([(1,), (0, 2), (1, 3), (2,), (5,), (4,)], 1, (0, 3))
    assert bfs_distances(field, 0) == [0, 1, 2, 3, -1, -1]
    for _ in range(2):
        with pytest.raises(DisconnectedGraphError,
                           match="^adjacency: no path from node 0 to node 4$"):
            field.distances_from(0)
    with pytest.raises(DisconnectedGraphError,
                       match="^adjacency: no path from node 4 to node 0$"):
        field.distances_from(4)


def test_topology_checks_its_roles_when_built():
    # A Topology built by hand refuses a role that is not a node id with
    # build_grid's own messages; a bad sink once failed as an IndexError
    # inside hunt or bfs_distances.
    line = dict(positions=((0.0, 0.0), (1.0, 0.0)), adjacency=((1,), (0,)))
    for sink, sources, message in ((2, (1,), "sink: node 2 outside [0, 2)"),
                                   (-1, (1,), "sink: node -1 outside [0, 2)"),
                                   (0, (1, 2), "sources: node 2 outside [0, 2)"),
                                   (0, (-1,), "sources: node -1 outside [0, 2)")):
        for build in (lambda: Topology(**line, sink=sink, sources=sources),
                      lambda: build_grid(2, 1, sink=sink, sources=sources)):
            with pytest.raises(ValueError) as refused:
                build()
            assert str(refused.value) == message
    assert Topology(**line, sink=1, sources=(0,)).sources == (0,)


@pytest.mark.parametrize("radio_range", [0.0, -1.0, float("nan"), 1e-10])
@pytest.mark.parametrize("build", [lambda r: build_grid(3, 3, r)], ids=["grid"])
def test_every_builder_rejects_a_bad_radio_range(build, radio_range):
    # build_grid is the one builder: a range whose square is positive (-1),
    # zero and NaN all fail with the field's name.
    with pytest.raises(ValueError, match=r"^radio_range: must be >= 1e-9$"):
        build(radio_range)


@pytest.mark.usefixtures("fresh_lattices")
@pytest.mark.parametrize("width,height,radio_range", [
    (9, 6, 1.5), (13, 4, 0.7), (1, 17, 2.5), (8, 8, 3.9), (7, 5, 1e300), (6, 6, math.inf),
])
def test_grid_cap_counts_the_spatial_hash_tests(monkeypatch, width, height, radio_range):
    # The cap counts the adjacency entries the stencil builds.  One below
    # that count refuses the range; at it, both builders give the oracle's
    # rows, or refuse a field with none (13x4 at 0.7) as disconnected.
    positions = [(float(x), float(y)) for y in range(height) for x in range(width)]
    expected = all_pairs_adjacency(positions, radio_range)
    links = sum(map(len, expected))
    builds = (_grid_adjacency, lambda w, h, r: build_grid(w, h, r).adjacency)
    monkeypatch.setattr(netsim, "LINKS_MAX", links - 1)
    message = re.escape(f"radio_range: {radio_range} needs {links} adjacency entries, "
                        f"over {links - 1}")
    for build in builds:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(width, height, radio_range)
    monkeypatch.setattr(netsim, "LINKS_MAX", links)
    for build in builds:
        if links:
            assert build(width, height, radio_range) == expected
        else:
            with pytest.raises(DisconnectedGraphError, match="^radio_range: field of 52 nodes "):
                build(width, height, radio_range)


def test_grid_refuses_a_complete_graph_without_the_hash():
    # 10^6 nodes in range of each other are refused from the stencil's
    # count, before any row or position is built.
    with pytest.raises(ValueError, match=r"^radio_range: 1e\+300 needs 999999000000 adjacency "
                                         r"entries, over 100000000$"):
        build_grid(1, 10**6, radio_range=1e300)


@pytest.mark.parametrize("width,height", [(1, 10**6), (10**6, 1)])
def test_grid_refuses_a_line_by_the_entries_it_would_build(width, height):
    # 2 * 66 * 10^6 - 66 * 67 entries, ~1.1 GB: each node links the 66 on
    # either side, less those past the ends.  Refused from the count alone.
    with pytest.raises(ValueError, match=r"^radio_range: 66 needs 131995578 adjacency entries, "
                                         r"over 100000000$"):
        build_grid(width, height, radio_range=66)


def test_simrng_determinism_and_stream_independence():
    a = SimRng(99, "walk")
    b = SimRng(99, "walk")
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]
    c = SimRng(99, "walk").stream("trial:17")
    d = SimRng(99, "walk")
    assert [c.random() for _ in range(20)] != [d.random() for _ in range(20)]


# --- derived tables: BFS memo, step table, table-driven draw ---

@given(
    seed=st.integers(0, 2**64),
    leaves=st.integers(1, 8),
    draws=st.integers(1, 12),
)
def test_table_draw_matches_random_choice(seed, leaves, draws):
    # A walk on a star draws from the hub's step table, then from a leaf's.
    # The leaf's one way back still consumes bits; the draw must consume them too.
    hub = leaves
    star = Topology(
        positions=tuple((math.cos(i), math.sin(i)) for i in range(leaves)) + ((0.0, 0.0),),
        adjacency=((hub,),) * leaves + (tuple(range(leaves)),),
        sink=hub,
        sources=(0,),
    )
    table_rng, choice_rng = SimRng(seed), SimRng(seed)
    for _ in range(draws):
        walk = random_walk(star, hub, WalkConfig(hops=2), table_rng)
        assert walk == [hub, choice_rng.choice(range(leaves)), choice_rng.choice((hub,))]
    assert table_rng.getstate() == choice_rng.getstate()


@pytest.mark.usefixtures("fresh_lattices")
def test_step_table_is_the_non_backtracking_rule():
    field = random_field(60, 10.0, 2.5, SimRng(4))
    # build_grid(1, 1) and (1, 4) have nodes of degree 0 and 1.
    for topo in (build_grid(5, 4), build_grid(4, 4, radio_range=1.5), field,
                 build_grid(1, 1), build_grid(1, 4)):
        assert topo.step_table() == [None] * topo.node_count  # nothing built yet
        for cur, nbrs in enumerate(topo.adjacency):
            out = topo.steps_from(cur)
            assert out is topo.step_table()[cur] is topo.steps_from(cur)
            # One record per edge out of cur, in adjacency order: a walk's
            # first step draws over them as over the adjacency.
            assert [record[0] for record in out] == list(nbrs)
            for record in out:
                nxt, k, slots, prev = record
                assert prev == cur and slots is None  # filled on first use
                slots = topo.step_slots(record)
                assert slots is record[2] is topo.step_slots(record)
                nxt_out = topo.steps_from(nxt)
                assert all(any(r is s for r in nxt_out) for s in slots if s is not None)
                candidates = tuple(s[0] for s in slots if s is not None)
                nxt_nbrs = topo.adjacency[nxt]
                assert candidates == (tuple(n for n in nxt_nbrs if n != cur) or nxt_nbrs)
                assert k == len(candidates).bit_length() and len(slots) == 2**k


def test_topology_memo_is_invisible_and_private():
    a, b = build_grid(8, 8), build_grid(8, 8)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    for o in range(a.node_count):
        assert a.distances_from(o) == bfs_distances(a, o)
        assert a.distances_from(o) is a.distances_from(o)
        assert -1 not in a.distances_from(o)  # every built field is connected
    a.step_slots(a.steps_from(0)[0])
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert len({a, b}) == 1
    # b filled nothing from a's memo: its distances are its own objects,
    # while the shape's step records are one table that both read.
    assert b.distances_from(9) == a.distances_from(9)
    assert b.distances_from(9) is not a.distances_from(9)
    assert b._memo is not a._memo
    assert b.step_table() is a.step_table() and b.steps_from(0) is a.steps_from(0)
    # A different field with the same node count gets its own distances.
    c = build_grid(8, 8, radio_range=1.5)
    assert c.distances_from(0) != a.distances_from(0)
    # Ranges 1.0 up to the float below sqrt(2) take the closed form |dx| +
    # |dy|, sqrt(2) (whose square rounds above 2), 1.5 and 2.0 the BFS; both
    # give bfs_distances, on thin, odd and non-square lattices too.
    below_sqrt2 = math.nextafter(math.sqrt(2), 0)
    for width, height in ((1, 1), (1, 9), (9, 1), (2, 3), (8, 8), (13, 17)):
        for radio_range in (1.0, 1.2, 1.41, below_sqrt2, math.sqrt(2), 1.5, 2.0):
            topo = build_grid(width, height, radio_range=radio_range)
            for o in range(topo.node_count):
                assert topo.distances_from(o) == bfs_distances(topo, o), (width, height, radio_range, o)


@pytest.mark.usefixtures("fresh_lattices")
def test_only_range_one_lattices_skip_the_bfs(monkeypatch):
    field = random_field(40, 5.0, 1.6, SimRng(5))

    def no_bfs(topology, origin):
        raise AssertionError("bfs_distances called")

    monkeypatch.setattr(netsim, "bfs_distances", no_bfs)
    lattice = build_grid(30, 30)
    for o in range(lattice.node_count):
        y, x = divmod(o, 30)
        assert lattice.distances_from(o)[-1] == (29 - x) + (29 - y)
    # Connectivity is a range rule, so no build runs a BFS; off range 1
    # distances_from still does.
    wide = build_grid(30, 30, radio_range=1.5)
    with pytest.raises(AssertionError, match="bfs_distances called"):
        wide.distances_from(0)
    with pytest.raises(AssertionError, match="bfs_distances called"):
        field.distances_from(1)


# --- one shape's tables, shared across build_grid calls ---

@pytest.mark.parametrize("radio_range", [1.0, 1.5])
def test_grids_of_one_shape_share_tables_but_not_their_memo(radio_range):
    a = build_grid(7, 5, radio_range, sink=0, sources=(34,))
    b = build_grid(7, 5, radio_range, sink=17, sources=(3, 30))
    assert a.positions is b.positions and a.adjacency is b.adjacency
    assert a._memo is not b._memo
    assert (a.sink, a.sources, b.sink, b.sources) == (0, (34,), 17, (3, 30))
    # Distances built on a are a's alone; step records built on a are b's too.
    out, dist = a.steps_from(10), a.distances_from(17)
    slots = a.step_slots(out[0])
    assert ("bfs", 17) not in b._memo
    assert b.step_table() is a.step_table() and b.step_table()[10] is out
    assert b.distances_from(17) == dist and b.distances_from(17) is not dist
    assert b.steps_from(10) is out and b.step_slots(b.steps_from(10)[0]) is slots
    assert netsim._lattice.cache_info().maxsize is not None  # a bounded LRU


def test_topologies_built_directly_keep_their_own_step_tables():
    grid = build_grid(4, 3)
    a = Topology(grid.positions, grid.adjacency, 0, (11,))
    b = Topology(grid.positions, grid.adjacency, 0, (11,))
    assert a == b
    assert a.step_table() is not b.step_table() and a.step_table() is not grid.step_table()
    out = a.steps_from(5)
    slots = a.step_slots(out[0])
    assert b.step_table()[5] is None
    assert b.step_slots(b.steps_from(5)[0]) == slots and b.steps_from(5)[0][2] is not slots
    assert b.steps_from(5) == out and b.steps_from(5) is not out


def test_grid_refusals_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(DisconnectedGraphError, match="^radio_range: field of 9 nodes"):
            build_grid(3, 3, 0.5)
        # 20,000 nodes all in range: 20,000 * 19,999 entries, over the cap.
        with pytest.raises(ValueError, match=r"^radio_range: 1e\+300 needs 399980000 adjacency "):
            build_grid(200, 100, radio_range=1e300)
