import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wsnpriv import netsim
from wsnpriv.netsim import (
    DisconnectedGraphError,
    PlacementError,
    bfs_distances,
    build_grid,
    build_random_geometric,
    draw,
    shortest_path,
    step_draw,
    _build_adjacency,
)
from wsnpriv.rng import SimRng


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
    for topo in (build_grid(7, 4), build_random_geometric(60, 8.0, 2.0, SimRng(3))):
        for a in range(topo.node_count):
            assert a not in topo.adjacency[a]
            for b in topo.adjacency[a]:
                assert a in topo.adjacency[b]


def all_pairs_adjacency(positions, radio_range):
    """Independent oracle: test every node pair with the builder's expression."""
    r2 = radio_range * radio_range
    return tuple(
        tuple(j for j, (xj, yj) in enumerate(positions)
              if j != i and (xi - xj) ** 2 + (yi - yj) ** 2 <= r2)
        for i, (xi, yi) in enumerate(positions)
    )


RANGES = [0.5, 1.0, math.sqrt(2), 1.5, 2.0, 3.3]


@pytest.mark.parametrize("radio_range", RANGES)
@pytest.mark.parametrize("width,height", [(1, 1), (1, 7), (7, 3), (20, 20)])
def test_adjacency_matches_all_pairs_oracle_on_lattices(width, height, radio_range):
    positions = [(float(x), float(y)) for y in range(height) for x in range(width)]
    assert _build_adjacency(positions, radio_range) == all_pairs_adjacency(positions, radio_range)


@st.composite
def fields(draw):
    radio_range = draw(st.sampled_from(RANGES))
    on_boundary = st.integers(-8, 8).map(lambda k: k * radio_range)  # a multiple of r
    coord = st.one_of(on_boundary, st.floats(-10, 10))
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    coincident = draw(st.lists(st.sampled_from(points), max_size=5))
    return points + coincident, radio_range


@given(fields())
@example(([(0.5, 0.0), (-2e-85, 0.0)], 0.5))  # two cells apart, yet 0.5 + 2e-85 rounds to 0.5
def test_adjacency_matches_all_pairs_oracle_on_random_fields(field):
    positions, radio_range = field
    assert _build_adjacency(positions, radio_range) == all_pairs_adjacency(positions, radio_range)


def test_disconnected_grid_rejected():
    with pytest.raises(DisconnectedGraphError):
        build_grid(3, 3, 0.5)


def test_random_geometric_singleton():
    topo = build_random_geometric(1, 10.0, 1.0, SimRng(1), sink=0, sources=(0,))
    assert topo.node_count == 1


def test_random_geometric_edges_within_range():
    topo = build_random_geometric(100, 10.0, 2.0, SimRng(7))
    # Oracle: recheck every pair against raw Euclidean distance.
    for a in range(topo.node_count):
        for b in range(a + 1, topo.node_count):
            within = topo.distance(a, b) <= 2.0
            assert (b in topo.adjacency[a]) == within
    assert all(d >= 0 for d in bfs_distances(topo, 0))


def test_random_geometric_deterministic():
    t1 = build_random_geometric(50, 8.0, 2.0, SimRng(11))
    t2 = build_random_geometric(50, 8.0, 2.0, SimRng(11))
    assert t1 == t2


def test_random_geometric_placement_failure():
    with pytest.raises(PlacementError):
        build_random_geometric(30, 100.0, 0.1, SimRng(1), max_attempts=5)


def test_shortest_path_endpoints_and_length():
    topo = build_grid(4, 4)
    path = shortest_path(topo, 0, 15)
    assert path[0] == 0 and path[-1] == 15
    assert len(path) - 1 == bfs_distances(topo, 0)[15] == 6
    for a, b in zip(path, path[1:]):
        assert b in topo.adjacency[a]


@pytest.mark.parametrize("radio_range", [0.0, -1.0, float("nan"), 1e-10])
@pytest.mark.parametrize("build", [
    lambda r: build_grid(3, 3, r),
    lambda r: build_random_geometric(5, 2.0, r, SimRng(1)),
], ids=["grid", "random_geometric"])
def test_every_builder_rejects_a_bad_radio_range(build, radio_range):
    # One check in _finish covers both builders: a range whose square is
    # positive (-1), zero and NaN all fail with the field's name.
    with pytest.raises(ValueError, match=r"^radio_range: must be >= 1e-9$"):
        build(radio_range)


def test_pair_test_cap_counts_every_tested_pair(monkeypatch):
    # The spatial hash tests each pair of nodes whose cells differ by at most
    # one in both axes, once.
    positions = [(x * 0.7, y * 0.4) for y in range(9) for x in range(6)]
    cell = 1.5 * (1 + 1e-9)
    cells = [(int(x // cell), int(y // cell)) for x, y in positions]
    tested = sum(abs(ax - bx) <= 1 and abs(ay - by) <= 1
                 for i, (ax, ay) in enumerate(cells) for bx, by in cells[i + 1:])
    monkeypatch.setattr(netsim, "PAIR_TESTS_MAX", tested)
    _build_adjacency(positions, 1.5)
    monkeypatch.setattr(netsim, "PAIR_TESTS_MAX", tested - 1)
    with pytest.raises(ValueError, match=f"^radio_range: 1.5 needs over {tested - 1} "):
        _build_adjacency(positions, 1.5)


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
    candidates=st.lists(st.integers(0, 10**6), min_size=1, max_size=8).map(tuple),
    draws=st.integers(1, 12),
)
def test_table_draw_matches_random_choice(seed, candidates, draws):
    # One candidate still consumes bits; the draw must consume them too.
    table_rng, choice_rng = SimRng(seed), SimRng(seed)
    step = step_draw(candidates)
    for _ in range(draws):
        assert draw(table_rng.getrandbits, step) == choice_rng.choice(candidates)
    assert table_rng.getstate() == choice_rng.getstate()


def test_step_table_is_the_non_backtracking_rule():
    field = build_random_geometric(60, 10.0, 2.5, SimRng(4))
    for topo in (build_grid(5, 4), build_grid(4, 4, radio_range=1.5), field):
        assert topo.step_table() == [None] * topo.node_count  # nothing built yet
        for cur, nbrs in enumerate(topo.adjacency):
            row = topo.step_row(cur)
            assert row is topo.step_table()[cur] is topo.step_row(cur)
            assert set(row) == {None, *nbrs}
            for prev, (k, slots) in row.items():
                candidates = tuple(n for n in slots if n is not None)
                assert candidates == (tuple(n for n in nbrs if n != prev) or nbrs)
                assert k == len(candidates).bit_length() and len(slots) == 2**k


def test_topology_memo_is_invisible_and_private():
    a, b = build_grid(8, 8), build_grid(8, 8)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    for o in range(a.node_count):
        assert a.distances_from(o) == bfs_distances(a, o)
        assert a.distances_from(o) is a.distances_from(o)
        assert -1 not in a.distances_from(o)  # every built field is connected
    a.step_row(0)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert len({a, b}) == 1
    # b filled nothing from a's memo: its tables are its own objects.
    assert b.distances_from(9) == a.distances_from(9)
    assert b.distances_from(9) is not a.distances_from(9)
    assert b.step_table() is not a.step_table()
    assert b.step_row(0) == a.step_row(0) and b.step_row(0) is not a.step_row(0)
    # A different field with the same node count gets its own distances.
    c = build_grid(8, 8, radio_range=1.5)
    for o in range(c.node_count):
        assert c.distances_from(o) == bfs_distances(c, o)
    assert c.distances_from(0) != a.distances_from(0)
