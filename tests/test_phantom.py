import math

import networkx as nx
import pytest

from wsnpriv.netsim import build_grid, build_random_geometric
from wsnpriv.phantom import (
    FloodOnly,
    NoRendezvousError,
    Phantom,
    TwoWay,
    WalkConfig,
    WalkMode,
    binom,
    build_receptor,
    deliver_two_way,
    flood,
    hunt,
    min_zone_nodes,
    random_walk,
    route_message,
    traceback_probability,
)
from wsnpriv.rng import SimRng


def to_networkx(topo):
    g = nx.Graph()
    g.add_nodes_from(range(topo.node_count))
    for a in range(topo.node_count):
        for b in topo.adjacency[a]:
            g.add_edge(a, b)
    return g


# --- random walk ---

def test_walk_zero_hops():
    topo = build_grid(3, 3)
    assert random_walk(topo, 4, WalkConfig(hops=0), SimRng(1)) == [4]


def test_walk_structure_many_seeds():
    topo = build_grid(5, 5)
    for seed in range(50):
        path = random_walk(topo, 12, WalkConfig(hops=3), SimRng(seed))
        assert len(path) == 4
        assert path[0] == 12
        for a, b in zip(path, path[1:]):
            assert b in topo.adjacency[a]


def test_pure_walk_avoids_immediate_backtrack():
    topo = build_grid(5, 5)
    for seed in range(30):
        path = random_walk(topo, 12, WalkConfig(hops=8), SimRng(seed))
        for i in range(2, len(path)):
            assert path[i] != path[i - 2] or len(topo.adjacency[path[i - 1]]) == 1


def test_directed_walk_monotone_on_line():
    # A single direction choice per hop forces monotone progress on a line.
    topo = build_grid(20, 1, sink=19, sources=(0,))
    for seed in range(20):
        h = 7
        path = random_walk(topo, 0, WalkConfig(WalkMode.DIRECTED, h), SimRng(seed))
        assert path == list(range(h + 1))


def choice_walk(topo, source, hops, rng):
    """Reference pure walk drawing with rng.choice."""
    path, prev = [source], None
    for _ in range(hops):
        nbrs = topo.adjacency[path[-1]]
        nxt = rng.choice([n for n in nbrs if n != prev] or list(nbrs))
        prev = path[-1]
        path.append(nxt)
    return path


def choice_two_way(topo, source, receptor, rng):
    """Reference two-way route drawing with rng.choice."""
    nodes = list(receptor.nodes)
    route, prev = [source], None
    while route[-1] not in nodes:
        nbrs = topo.adjacency[route[-1]]
        nxt = rng.choice([n for n in nbrs if n != prev] or list(nbrs))
        prev = route[-1]
        route.append(nxt)
    return route + nodes[nodes.index(route[-1]) + 1:]


def test_table_walks_match_choice_reference():
    # Same route and same stream state after it, on grids of degree 1-4 and
    # a random geometric field of higher degree.
    fields = (build_grid(9, 1), build_grid(7, 7),
              build_random_geometric(50, 10.0, 3.0, SimRng(8)))
    for topo in fields:
        rec = build_receptor(topo, topo.sink, 4, SimRng(1))
        for seed in range(25):
            source = seed % topo.node_count
            a, b = SimRng(seed, "walk"), SimRng(seed, "walk")
            walk = random_walk(topo, source, WalkConfig(hops=12), a)
            assert walk == choice_walk(topo, source, 12, b)
            assert deliver_two_way(topo, source, rec, a) == choice_two_way(topo, source, rec, b)
            assert a.getstate() == b.getstate()


# --- flood ---

def test_flood_origin_is_destination():
    topo = build_grid(3, 3)
    res = flood(topo, 4, 4)
    assert res.delivered and res.latency_hops == 0


def test_flood_corner_to_corner():
    topo = build_grid(3, 3)
    res = flood(topo, 0, 8)
    assert res.delivered
    assert res.latency_hops == 4
    assert res.transmissions <= 9


def test_flood_matches_bfs_oracle():
    topo = build_grid(6, 5)
    g = to_networkx(topo)
    for origin, dest in [(0, 29), (7, 3), (12, 12)]:
        res = flood(topo, origin, dest)
        assert res.latency_hops == nx.shortest_path_length(g, origin, dest)
        # Whole-component flood: everyone except the destination forwards once.
        senders = [t.sender for t in res.log(topo, "msg")]
        assert len(senders) == len(set(senders)) == res.transmissions
        assert res.transmissions == topo.node_count - 1
        assert dest not in senders
        # Each node's transmission tick equals its hop distance from origin.
        for t in res.log(topo, "msg"):
            assert t.tick == nx.shortest_path_length(g, origin, t.sender)


# --- receptor / two-way ---

def test_receptor_zero_length():
    topo = build_grid(3, 3)
    rec = build_receptor(topo, 0, 0, SimRng(5))
    assert rec.nodes == (0,)


def test_receptor_structure():
    topo = build_grid(10, 10)
    rec = build_receptor(topo, 0, 6, SimRng(2))
    assert len(rec.nodes) <= 7
    assert len(set(rec.nodes)) == len(rec.nodes)
    assert rec.destination == 0
    for a, b in zip(rec.nodes, rec.nodes[1:]):
        assert b in topo.adjacency[a]


def test_receptor_deterministic():
    topo = build_grid(10, 10)
    assert build_receptor(topo, 0, 6, SimRng(2)) == build_receptor(topo, 0, 6, SimRng(2))


def test_two_way_source_on_receptor():
    topo = build_grid(5, 5)
    rec = build_receptor(topo, 0, 4, SimRng(1))
    mid = rec.nodes[1]
    route = deliver_two_way(topo, mid, rec, SimRng(9))
    assert route == list(rec.nodes[1:])


def test_two_way_route_structure():
    topo = build_grid(10, 10)
    rec = build_receptor(topo, 0, 8, SimRng(3))
    for seed in range(40):
        route = deliver_two_way(topo, 99, rec, SimRng(seed))
        assert route[0] == 99 and route[-1] == 0
        for a, b in zip(route, route[1:]):
            assert b in topo.adjacency[a]


def test_two_way_rendezvous_rate():
    topo = build_grid(20, 20)
    rec = build_receptor(topo, 0, 10, SimRng(4))
    hits = 0
    trials = 1000
    for seed in range(trials):
        try:
            deliver_two_way(topo, 399, rec, SimRng(seed), max_steps=10_000)
            hits += 1
        except NoRendezvousError:
            pass
    assert hits / trials > 0.99


def test_two_way_no_rendezvous_error():
    topo = build_grid(10, 10)
    rec = build_receptor(topo, 0, 2, SimRng(1))
    with pytest.raises(NoRendezvousError):
        deliver_two_way(topo, 99, rec, SimRng(0), max_steps=1)


# --- per-node ticks ---

def reference_ticks(g, strategy, walk, destination):
    """Tick map as a whole-field router builds it, from the walk it drew."""
    ticks = {}
    if isinstance(strategy, TwoWay):
        for i, node in enumerate(walk[:-1]):  # the destination never forwards
            ticks.setdefault(node, i)
        return ticks
    h = len(walk) - 1
    for node, d in nx.single_source_shortest_path_length(g, walk[-1]).items():
        if node != destination:
            ticks[node] = h + d
    for i in range(h):
        if walk[i] not in ticks or i < ticks[walk[i]]:
            ticks[walk[i]] = i
    return ticks


def test_tick_matches_full_tick_map():
    field = build_random_geometric(40, 8.0, 2.5, SimRng(6))
    strategies = (FloodOnly(), Phantom(WalkConfig(hops=5)),
                  Phantom(WalkConfig(WalkMode.DIRECTED, 3)), TwoWay(4))
    for topo in (build_grid(6, 5), build_grid(7, 7, sink=24), field):
        g = to_networkx(topo)
        rec = build_receptor(topo, topo.sink, 4, SimRng(2))
        for strategy in strategies:
            for seed in range(8):
                source = (7 * seed + 3) % topo.node_count
                a, b = SimRng(seed, "walk"), SimRng(seed, "walk")
                sched = route_message(topo, source, topo.sink, strategy, a, rec)
                if isinstance(strategy, TwoWay):
                    walk = deliver_two_way(topo, source, rec, b)
                elif isinstance(strategy, Phantom):
                    walk = random_walk(topo, source, strategy.walk, b)
                else:
                    walk = [source]
                expected = reference_ticks(g, strategy, walk, topo.sink)
                assert sched.ticks == expected
                assert [sched.tick(u) for u in range(topo.node_count)] == [
                    expected.get(u) for u in range(topo.node_count)
                ]


def test_destination_ticks_only_when_the_walk_passes_it():
    topo = build_grid(4, 4)
    strategy = Phantom(WalkConfig(hops=6))
    passed = 0
    for seed in range(40):
        sched = route_message(topo, 1, 0, strategy, SimRng(seed), None)
        walk = random_walk(topo, 1, strategy.walk, SimRng(seed))
        expected = walk.index(0) if 0 in walk[:-1] else None
        assert sched.tick(0) == sched.ticks.get(0) == expected
        passed += expected is not None
    assert passed  # some walks step through the destination
    assert flood(topo, 1, 0).tick(0) is None


# --- hunt ---

def test_hunt_adjacent_adversary_captured_immediately():
    topo = build_grid(1, 2, sink=1, sources=(0,))
    report = hunt(topo, FloodOnly(), 5, SimRng(7))
    assert report.captured
    assert report.safety_period == 1


def test_hunt_uncaptured_contract():
    # Budget far below the hop distance: the hunter cannot arrive in time.
    topo = build_grid(10, 10)
    report = hunt(topo, FloodOnly(), 3, SimRng(1))
    assert not report.captured
    assert report.safety_period == 3


def test_hunt_flood_capture_takes_distance_messages():
    # Patient hunter moves one hop toward the source per flooded message.
    topo = build_grid(6, 6)
    report = hunt(topo, FloodOnly(), 50, SimRng(1))
    assert report.captured
    assert report.safety_period == 10  # corner-to-corner hop distance


def test_hunt_adversary_soundness_against_log():
    topo = build_grid(8, 8)
    for strategy in (FloodOnly(), Phantom(WalkConfig(hops=4)), TwoWay(5)):
        report = hunt(topo, strategy, 30, SimRng(3), record_log=True)
        position = topo.sink
        by_msg = {}
        for t in report.log:
            by_msg.setdefault(t.payload_id, []).append(t)
        for msg, frm, to in report.adversary_moves:
            assert frm == position
            heard = [
                t for t in by_msg[f"msg:{msg}"] if position in t.hearers
            ]
            assert any(t.sender == to for t in heard)
            # Earliest-heard rule: (tick, sender) minimal among heard.
            best = min((t.tick, t.sender) for t in heard)
            assert best[1] == to
            position = to


def test_energy_and_latency_properties():
    # Same endpoints: phantom costs at most h extra transmissions and never
    # beats the direct flood on latency.
    topo = build_grid(12, 12)
    h = 6
    for seed in range(25):
        base = hunt(topo, FloodOnly(), 1, SimRng(seed))
        ph = hunt(topo, Phantom(WalkConfig(hops=h)), 1, SimRng(seed))
        assert ph.transmissions_total <= base.transmissions_total + h
        assert ph.delivery_latency_hops[0] >= base.delivery_latency_hops[0]


# --- zone math ---

def factorial_binom(n, h):
    return math.factorial(n) // (math.factorial(h) * math.factorial(n - h))


def test_binom_against_factorial_oracle():
    assert binom(10, 3) == factorial_binom(10, 3) == 120
    for n in range(0, 20):
        for h in range(0, n + 1):
            assert binom(n, h) == factorial_binom(n, h)


def test_binom_edges_and_domain():
    assert binom(17, 0) == 1
    assert binom(17, 17) == 1
    with pytest.raises(ValueError):
        binom(3, 4)
    with pytest.raises(ValueError):
        binom(-1, 0)


def brute_min_zone(p_r, hops):
    n = hops
    while factorial_binom(n, hops) <= 1.0 / p_r:
        n += 1
    return n


def test_min_zone_nodes_reference_instances():
    plan = min_zone_nodes(0.01, 3)
    assert plan.n_min == 10 and plan.k == 120
    # A quoted "approximately 8" for four hops fails its own inequality:
    # C(8,4) = 70 <= 100 < C(9,4) = 126, so the exact minimum is 9.
    assert binom(8, 4) == 70 and binom(9, 4) == 126
    plan4 = min_zone_nodes(0.01, 4)
    assert plan4.n_min == 9


@pytest.mark.parametrize("p_r", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("hops", range(1, 9))
def test_min_zone_nodes_matches_brute_scan(p_r, hops):
    plan = min_zone_nodes(p_r, hops)
    assert plan.n_min == brute_min_zone(p_r, hops)
    assert binom(plan.n_min, hops) > 1.0 / p_r
    if plan.n_min > hops:
        assert binom(plan.n_min - 1, hops) <= 1.0 / p_r


def test_min_zone_trivial_boundary():
    for hops in range(1, 6):
        assert min_zone_nodes(1.0, hops).n_min == hops + 1


def test_traceback_probability():
    assert traceback_probability(10, 3) == pytest.approx(1 / 120)
    assert traceback_probability(5, 5) == 1.0
    probs = [traceback_probability(n, 3) for n in range(3, 30)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
