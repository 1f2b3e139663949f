import dataclasses
import math
import time
from collections import Counter

import networkx as nx
import pytest

from wsnpriv import phantom
from wsnpriv.netsim import DisconnectedGraphError, build_grid
from wsnpriv.phantom import (
    HuntReport,
    NoRendezvousError,
    ReceptorPath,
    TwoWay,
    WalkConfig,
    WalkMode,
    build_receptor,
    deliver_two_way,
    flood,
    hunt,
    min_zone_nodes,
    random_walk,
    route_message,
)
from wsnpriv.rng import SimRng

from random_fields import linked_field, random_field


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


@pytest.mark.parametrize("mode", list(WalkMode), ids=lambda m: m.value)
def test_walk_from_a_node_without_neighbours_stays_and_draws_nothing(mode):
    rng = SimRng(3, "lone-node")
    state = rng.getstate()
    assert random_walk(build_grid(1, 1), 0, WalkConfig(mode, 3), rng) == [0]
    assert rng.getstate() == state


def test_walk_first_step_draws_as_choice_over_the_adjacency():
    # A one-node route's first step has no prev: it draws from the whole
    # adjacency, consuming the stream as Random.choice does, at degrees 1-8.
    fields = (build_grid(1, 4), build_grid(5, 4), build_grid(5, 4, radio_range=1.5),
              random_field(60, 10.0, 2.5, SimRng(4)))
    degrees = set()
    for topo in fields:
        for cur, nbrs in enumerate(topo.adjacency):
            degrees.add(len(nbrs))
            for seed in range(8):
                a, b = SimRng(seed, "first-step"), SimRng(seed, "first-step")
                route = [cur]
                assert phantom._walk(topo, route, 1, (), a) is False
                assert route == [cur, b.choice(nbrs)]
                assert a.getstate() == b.getstate()
                # A first step into `stop` ends the walk there.
                route = [cur]
                assert phantom._walk(topo, route, 5, set(nbrs), a) is True
                assert route == [cur, b.choice(nbrs)]
                # A 0-step walk draws nothing.
                state = a.getstate()
                assert phantom._walk(topo, [cur], 0, (), a) is False
                assert a.getstate() == b.getstate() == state
    assert degrees >= set(range(1, 9))


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


def choice_walk(topo, source, hops, rng, directed=False):
    """Reference walk drawing with rng.choice: a directed step picks from the
    neighbours farther from the source, when there are any, else as pure."""
    sx, sy = topo.positions[source]

    def away(n):
        x, y = topo.positions[n]
        return math.hypot(x - sx, y - sy)

    path, prev = [source], None
    for _ in range(hops):
        nbrs = topo.adjacency[path[-1]]
        d = away(path[-1])
        farther = [n for n in nbrs if away(n) > d] if directed else []
        nxt = rng.choice(farther or [n for n in nbrs if n != prev] or list(nbrs))
        prev = path[-1]
        path.append(nxt)
    return path


def choice_two_way(topo, source, receptor, rng, max_steps=None):
    """Reference two-way route drawing with rng.choice; None once it has
    walked max_steps steps without meeting the receptor."""
    nodes = list(receptor.nodes)
    route, prev = [source], None
    while route[-1] not in nodes:
        if len(route) - 1 == max_steps:
            return None
        nbrs = topo.adjacency[route[-1]]
        nxt = rng.choice([n for n in nbrs if n != prev] or list(nbrs))
        prev = route[-1]
        route.append(nxt)
    return route + nodes[nodes.index(route[-1]) + 1:]


def test_table_walks_match_choice_reference():
    # Same route and same stream state after it, on grids of degree 1-4 and
    # a random geometric field of higher degree.
    fields = (build_grid(9, 1), build_grid(7, 7),
              random_field(50, 10.0, 3.0, SimRng(8)))
    for topo in fields:
        rec = build_receptor(topo, topo.sink, 4, SimRng(1))
        for seed in range(25):
            source = seed % topo.node_count
            a, b = SimRng(seed, "walk"), SimRng(seed, "walk")
            walk = random_walk(topo, source, WalkConfig(hops=12), a)
            assert walk == choice_walk(topo, source, 12, b)
            # A directed walk falls back to the pure rule where no neighbour is farther.
            walk = random_walk(topo, source, WalkConfig(WalkMode.DIRECTED, 12), a)
            assert walk == choice_walk(topo, source, 12, b, directed=True)
            assert deliver_two_way(topo, source, rec, a) == choice_two_way(topo, source, rec, b)
            assert a.getstate() == b.getstate()


# --- flood ---

def test_flood_origin_is_destination():
    topo = build_grid(3, 3)
    res = flood(topo, 4, 4)
    assert res.latency_hops == 0


def test_flood_corner_to_corner():
    topo = build_grid(3, 3)
    res = flood(topo, 0, 8)
    assert res.latency_hops == 4
    assert res.transmissions <= 9


def test_flood_matches_bfs_oracle():
    topo = build_grid(6, 5)
    g = to_networkx(topo)
    for origin, dest in [(0, 29), (7, 3), (12, 12)]:
        res = flood(topo, origin, dest)
        assert res.latency_hops == nx.shortest_path_length(g, origin, dest)
        # Whole-component flood: everyone except the destination forwards once.
        ticks = [res.first_heard((u,)) for u in range(topo.node_count)]
        senders = [u for u in range(topo.node_count) if ticks[u] is not None]
        assert len(senders) == res.transmissions == topo.node_count - 1
        assert dest not in senders
        # Each node's transmission tick equals its hop distance from origin.
        for u in senders:
            assert ticks[u] == (nx.shortest_path_length(g, origin, u), u)


def test_routing_refuses_a_disconnected_field():
    # Links 0-1 and 2-3, sink 0, source 3: no hop count joins the source to
    # the sink, so a flood has no latency and the hunter no transmitter to
    # move to, and both refuse the field.
    field = linked_field([(1,), (0,), (3,), (2,)], 0, (3,))
    with pytest.raises(DisconnectedGraphError, match="^adjacency: "):
        flood(field, 3, 0)
    with pytest.raises(DisconnectedGraphError, match="^adjacency: "):
        hunt(field, WalkConfig(), 5, SimRng(1))


@pytest.mark.parametrize("adjacency", [[(1,), (0, 2), (1,), ()], [(1,), (0,), (3,), (2,)]],
                         ids=["isolated_source", "two_components"])
def test_two_way_routing_refuses_a_disconnected_field(adjacency):
    # Sink 0, source 3.  The isolated source's walk has no first step (once
    # an IndexError); beside 0-1, the walk on 2-3 never meets the receptor,
    # so a hunt once reported every message lost and none caught.  Each
    # route now asks distances_from first: given no rng at all, it draws
    # nothing before it refuses.
    field = linked_field(adjacency, 0, (3,))
    receptor = build_receptor(field, 0, 2, SimRng(1))
    message = "^adjacency: no path from node 3 to node 0$"
    with pytest.raises(DisconnectedGraphError, match=message):
        hunt(field, TwoWay(2), 5, SimRng(1))
    with pytest.raises(DisconnectedGraphError, match=message):
        route_message(field, 3, 0, receptor, None)
    with pytest.raises(DisconnectedGraphError, match=message):
        deliver_two_way(field, 3, receptor, None)


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
    assert rec.nodes[-1] == 0
    for a, b in zip(rec.nodes, rec.nodes[1:]):
        assert b in topo.adjacency[a]


def test_receptor_deterministic():
    topo = build_grid(10, 10)
    assert build_receptor(topo, 0, 6, SimRng(2)) == build_receptor(topo, 0, 6, SimRng(2))


@pytest.mark.parametrize("length", [0, 1, 6, 30])
def test_two_way_receptor_ends_at_the_sink_from_the_receptor_stream(length):
    topo = build_grid(8, 8, sink=27, sources=(63,))
    rng = SimRng(11, "trial")
    expected = build_receptor(topo, topo.sink, length, rng.stream("receptor"))
    assert TwoWay(length).receptor(topo, rng) == expected
    assert expected.nodes[-1] == 27


def test_two_way_refuses_a_negative_length():
    with pytest.raises(ValueError, match="^receptor_length: must be >= 0$"):
        TwoWay(-1)


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


@pytest.mark.parametrize("max_steps", [1, 7, 50])
def test_lost_message_leaves_the_stream_where_choice_does(max_steps):
    # A walk that runs out of steps has drawn exactly max_steps choice() steps.
    topo = build_grid(10, 10)
    rec = build_receptor(topo, 0, 2, SimRng(1))
    lost = 0
    for seed in range(20):
        a, b = SimRng(seed, "walk"), SimRng(seed, "walk")
        expected = choice_two_way(topo, 99, rec, b, max_steps)
        if expected is None:
            lost += 1
            with pytest.raises(NoRendezvousError):
                deliver_two_way(topo, 99, rec, a, max_steps=max_steps)
        else:
            assert deliver_two_way(topo, 99, rec, a, max_steps=max_steps) == expected
        assert a.getstate() == b.getstate()
    assert lost


def test_hunt_draws_the_message_after_a_lost_one_from_where_it_stopped(monkeypatch):
    # With a 9-step walk budget some messages are lost; each next message's
    # walk must start where the lost walk left the "walk" stream.
    real = phantom.deliver_two_way
    monkeypatch.setattr(phantom, "deliver_two_way",
                        lambda *args, **kwargs: real(*args, max_steps=9, **kwargs))
    topo = build_grid(6, 6)
    lost = delivered = 0
    for seed in range(6):
        report = hunt(topo, TwoWay(3), 40, SimRng(seed))
        rng = SimRng(seed)
        rec = build_receptor(topo, topo.sink, 3, rng.stream("receptor"))
        walk_rng = rng.stream("walk")
        for latency in report.delivery_latency_hops:
            route = choice_two_way(topo, topo.sources[0], rec, walk_rng, 9)
            assert latency == (-1 if route is None else len(route) - 1)
            lost += route is None
            delivered += route is not None
    assert lost and delivered


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a lost two-way message's walk broadcast at every hop, but hunt adds none of "
    "it to transmissions_total; counting it changes the hunt output digests, so "
    "it waits for a change that re-pins them"))
def test_hunt_counts_the_walks_of_lost_messages(monkeypatch):
    # Capped at 9 steps as in the test above, so that some messages are lost.
    real = phantom.deliver_two_way
    monkeypatch.setattr(phantom, "deliver_two_way",
                        lambda *args, **kwargs: real(*args, max_steps=9, **kwargs))
    report = hunt(build_grid(6, 6), TwoWay(3), 40, SimRng(0))
    latencies = report.delivery_latency_hops
    lost = latencies.count(-1)
    if not 0 < lost < len(latencies):
        pytest.fail(f"expected lost and delivered messages, got {lost} of {len(latencies)} lost")
    assert report.transmissions_total == sum(h for h in latencies if h >= 0) + 9 * lost


# --- per-node ticks ---

def reference_ticks(g, strategy, walk, destination):
    """Tick map as a whole-field router builds it, from the walk it drew."""
    ticks = {}
    if isinstance(strategy, ReceptorPath):
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
    field = random_field(40, 8.0, 2.5, SimRng(6))
    strategies = (WalkConfig(), WalkConfig(hops=5),
                  WalkConfig(WalkMode.DIRECTED, 3))
    for topo in (build_grid(6, 5), build_grid(7, 7, sink=24), field):
        g = to_networkx(topo)
        rec = build_receptor(topo, topo.sink, 4, SimRng(2))
        for strategy in (*strategies, rec):
            for seed in range(8):
                source = (7 * seed + 3) % topo.node_count
                a, b = SimRng(seed, "walk"), SimRng(seed, "walk")
                sched = route_message(topo, source, topo.sink, strategy, a)
                if isinstance(strategy, ReceptorPath):
                    walk = deliver_two_way(topo, source, rec, b)
                else:
                    walk = random_walk(topo, source, strategy, b)
                expected = reference_ticks(g, strategy, walk, topo.sink)
                assert [sched.first_heard((u,)) for u in range(topo.node_count)] == [
                    (expected[u], u) if u in expected else None
                    for u in range(topo.node_count)
                ]
                # The hunter's move from every node: the earliest heard neighbour.
                for nodes in (*topo.adjacency, (), range(topo.node_count)):
                    heard = [(expected[v], v) for v in nodes if v in expected]
                    assert sched.first_heard(nodes) == (min(heard) if heard else None)


def test_destination_ticks_only_when_the_walk_passes_it():
    topo = build_grid(4, 4)
    strategy = WalkConfig(hops=6)
    passed = 0
    for seed in range(40):
        sched = route_message(topo, 1, 0, strategy, SimRng(seed))
        walk = random_walk(topo, 1, strategy, SimRng(seed))
        expected = (walk.index(0), 0) if 0 in walk[:-1] else None
        assert sched.first_heard((0,)) == expected
        passed += expected is not None
    assert passed  # some walks step through the destination
    assert flood(topo, 1, 0).first_heard((0,)) is None


def test_flood_bfs_waits_for_the_first_tick():
    # run_pipeline reads only latency and cost: no BFS from the walk's end.
    for topo in (build_grid(7, 7, sink=24), random_field(40, 8.0, 2.5, SimRng(6))):
        g = to_networkx(topo)
        lazy = 0
        for strategy in (WalkConfig(), WalkConfig(hops=5),
                         WalkConfig(WalkMode.DIRECTED, 3)):
            for seed in range(8):
                source = (7 * seed + 3) % topo.node_count
                sched = route_message(topo, source, topo.sink, strategy, SimRng(seed, "walk"))
                end = sched.flood_origin
                walk = random_walk(topo, source, strategy, SimRng(seed, "walk"))
                assert end == walk[-1] and sched.walk == walk[:-1]
                hops = nx.shortest_path_length(g, end, topo.sink)
                assert sched.latency_hops == len(walk) - 1 + hops
                if ("bfs", end) not in topo._memo:
                    lazy += 1
                    # The destination needs no flood distance.
                    on_walk = topo.sink in sched.walk
                    assert sched.first_heard((topo.sink,)) == (
                        (sched.walk.index(topo.sink), topo.sink) if on_walk else None)
                    if sched.walk:  # nor does a walk node
                        assert sched.first_heard([topo.sink, *sched.walk]) == (0, source)
                    assert ("bfs", end) not in topo._memo
                    off_walk = next(u for u in range(topo.node_count)
                                    if u not in sched.walk and u != topo.sink)
                    sched.first_heard((off_walk,))
                    assert ("bfs", end) in topo._memo
        assert lazy  # some walk ends had no BFS before their first tick


# --- hunt ---

def test_hunt_adjacent_adversary_captured_immediately():
    topo = build_grid(1, 2, sink=1, sources=(0,))
    report = hunt(topo, WalkConfig(), 5, SimRng(7))
    assert report.captured
    assert report.safety_period == 1


def test_hunt_uncaptured_contract():
    # Budget far below the hop distance: the hunter cannot arrive in time.
    topo = build_grid(10, 10)
    report = hunt(topo, WalkConfig(), 3, SimRng(1))
    assert not report.captured
    assert report.safety_period == 3


def test_hunt_flood_capture_takes_distance_messages():
    # Patient hunter moves one hop toward the source per flooded message.
    topo = build_grid(6, 6)
    report = hunt(topo, WalkConfig(), 50, SimRng(1))
    assert report.captured
    assert report.safety_period == 10  # corner-to-corner hop distance


def test_hunt_flood_safety_period_is_the_hop_distance_on_every_pair():
    # Each flooded message draws the hunter one hop nearer the source, so
    # capture comes at exactly the sink-source hop distance.
    fields = (build_grid(6, 6), build_grid(7, 4),
              random_field(40, 5.0, 1.6, SimRng(17, "flood-identity")))
    for topo in fields:
        for sink in range(topo.node_count):
            dist = topo.distances_from(sink)
            for source in range(topo.node_count):
                if source == sink:
                    continue
                roles = dataclasses.replace(topo, sink=sink, sources=(source,))
                report = hunt(roles, WalkConfig(), dist[source], SimRng(1))
                assert report.captured and report.safety_period == dist[source], (sink, source)


def test_hunt_moves_to_the_earliest_heard_neighbour():
    # Each message's walk is replayed on the streams hunt draws from, and its
    # ticks rebuilt by networkx: the hunter moves to the minimal (tick, node)
    # among its neighbours, and stays on a message none of them forwards.
    topo = build_grid(8, 8)
    g = to_networkx(topo)
    source, sink = topo.sources[0], topo.sink
    for strategy in (WalkConfig(), WalkConfig(hops=4), TwoWay(5)):
        report = hunt(topo, strategy, 30, SimRng(3))
        rng = SimRng(3)
        route = strategy.receptor(topo, rng) if isinstance(strategy, TwoWay) else strategy
        walk_rng = rng.stream("walk")
        moves = {msg: (frm, to) for msg, frm, to in report.adversary_moves}
        assert len(moves) == len(report.adversary_moves)
        position = sink
        for msg in range(1, report.safety_period + 1):
            try:
                sched = route_message(topo, source, sink, route, walk_rng)
            except NoRendezvousError:
                assert msg not in moves
                continue
            end = sink if sched.flood_origin is None else sched.flood_origin
            ticks = reference_ticks(g, route, sched.walk + [end], sink)
            heard = [(ticks[v], v) for v in g[position] if v in ticks]
            if position == source or not heard:
                assert msg not in moves
            else:
                to = min(heard)[1]
                assert moves[msg] == (position, to)
                position = to
        assert set(moves) <= set(range(1, report.safety_period + 1))
        assert report.captured == (position == source)


def replay_two_way_hunt(topo, strategy, budget, rng):
    """hunt's report for a TwoWay strategy, rebuilt from each message's
    route_message Schedule read by Schedule.first_heard, with a tally of the
    cases where listening during the walk could read the route wrong."""
    source, position = topo.sources[0], topo.sink
    receptor = strategy.receptor(topo, rng)
    walk_rng = rng.stream("walk")
    total, latencies, moves, cases = 0, [], [], Counter()
    safety_period, captured = budget, False
    for msg in range(1, budget + 1):
        try:
            sched = route_message(topo, source, topo.sink, receptor, walk_rng)
        except NoRendezvousError:
            latencies.append(-1)
            cases["lost"] += 1
            continue
        total += sched.transmissions
        latencies.append(sched.latency_hops)
        nbrs = topo.adjacency[position]
        heard = sched.first_heard(nbrs) if position != source else None
        # The rendezvous tick; len(walk) when the walk meets the receptor at the sink.
        met = next((i for i, v in enumerate(sched.walk) if v in receptor.nodes), len(sched.walk))
        cases["walk ends on the sink"] += met == len(sched.walk) and topo.sink in nbrs
        if heard is not None:
            cases["source listened"] += heard == (0, source)
            cases["hit node is a neighbour"] += heard[0] == met
            cases["heard on the receptor suffix only"] += heard[0] > met
            moves.append((msg, position, heard[1]))
            position = heard[1]
        if position == source:
            captured, safety_period = True, msg
            break
    report = HuntReport(safety_period, captured, total, tuple(latencies), tuple(moves))
    return report, cases


@pytest.mark.parametrize("max_steps", [None, 9], ids=["delivered", "lost"])
def test_two_way_hunt_listens_as_first_heard_reads_the_route(monkeypatch, max_steps):
    # The hunter listens while the walk runs; its moves must be those that
    # first_heard reads off each finished route, lost messages included.
    if max_steps is not None:
        real = phantom.deliver_two_way
        monkeypatch.setattr(phantom, "deliver_two_way",
                            lambda *args, **kwargs: real(*args, max_steps=max_steps, **kwargs))
    cases = Counter()
    for width, height in ((1, 6), (6, 6), (10, 10), (12, 7)):
        topo = build_grid(width, height)
        for length in (0, 1, 2, 4, 10):
            for seed in range(6):
                expected, seen = replay_two_way_hunt(topo, TwoWay(length), 60, SimRng(seed))
                report = hunt(topo, TwoWay(length), 60, SimRng(seed))
                assert report == expected, (width, height, length, seed)
                cases.update(seen)
    assert bool(cases["lost"]) == (max_steps is not None)
    for case in ("source listened", "walk ends on the sink", "hit node is a neighbour",
                 "heard on the receptor suffix only"):
        assert cases[case], case


def test_listening_leaves_the_route_and_the_draws_alone():
    # From every listening post, deliver_two_way with `listen` returns the
    # route it returns without, leaves the stream in the same state, and
    # hears what first_heard reads off that route.
    for topo in (build_grid(7, 5), random_field(40, 8.0, 2.5, SimRng(6))):
        rec = build_receptor(topo, topo.sink, 4, SimRng(2))
        for post, nbrs in enumerate(topo.adjacency):
            source = (7 * post + 3) % topo.node_count
            a, b = SimRng(post, "walk"), SimRng(post, "walk")
            heard = []
            route = deliver_two_way(topo, source, rec, a, listen=(nbrs, heard))
            assert route == deliver_two_way(topo, source, rec, b)
            assert a.getstate() == b.getstate()
            sched = route_message(topo, source, topo.sink, rec, SimRng(post, "walk"))
            assert heard == [h for h in (sched.first_heard(nbrs),) if h is not None]


def test_energy_and_latency_properties():
    # Same endpoints: phantom costs at most h extra transmissions and never
    # beats the direct flood on latency.
    topo = build_grid(12, 12)
    h = 6
    for seed in range(25):
        base = hunt(topo, WalkConfig(), 1, SimRng(seed))
        ph = hunt(topo, WalkConfig(hops=h), 1, SimRng(seed))
        assert ph.transmissions_total <= base.transmissions_total + h
        assert ph.delivery_latency_hops[0] >= base.delivery_latency_hops[0]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the two-way source walk revisits nodes, so from 20x20 up a delivered "
    "message costs more broadcasts than a whole-field flood"))
def test_twoway_costs_no_more_than_flood_per_delivered_message():
    topo = build_grid(20, 20)

    def cost_per_delivered(strategy):
        sent = delivered = 0
        for t in range(40):
            report = hunt(topo, strategy, 150, SimRng(t, "twoway-cost"))
            sent += report.transmissions_total
            delivered += sum(h >= 0 for h in report.delivery_latency_hops)
        return sent / delivered

    twoway, flooded = cost_per_delivered(TwoWay(10)), cost_per_delivered(WalkConfig())
    assert twoway <= flooded, (twoway, flooded)


# --- zone math ---

def factorial_binom(n, h):
    return math.factorial(n) // (math.factorial(h) * math.factorial(n - h))


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
    assert factorial_binom(8, 4) == 70 and factorial_binom(9, 4) == 126
    plan4 = min_zone_nodes(0.01, 4)
    assert plan4.n_min == 9


# With 1/120 and 1/126, 1/p_r equals C(10, 3) and C(9, 4): the strict > decides.
@pytest.mark.parametrize("p_r", [1e-1, 1e-2, 1e-3, 1.0, 0.5, 1 / 3, 0.07, 1 / 120, 1 / 126, 3e-3])
@pytest.mark.parametrize("hops", range(1, 9))
def test_min_zone_nodes_matches_brute_scan(p_r, hops):
    plan = min_zone_nodes(p_r, hops)
    assert plan.n_min == brute_min_zone(p_r, hops)
    assert factorial_binom(plan.n_min, hops) > 1.0 / p_r
    if plan.n_min > hops:
        assert factorial_binom(plan.n_min - 1, hops) <= 1.0 / p_r


def test_min_zone_nodes_tiny_p_r():
    start = time.perf_counter()
    assert min_zone_nodes(1e-12, 1).n_min == 10**12 + 1
    assert time.perf_counter() - start < 1.0  # a linear scan takes 10^12 steps
    plan, threshold = min_zone_nodes(1e-300, 8), 1.0 / 1e-300
    assert math.comb(plan.n_min - 1, 8) <= threshold < plan.k == math.comb(plan.n_min, 8)
    for p_r in (5e-324, 1e-310):  # 1 / p_r overflows to inf
        with pytest.raises(ValueError, match="^p_r: "):
            min_zone_nodes(p_r, 1)


def test_min_zone_trivial_boundary():
    for hops in range(1, 6):
        assert min_zone_nodes(1.0, hops).n_min == hops + 1
