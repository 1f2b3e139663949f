"""Exact reference for the hunt: the hunter's position as an absorbing Markov chain.

Each message's route is drawn independently of the ones before it, and the
hunter's next position depends only on where it stands and on that route.
So the hunter's position is a Markov chain, absorbed at the source (Kemeny &
Snell, *Finite Markov Chains*, 1960).  For phantom routing the chain comes
from enumerating every h-hop walk with its exact probability; iterating it
`budget` times gives P(T <= k) exactly for the capture message T, and with
it the capture probability and the mean safety period E[min(T, budget)].

Seeded hunt() trials must agree with both within 5 sigma.  The trial count,
the seeds and the bound were fixed before the first run.  Two-way routing is
left out: its walks are unbounded.

One step of the chain is also checked on its own: from a few hunter
positions, where route_message and Schedule.first_heard send the hunter must
follow the exact move distribution (Pearson's chi-square test; sample count,
positions, seed and significance level fixed before the first run).

The same walk enumeration also prices the zone planner: the exact success of
an adversary who sees one walk's end node and guesses the most likely source,
set beside the planner's counting model 1/C(N, H).
"""

import dataclasses
import math
from collections import deque
from fractions import Fraction

import pytest

from wsnpriv.netsim import build_grid
from wsnpriv.phantom import WalkConfig, WalkMode, hunt, min_zone_nodes, route_message
from wsnpriv.rng import SimRng

from random_fields import random_field as seeded_field

TRIALS = 600
SIGMAS = 5
MOVE_SAMPLES = 10_000  # routed messages per walk mode
MOVE_ALPHA = 1e-4  # per (mode, position) test: at most 8e-4 for all eight


def bfs(topo, origin):
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        u = queue.popleft()
        for v in topo.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def walk_probabilities(topo, source, cfg):
    """[(walk, probability)] over every walk random_walk can take.

    A directed step is uniform over the neighbours farther (in the plane)
    from the source, when there are any.  Any other step is uniform over the
    neighbours but the one just left, or over all of them if it is the only one.
    """
    walks = []

    def extend(walk, prev, p):
        if len(walk) == cfg.hops + 1:
            walks.append((walk, p))
            return
        cur = walk[-1]
        nbrs = topo.adjacency[cur]
        options = []
        if cfg.mode is WalkMode.DIRECTED:
            d = topo.distance(cur, source)
            options = [n for n in nbrs if topo.distance(n, source) > d]
        if not options:
            options = [n for n in nbrs if n != prev] or list(nbrs)
        for n in options:
            extend(walk + [n], cur, p / len(options))

    extend([source], None, Fraction(1))
    assert sum(p for _, p in walks) == 1
    return walks


def tick_maps(topo, cfg):
    """[(tick map, probability)] over every walk, for `topo`'s first source.

    A map gives each forwarding node's tick: walk[i] at its first index i < h,
    any other node but the sink at h plus its hop distance from the walk's end.
    """
    h, from_end, maps = cfg.hops, {}, []
    for walk, p in walk_probabilities(topo, topo.sources[0], cfg):
        if walk[-1] not in from_end:
            from_end[walk[-1]] = bfs(topo, walk[-1])
        ticks = {u: h + d for u, d in from_end[walk[-1]].items() if u != topo.sink}
        for i in reversed(range(h)):
            ticks[walk[i]] = i
        maps.append((ticks, p))
    return maps


def move(topo, maps, u):
    """{v: P(the hunter at u goes to v)}: it goes to the neighbour it hears
    first (lowest tick, then id), or stays if it hears none."""
    out = {}
    for ticks, p in maps:
        heard = [(ticks[v], v) for v in topo.adjacency[u] if v in ticks]
        v = min(heard)[1] if heard else u
        out[v] = out.get(v, 0) + p
    return out


def capture_cdf(topo, cfg, budget):
    """[P(T <= k) for k = 0..budget], exact, for the hunt of `topo`'s first source."""
    source, sink = topo.sources[0], topo.sink
    maps = tick_maps(topo, cfg)

    # The position distribution is carried as integer numerators over D**k
    # after k messages, D the common denominator of the walk probabilities.
    denom = math.lcm(*(p.denominator for _, p in maps))
    moves = {source: {source: denom}}  # capture absorbs
    mass, scale, cdf = {sink: 1}, 1, [Fraction(0)]
    for _ in range(budget):
        nxt = {}
        for u, m in mass.items():
            if u not in moves:
                moves[u] = {v: q.numerator * (denom // q.denominator)
                            for v, q in move(topo, maps, u).items()}
            for v, q in moves[u].items():
                nxt[v] = nxt.get(v, 0) + m * q
        mass, scale = nxt, scale * denom
        cdf.append(Fraction(mass.get(source, 0), scale))
    return cdf


def exact_moments(cdf, budget):
    """P(T <= budget), and the mean and variance of the safety period min(T, budget)."""
    survival = [1 - f for f in cdf[:budget]]  # P(T > k) for k < budget
    mean = sum(survival)
    second = sum((2 * k + 1) * s for k, s in enumerate(survival))
    return cdf[budget], mean, second - mean * mean


def random_field():
    field = seeded_field(40, 5.0, 1.6, SimRng(40, "hunt-chain/field"))
    dist = field.distances_from(field.sink)
    # As on a grid, the source is the node farthest from the sink (lowest id on ties).
    far = max(range(field.node_count), key=lambda u: (dist[u], -u))
    return dataclasses.replace(field, sources=(far,))


CELLS = {  # name: (field, walk hops, message budget)
    "8x8/phantom:4": (lambda: build_grid(8, 8), 4, 60),
    "12x12/phantom:6": (lambda: build_grid(12, 12), 6, 100),
    "field40/phantom:3": (random_field, 3, 40),
}


def test_zero_hop_chain_is_the_flood_identity():
    # The oracle's own check: with no walk the hunter closes one hop per
    # message, so capture comes at exactly the hop distance.
    for topo in (build_grid(8, 8), random_field()):
        dist = topo.distances_from(topo.sink)[topo.sources[0]]
        cdf = capture_cdf(topo, WalkConfig(), dist + 3)
        assert cdf == [int(k >= dist) for k in range(dist + 4)]


@pytest.mark.parametrize("mode", list(WalkMode), ids=lambda m: m.value)
@pytest.mark.parametrize("cell", list(CELLS))
def test_hunt_matches_the_exact_capture_distribution(cell, mode):
    build, hops, budget = CELLS[cell]
    topo, cfg = build(), WalkConfig(mode, hops)
    p, mean, var = exact_moments(capture_cdf(topo, cfg, budget), budget)
    reports = [hunt(topo, cfg, budget, SimRng(2026, f"hunt-chain/{cell}/{mode.value}/trial:{t}"))
               for t in range(TRIALS)]
    captures = sum(r.captured for r in reports)
    assert abs(captures - TRIALS * p) <= SIGMAS * math.sqrt(TRIALS * p * (1 - p))
    observed = sum(r.safety_period for r in reports) / TRIALS
    assert abs(observed - mean) <= SIGMAS * math.sqrt(var / TRIALS)


def chi2_sf(x, df):
    """P(X >= x) for X chi-square with integer df >= 1 degrees of freedom."""
    half = x / 2
    if df % 2 == 0:
        return math.exp(-half) * sum(half**i / math.factorial(i) for i in range(df // 2))
    return math.erfc(math.sqrt(half)) + math.exp(-half) * sum(
        half ** (i + 0.5) / math.gamma(i + 1.5) for i in range((df - 1) // 2))


def test_chi2_sf_reference_values():
    # Textbook 5 % critical values for 1-4 degrees of freedom.
    for x, df in ((3.841, 1), (5.991, 2), (7.815, 3), (9.488, 4)):
        assert chi2_sf(x, df) == pytest.approx(0.05, abs=1e-4)
    assert chi2_sf(0.0, 3) == pytest.approx(1.0)


@pytest.mark.parametrize("mode", list(WalkMode), ids=lambda m: m.value)
def test_one_step_moves_match_the_exact_chain(mode):
    topo, cfg = build_grid(8, 8), WalkConfig(mode, 4)
    positions = (5, 36, 45, 53)  # near the sink, mid-field, near the source
    maps = tick_maps(topo, cfg)
    exact = {u: move(topo, maps, u) for u in positions}
    counts = {u: dict.fromkeys(exact[u], 0) for u in positions}
    rng = SimRng(2026, f"hunt-chain/one-step/{mode.value}")
    for _ in range(MOVE_SAMPLES):
        sched = route_message(topo, topo.sources[0], topo.sink, cfg, rng)
        for u in positions:
            heard = sched.first_heard(topo.adjacency[u])
            v = u if heard is None else heard[1]
            counts[u][v] += 1  # a KeyError is a move the chain rules out
    for u in positions:
        assert len(exact[u]) > 1
        stat = sum((counts[u][v] - MOVE_SAMPLES * p) ** 2 / (MOVE_SAMPLES * p)
                   for v, p in exact[u].items())
        assert chi2_sf(stat, len(exact[u]) - 1) > MOVE_ALPHA, (u, counts[u], exact[u])


def end_node_guess(topo, cfg):
    """Exact single-trace success of the Bayes-optimal adversary that sees
    where the walk ends: sum over end nodes e of max_s P(s) P(e | s), with the
    source s uniform over the zone."""
    best = {}
    for source in range(topo.node_count):
        ends = {}
        for walk, p in walk_probabilities(topo, source, cfg):
            ends[walk[-1]] = ends.get(walk[-1], 0) + p
        for end, p in ends.items():
            best[end] = max(best.get(end, 0), p)
    return sum(best.values()) / topo.node_count


ZONES = {  # (width, height, hops): (pure, directed), rounded to three decimals
    (2, 5, 3): (0.400, 0.542),
    (3, 3, 4): (0.488, 0.840),
    (4, 4, 3): (0.239, 0.397),
    (6, 6, 5): (0.120, 0.328),
}


@pytest.mark.parametrize("zone", list(ZONES), ids=lambda z: f"{z[0]}x{z[1]}/H={z[2]}")
def test_zone_planner_counting_model_against_the_end_node_adversary(zone):
    width, height, hops = zone
    n = width * height
    counting = Fraction(1, math.comb(n, hops))
    for mode, pinned in zip(WalkMode, ZONES[zone]):
        success = end_node_guess(build_grid(width, height), WalkConfig(mode, hops))
        print(f"{width}x{height} H={hops} {mode.value}: 1/C(N, H) = {float(counting):.2g}, "
              f"end-node guess = {float(success):.3f}")
        assert round(float(success), 3) == pinned
        assert success >= 48 * counting
    # 2x5 and 3x3 are the planner's own zones for p_r = 0.01 at 3 and 4 hops.
    if n == min_zone_nodes(0.01, hops).n_min:
        assert counting < 0.01 < min(ZONES[zone])


CORNER_MEANS = {  # (side, hops, budget): exact E[min(T, budget)], (pure, directed), 3 decimals
    (12, 4, 100): (48.845, 44.668),
    (16, 5, 120): (74.314, 68.110),
}


@pytest.mark.parametrize("cell", list(CORNER_MEANS), ids=lambda c: f"{c[0]}x{c[0]}/h={c[1]}")
def test_directed_walk_from_a_corner_is_caught_sooner_than_the_pure_walk(cell):
    # The pipeline's default walk is directed.  From a corner source the
    # neighbours farther from the source point into the field, toward the
    # sink and the hunter, so at these h the pure walk keeps the source
    # safe longer (higher is safer).
    side, hops, budget = cell
    topo = build_grid(side, side)
    means = [exact_moments(capture_cdf(topo, WalkConfig(mode, hops), budget), budget)[1]
             for mode in WalkMode]
    assert [round(float(mean), 3) for mean in means] == list(CORNER_MEANS[cell])
