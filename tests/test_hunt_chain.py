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
"""

import dataclasses
import math
from collections import deque
from fractions import Fraction

import pytest

from wsnpriv.netsim import build_grid, build_random_geometric
from wsnpriv.phantom import WalkConfig, WalkMode, hunt
from wsnpriv.rng import SimRng

TRIALS = 600
SIGMAS = 5


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


def capture_cdf(topo, cfg, budget):
    """[P(T <= k) for k = 0..budget], exact, for the hunt of `topo`'s first source."""
    source, sink, h = topo.sources[0], topo.sink, cfg.hops
    walks = walk_probabilities(topo, source, cfg)
    # Per walk, each node's forwarding tick: walk[i] at its first index i < h,
    # any other node but the sink at h plus its hop distance from the walk's end.
    from_end = {}
    tick_maps = []
    for walk, p in walks:
        if walk[-1] not in from_end:
            from_end[walk[-1]] = bfs(topo, walk[-1])
        ticks = {u: h + d for u, d in from_end[walk[-1]].items() if u != sink}
        for i in reversed(range(h)):
            ticks[walk[i]] = i
        tick_maps.append((ticks, p))

    def move(u):
        """The hunter at u goes to the neighbour it hears first (lowest tick, then id)."""
        out = {}
        for ticks, p in tick_maps:
            heard = [(ticks[v], v) for v in topo.adjacency[u] if v in ticks]
            v = min(heard)[1] if heard else u
            out[v] = out.get(v, 0) + p
        return out

    # The position distribution is carried as integer numerators over D**k
    # after k messages, D the common denominator of the walk probabilities.
    denom = math.lcm(*(p.denominator for _, p in walks))
    moves = {source: {source: denom}}  # capture absorbs
    mass, scale, cdf = {sink: 1}, 1, [Fraction(0)]
    for _ in range(budget):
        nxt = {}
        for u, m in mass.items():
            if u not in moves:
                moves[u] = {v: q.numerator * (denom // q.denominator)
                            for v, q in move(u).items()}
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
    field = build_random_geometric(40, 5.0, 1.6, SimRng(40, "hunt-chain/field"))
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
