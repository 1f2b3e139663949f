"""Exact reference for the hunt: the hunter's position as an absorbing Markov chain
(a helper module; pytest collects no test here).

Each message's route is drawn independently of the ones before it, and the
hunter's next position depends only on where it stands and on that route.
So the hunter's position is a Markov chain, absorbed at the source (Kemeny &
Snell, *Finite Markov Chains*, 1960).  For phantom routing the chain comes
from enumerating every h-hop walk with its exact probability; iterating it
`budget` times gives P(T <= k) exactly for the capture message T, and with
it the capture probability and the mean safety period E[min(T, budget)].
Everything here is written from the model, not from wsnpriv's code: only
WalkMode is imported, to read a walk's mode.
"""

import math
from collections import deque
from fractions import Fraction

from wsnpriv.phantom import WalkMode


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
    sx, sy = topo.positions[source]

    def away(n):
        x, y = topo.positions[n]
        return math.hypot(x - sx, y - sy)

    def extend(walk, prev, p):
        if len(walk) == cfg.hops + 1:
            walks.append((walk, p))
            return
        cur = walk[-1]
        nbrs = topo.adjacency[cur]
        options = []
        if cfg.mode is WalkMode.DIRECTED:
            d = away(cur)
            options = [n for n in nbrs if away(n) > d]
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
