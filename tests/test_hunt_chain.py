"""The hunt against its exact reference, the absorbing Markov chain of the
hunter's position (tests/exact_chain.py): P(T <= k) for the capture message
T, the capture probability and the mean safety period E[min(T, budget)].

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
from fractions import Fraction

import pytest

from wsnpriv.netsim import build_grid
from wsnpriv.phantom import WalkConfig, WalkMode, hunt, min_zone_nodes, route_message
from wsnpriv.rng import SimRng

from exact_chain import capture_cdf, exact_moments, move, tick_maps, walk_probabilities
from random_fields import random_field as seeded_field

TRIALS = 600
SIGMAS = 5
MOVE_SAMPLES = 10_000  # routed messages per walk mode
MOVE_ALPHA = 1e-4  # per (mode, position) test: at most 8e-4 for all eight


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


SYMMETRY_CELLS = {  # name: (width, height, source (x, y), sink (x, y)), fixed before the first run
    "7x7": (7, 7, (0, 0), (6, 6)),
    "8x6": (8, 6, (0, 0), (7, 5)),
}
SYMMETRY_HOPS, SYMMETRY_BUDGET = 3, 60


def lattice_symmetries(width, height):
    """Every map of the width x height lattice onto itself, identity first:
    the four flips, and on a square each of them after the transpose too."""
    flips = [lambda x, y, fx=fx, fy=fy: (width - 1 - x if fx else x, height - 1 - y if fy else y)
             for fx in (False, True) for fy in (False, True)]
    if width == height:
        flips += [lambda x, y, f=f: f(y, x) for f in flips]
    return flips


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the hunter breaks a tie between neighbours that forward at one tick by the "
    "lowest node id, so a placement and its mirror image are caught at different "
    "rates; a uniform tie-break changes the hunt output digests"))
def test_capture_distribution_does_not_depend_on_node_numbering():
    # A lattice symmetry maps the field onto itself, and the hunt model has
    # no node order, so a placement and its image must have one exact
    # capture CDF.  Every cell, mode and symmetry is checked before the
    # assertion, so its message lists all the disagreements.
    disagree = []
    for name, (width, height, source, sink) in SYMMETRY_CELLS.items():
        symmetries = lattice_symmetries(width, height)
        assert len(symmetries) == (8 if width == height else 4)
        for mode in WalkMode:
            cfg, cdfs = WalkConfig(mode, SYMMETRY_HOPS), []
            for g in symmetries:
                (sx, sy), (tx, ty) = g(*source), g(*sink)
                topo = build_grid(width, height, sink=ty * width + tx, sources=(sy * width + sx,))
                cdfs.append(capture_cdf(topo, cfg, SYMMETRY_BUDGET))
            for i, cdf in enumerate(cdfs[1:], 1):
                if cdf != cdfs[0]:
                    means = [float(exact_moments(c, SYMMETRY_BUDGET)[1]) for c in (cdfs[0], cdf)]
                    disagree.append(f"{name}/{mode.value}/symmetry {i}: E[min(T, B)] "
                                    f"{means[0]:.3f} vs {means[1]:.3f}")
    assert not disagree, "\n".join(disagree)
