"""Seeded irregular fields for tests (a helper module; pytest collects no test here).

Every command builds a grid lattice; these fields give tests uneven degrees
and ties that a lattice lacks.  Each is a plain Topology, linked by testing
every node pair.
"""

from wsnpriv.netsim import Topology

PLACEMENT_ATTEMPTS = 50


def all_pairs_adjacency(positions, radio_range):
    """Independent oracle: test every node pair with the builder's expression."""
    r2 = radio_range * radio_range
    return tuple(
        tuple(j for j, (xj, yj) in enumerate(positions)
              if j != i and (xi - xj) ** 2 + (yi - yj) ** 2 <= r2)
        for i, (xi, yi) in enumerate(positions)
    )


def random_field(node_count, area_side, radio_range, rng, sources=None):
    """node_count nodes placed uniformly in a square of side area_side, the
    whole placement redrawn until the field is connected.  Sink 0; one
    source, node node_count - 1, unless `sources` is given."""
    for _ in range(PLACEMENT_ATTEMPTS):
        positions = tuple((rng.uniform(0.0, area_side), rng.uniform(0.0, area_side))
                          for _ in range(node_count))
        field = Topology(
            positions=positions,
            adjacency=all_pairs_adjacency(positions, radio_range),
            sink=0,
            sources=(node_count - 1,) if sources is None else tuple(sources),
        )
        if -1 not in field.distances_from(0):
            return field
    raise AssertionError(f"no connected placement of {node_count} nodes "
                         f"in {PLACEMENT_ATTEMPTS} attempts")
