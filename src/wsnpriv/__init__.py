"""Two-layer context privacy for wireless sensor networks.

Layer 1 hides who is talking (phantom routing against a back-tracing
adversary); layer 2 hides what they say (key-managed polynomial
perturbation so the aggregator learns only sums).  A deterministic
simulator, metrics harness, and CLI sit on top.
"""

from .rng import SimRng
from .netsim import Topology, build_grid
from .phantom import (
    WalkConfig,
    WalkMode,
    TwoWay,
    random_walk,
    flood,
    build_receptor,
    deliver_two_way,
    hunt,
    min_zone_nodes,
)
from .ppda import (
    PrimeField,
    SppdaCluster,
    run_sppda,
    run_cpda,
    gen_shares,
    node_aggregate,
    solve_aggregate,
)
from .pipeline import PrivacyLevel, PipelineConfig, pair_sources, run_pipeline
from .climetrics import (
    ClusterSizeDist,
    DisclosureModel,
    disclosure_probability,
    disclosure_curve,
    bench_aggregation,
    montecarlo_hunt,
)

__version__ = "0.1.0"
