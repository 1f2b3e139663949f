"""Per-message privacy-level selection and the end-to-end delivery flow.

The user picks one of four protection levels; that choice enables the
anonymity layer (phantom/two-way routing), the perturbation layer
(key-managed private aggregation), both, or neither.  With the
perturbation layer on, sources are paired into (S1, S2, AF) clusters and
the home gateway only ever receives the pair sum; with the anonymity layer
on, the outbound value leaves its sender via phantom routing instead of a
plain shortest path.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

from .keymgmt import check_bank_split
from .netsim import NodeId, Topology, build_grid
from .phantom import TwoWay, WalkConfig, WalkMode, route_message
from .ppda import DEFAULT_MODULUS, PrimeField, RoundTranscript, SppdaCluster
from .rng import SimRng

__all__ = [
    "PrivacyLevel",
    "PipelineConfig",
    "Cluster",
    "FlowRecord",
    "DeliveryReport",
    "pair_sources",
    "run_pipeline",
]


class PrivacyLevel(enum.Enum):
    NONE = "none"
    ANONYMITY_ONLY = "anonymity-only"
    PERTURBATION_ONLY = "perturbation-only"
    FULL = "full"

    @property
    def anonymity(self) -> bool:
        return self in (PrivacyLevel.ANONYMITY_ONLY, PrivacyLevel.FULL)

    @property
    def perturbation(self) -> bool:
        return self in (PrivacyLevel.PERTURBATION_ONLY, PrivacyLevel.FULL)


@dataclass(frozen=True)
class Cluster:
    s1: NodeId
    s2: NodeId
    af: NodeId


@dataclass(frozen=True)
class PipelineConfig:
    width: int
    height: int
    level: PrivacyLevel
    sources: tuple[NodeId, ...]
    readings: dict[NodeId, int]
    master_seed: int
    radio_range: float = 1.0
    sink: NodeId = 0
    walk: WalkConfig = WalkConfig(mode=WalkMode.DIRECTED, hops=5)
    receptor_length: int | None = None  # None -> phantom flood delivery
    modulus: int = DEFAULT_MODULUS
    pool_size: int = 256
    af_bank: int = 128
    aggregator_dummy: int = 0

    def __post_init__(self):
        if not self.sources:
            raise ValueError("sources: at least one source required")
        if self.level.perturbation and len(self.sources) < 2:
            raise ValueError(
                "sources: perturbation layer needs at least two sources to form a cluster"
            )
        if len(set(self.sources)) != len(self.sources):
            raise ValueError(f"sources: duplicate node ids in {list(self.sources)}")
        if self.sink in self.sources:
            raise ValueError(f"sources: node {self.sink} is the sink")
        missing = [s for s in self.sources if s not in self.readings]
        if missing:
            raise ValueError(f"readings: missing for sources {missing}")
        if self.receptor_length is not None:
            TwoWay(self.receptor_length)  # its own check refuses a negative length
        check_bank_split(self.pool_size, self.af_bank)
        PrimeField(self.modulus)  # refuses a composite modulus, or one past the exact test


@dataclass(frozen=True)
class FlowRecord:
    origin: NodeId                 # node the outbound value left from
    delivered_value: int           # what the home gateway recorded
    route_hops: int
    transmissions: int
    cluster: Cluster | None = None


@dataclass
class DeliveryReport:
    level: PrivacyLevel
    flows: list[FlowRecord] = field(default_factory=list)
    transcripts: list[RoundTranscript] = field(default_factory=list)
    unpaired_sources: tuple[NodeId, ...] = ()

    def to_doc(self) -> dict:
        return {
            "level": self.level.value,
            "unpaired_sources": list(self.unpaired_sources),
            "flows": [
                {
                    "origin": fl.origin,
                    "delivered_value": fl.delivered_value,
                    "route_hops": fl.route_hops,
                    "transmissions": fl.transmissions,
                    "cluster": (
                        {"s1": fl.cluster.s1, "s2": fl.cluster.s2, "af": fl.cluster.af}
                        if fl.cluster
                        else None
                    ),
                }
                for fl in self.flows
            ],
            "transcripts": [t.to_doc() for t in self.transcripts],
        }


def pair_sources(
    sources: list[NodeId] | tuple[NodeId, ...], topology: Topology
) -> tuple[list[Cluster], list[NodeId]]:
    """Greedy nearest-pair clustering with an AF near each pair.

    The AF is a common neighbor of both sources when one exists (lowest
    id), otherwise the non-source, non-sink node minimizing its summed
    distance to the pair.  Returns (clusters, unpaired leftovers).
    """
    if len(sources) < 2:
        raise ValueError("sources: need at least two sources to pair")
    ids = sorted(sources)
    unpaired = set(sources)
    forbidden = unpaired | {topology.sink}
    dist_from = {s: topology.distances_from(s) for s in ids}
    clusters: list[Cluster] = []
    # Closest pair first, ties to the lowest ids: each pair in this order
    # whose ends are both unpaired is the closest pair left among them.
    for _, s1, s2 in sorted(
        (dist_from[a][b], a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
    ):
        if s1 not in unpaired or s2 not in unpaired:
            continue
        unpaired -= {s1, s2}
        common = sorted(
            set(topology.adjacency[s1]) & set(topology.adjacency[s2]) - forbidden
        )
        if common:
            af = common[0]
        elif topology.node_count > len(forbidden):
            # Forbidden nodes sum past any two hop distances; ties go to the lowest id.
            summed = list(map(operator.add, dist_from[s1], dist_from[s2]))
            for n in forbidden:
                summed[n] = 2 * topology.node_count
            af = summed.index(min(summed))
        else:
            raise ValueError(
                f"sources: no aggregator-forwarder candidate can reach both {s1} and {s2}"
            )
        clusters.append(Cluster(s1=s1, s2=s2, af=af))
    return clusters, sorted(unpaired)


def run_pipeline(config: PipelineConfig) -> DeliveryReport:
    """Execute one scenario: layer selection, aggregation, delivery."""
    rng = SimRng(config.master_seed, "pipeline")
    topology = build_grid(
        config.width, config.height, config.radio_range,
        sink=config.sink, sources=tuple(config.sources),
    )
    field_ = PrimeField(config.modulus)
    report = DeliveryReport(level=config.level)

    if config.level.perturbation:
        clusters, unpaired = pair_sources(config.sources, topology)
        report.unpaired_sources = tuple(unpaired)
        outbound = []
        for i, cluster in enumerate(clusters):
            sppda = SppdaCluster(
                rng.stream(f"cluster:{i}"),
                field_=field_,
                pool_size=config.pool_size,
                af_bank=config.af_bank,
                node_ids=(cluster.af, cluster.s1, cluster.s2),
            )
            result, transcript = sppda.run_round(
                config.readings[cluster.s1],
                config.readings[cluster.s2],
                config.aggregator_dummy,
            )
            report.transcripts.append(transcript)
            # The aggregate leaves from the AF; the gateway records x + y only.
            outbound.append((cluster.af, result.pair_sum, cluster))
    else:
        outbound = [(s, config.readings[s] % field_.p, None) for s in config.sources]

    # Plain delivery takes a shortest path; the anonymity layer routes by
    # phantom flood, or two-way along one receptor shared by every flow.
    strategy = None
    if config.level.anonymity:
        strategy = config.walk
        if config.receptor_length is not None:
            strategy = TwoWay(config.receptor_length).receptor(topology, rng)
    for i, (origin, value, cluster) in enumerate(outbound):
        if strategy is None:
            hops = tx = topology.distances_from(topology.sink)[origin]
        else:
            sched = route_message(
                topology, origin, topology.sink, strategy, rng.stream(f"route:{i}")
            )
            hops, tx = sched.latency_hops, sched.transmissions
        report.flows.append(FlowRecord(
            origin=origin, delivered_value=value, route_hops=hops, transmissions=tx,
            cluster=cluster,
        ))
    return report
