import json
import random

import networkx as nx
import pytest

from wsnpriv import netsim
from wsnpriv.netsim import bfs_distances, build_grid
from wsnpriv.phantom import WalkConfig, WalkMode
from wsnpriv.pipeline import (
    Cluster,
    PipelineConfig,
    PrivacyLevel,
    pair_sources,
    run_pipeline,
)
from wsnpriv.rng import SimRng

from random_fields import random_field


def test_privacy_level_layers():
    assert [(lv.anonymity, lv.perturbation) for lv in PrivacyLevel] == [
        (False, False), (True, False), (False, True), (True, True)]


# --- clustering ---

def test_pair_two_sources_common_neighbor():
    topo = build_grid(3, 3, sources=(3, 1))
    clusters, unpaired = pair_sources((3, 1), topo)
    assert unpaired == []
    assert clusters == [Cluster(s1=1, s2=3, af=4)]  # node 0 is the sink


def test_pair_eight_sources_on_grid():
    sources = (1, 3, 5, 11, 13, 21, 23, 19)
    topo = build_grid(5, 5, sources=sources)
    clusters, unpaired = pair_sources(sources, topo)
    assert len(clusters) == 4 and unpaired == []
    for c in clusters:
        d1 = bfs_distances(topo, c.s1)
        d2 = bfs_distances(topo, c.s2)
        assert c.af not in sources and c.af != topo.sink
        assert d1[c.af] <= 2 and d2[c.af] <= 2


def test_pair_odd_source_reported_unpaired():
    topo = build_grid(4, 4, sources=(5, 6, 15))
    clusters, unpaired = pair_sources((5, 6, 15), topo)
    assert len(clusters) == 1
    assert unpaired == [15]


def test_pair_needs_two_sources():
    topo = build_grid(3, 3)
    with pytest.raises(ValueError, match="^sources: "):
        pair_sources((4,), topo)


def test_pair_without_af_candidate_rejected():
    # Every node of a 3x1 grid is the sink or a source.
    topo = build_grid(3, 1, sources=(1, 2))
    with pytest.raises(
        ValueError, match="^sources: no aggregator-forwarder candidate can reach both 1 and 2$"
    ):
        pair_sources((1, 2), topo)


def pair_sources_oracle(sources, topo):
    """Greedy pairing with a brute-force AF: a common neighbor, else min((d1 + d2, id))."""
    remaining = sorted(sources)
    forbidden = set(sources) | {topo.sink}
    clusters, fallbacks = [], 0
    while len(remaining) >= 2:
        _, s1, s2 = min((bfs_distances(topo, a)[b], a, b)
                        for i, a in enumerate(remaining) for b in remaining[i + 1:])
        remaining.remove(s1)
        remaining.remove(s2)
        d1, d2 = bfs_distances(topo, s1), bfs_distances(topo, s2)
        common = [n for n in range(topo.node_count)
                  if n not in forbidden and d1[n] == d2[n] == 1]
        if not common:
            fallbacks += 1
        _, af = (0, common[0]) if common else min(
            (d1[n] + d2[n], n) for n in range(topo.node_count) if n not in forbidden
        )
        clusters.append(Cluster(s1=s1, s2=s2, af=af))
    return clusters, remaining, fallbacks


def test_pair_fallback_af_matches_brute_force_oracle():
    fallbacks = pairs = 0
    for seed in range(12):
        rnd = random.Random(seed)
        width, height = rnd.randint(18, 22), rnd.randint(18, 22)
        sources = tuple(rnd.sample(range(1, width * height), rnd.randint(9, 11)))
        topo = build_grid(width, height, sources=sources)
        clusters, unpaired, used = pair_sources_oracle(sources, topo)
        assert pair_sources(sources, topo) == (clusters, unpaired)
        fallbacks += used
        pairs += len(clusters)
    assert 2 * fallbacks > pairs  # the fallback, not a common neighbor, picked most AFs

    # Many sources on a small grid: pair distances tie often, so the order
    # among equally close pairs decides the clusters.
    for seed in range(4):
        sources = tuple(random.Random(seed).sample(range(1, 144), 39 + seed % 2))
        topo = build_grid(12, 12, sources=sources)
        clusters, unpaired, _ = pair_sources_oracle(sources, topo)
        assert pair_sources(sources, topo) == (clusters, unpaired)

    # A random-geometric field: uneven degrees, and ties between summed distances.
    fallbacks = 0
    for seed in range(6):
        sources = tuple(random.Random(seed).sample(range(1, 80), 9))
        topo = random_field(80, 10.0, 1.8, SimRng(seed, "field"), sources=sources)
        clusters, unpaired, used = pair_sources_oracle(sources, topo)
        assert pair_sources(sources, topo) == (clusters, unpaired)
        fallbacks += used
    assert fallbacks

    # Every node of least summed distance is a source or the sink: on the
    # path 0-1-...-8 (sink 0), pair (1, 2) sums 1 at 1 and 2, 3 at 0 and 3
    # and 5 at 4, so its AF is node 5 at sum 7.
    sources = (1, 2, 3, 4)
    topo = build_grid(9, 1, sources=sources)
    clusters, unpaired, used = pair_sources_oracle(sources, topo)
    assert clusters == [Cluster(s1=1, s2=2, af=5), Cluster(s1=3, s2=4, af=5)] and used == 2
    assert pair_sources(sources, topo) == (clusters, unpaired)


# --- pipeline flows ---

def base_config(**kw):
    defaults = dict(
        width=5, height=5,
        level=PrivacyLevel.NONE,
        sources=(24,),
        readings={24: 5},
        master_seed=42,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


def test_none_level_delivers_raw_via_shortest_path():
    report = run_pipeline(base_config())
    assert len(report.flows) == 1
    flow = report.flows[0]
    assert flow.delivered_value == 5
    assert flow.route_hops == 8  # corner-to-corner on the 5x5 grid
    assert report.transcripts == []


def test_plain_delivery_hops_equal_shortest_path():
    for width, height, sink in ((5, 5, 0), (7, 4, 12)):
        sources = tuple(n for n in range(width * height) if n != sink)
        report = run_pipeline(base_config(
            width=width, height=height, sink=sink, sources=sources,
            readings={s: 1 for s in sources},
        ))
        topo = build_grid(width, height, sink=sink, sources=sources)
        # networkx's own BFS, not the topology's memoized one that delivery reads.
        g = nx.Graph((a, b) for a, nbrs in enumerate(topo.adjacency) for b in nbrs)
        assert [fl.origin for fl in report.flows] == list(sources)
        for fl in report.flows:
            hops = nx.shortest_path_length(g, fl.origin, sink)
            assert fl.route_hops == fl.transmissions == hops


def test_anonymity_only_no_layer2_events():
    report = run_pipeline(base_config(
        level=PrivacyLevel.ANONYMITY_ONLY,
        walk=WalkConfig(WalkMode.DIRECTED, 3),
    ))
    assert report.transcripts == []
    flow = report.flows[0]
    assert flow.delivered_value == 5
    assert flow.route_hops >= 8  # walk detour never shortens the path


def test_full_level_worked_example():
    report = run_pipeline(base_config(
        level=PrivacyLevel.FULL,
        sources=(22, 24),
        readings={22: 5, 24: 7},
        aggregator_dummy=3,
    ))
    assert len(report.flows) == 1
    flow = report.flows[0]
    assert flow.delivered_value == 12
    assert flow.cluster is not None
    assert flow.origin == flow.cluster.af


def test_perturbation_only_single_source_rejected():
    with pytest.raises(ValueError):
        run_pipeline(base_config(level=PrivacyLevel.PERTURBATION_ONLY))


def test_missing_reading_rejected():
    with pytest.raises(ValueError):
        run_pipeline(base_config(readings={}))


def _plaintext_values(report_doc):
    # Everything an observer reads without a key: announced indexes, seeds,
    # any metadata field of any frame.
    out = []
    for transcript in report_doc["transcripts"]:
        out.extend(transcript["seeds"] or [])
        for frame in transcript["frames"]:
            for v in frame["plaintext_fields"].values():
                if isinstance(v, list):
                    out.extend(v)
                else:
                    out.append(v)
    return out


def test_full_level_confidentiality_scan():
    # Distinctive readings far above any index/seed collision range used by
    # the protocol metadata.
    x, y = 1_900_000_123, 1_800_000_456
    report = run_pipeline(base_config(
        level=PrivacyLevel.FULL,
        sources=(22, 24),
        readings={22: x, 24: y},
        aggregator_dummy=77,
    ))
    doc = report.to_doc()
    assert doc["flows"][0]["delivered_value"] == (x + y) % (2**31 - 1)
    exposed = _plaintext_values(doc)
    assert x not in exposed and y not in exposed


def test_unpaired_source_surfaces_in_report():
    report = run_pipeline(base_config(
        level=PrivacyLevel.PERTURBATION_ONLY,
        sources=(20, 22, 24),
        readings={20: 1, 22: 2, 24: 3},
    ))
    assert len(report.unpaired_sources) == 1
    assert len(report.flows) == 1


def test_pipeline_deterministic():
    cfg = base_config(
        level=PrivacyLevel.FULL,
        sources=(22, 24),
        readings={22: 5, 24: 7},
        receptor_length=4,
    )
    doc1 = json.dumps(run_pipeline(cfg).to_doc(), sort_keys=True)
    doc2 = json.dumps(run_pipeline(cfg).to_doc(), sort_keys=True)
    assert doc1 == doc2
    other = json.dumps(
        run_pipeline(base_config(
            level=PrivacyLevel.FULL,
            sources=(22, 24),
            readings={22: 5, 24: 7},
            receptor_length=4,
            master_seed=43,
        )).to_doc(),
        sort_keys=True,
    )
    assert doc1 != other


@pytest.mark.parametrize("radio_range", [1.0, 1.5])
def test_runs_on_one_shape_do_not_leak_through_shared_tables(radio_range):
    # Two runs on one grid shape, with different sinks and sources, share
    # the shape's tables; each must report as it does on a fresh cache.
    configs = [
        base_config(level=PrivacyLevel.FULL, radio_range=radio_range, sources=(22, 24),
                    readings={22: 5, 24: 7}, receptor_length=4),
        base_config(level=PrivacyLevel.ANONYMITY_ONLY, radio_range=radio_range, sink=12,
                    sources=(0, 4, 20), readings={0: 1, 4: 2, 20: 3},
                    walk=WalkConfig(WalkMode.DIRECTED, 3)),
    ]
    back_to_back = [run_pipeline(config).to_doc() for config in configs]
    for config, doc in zip(configs, back_to_back):
        netsim._lattice.cache_clear()
        assert run_pipeline(config).to_doc() == doc


def test_two_way_delivery_route():
    report = run_pipeline(base_config(
        level=PrivacyLevel.ANONYMITY_ONLY,
        receptor_length=5,
    ))
    assert report.flows[0].delivered_value == 5
    assert report.flows[0].route_hops >= 1
