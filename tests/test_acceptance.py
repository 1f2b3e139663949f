"""End-to-end acceptance gate.

One test per release criterion; each prints a single PASS line once all of
its assertions hold, so the -s log reads as a ten-line scorecard.  Expected
values are either recomputed here by independent brute-force oracles or are
trivially checkable by hand; nothing is copied out of the implementation.
"""

import math
import random
import time

from wsnpriv.climetrics import (
    ClusterSizeDist,
    DisclosureModel,
    HuntCampaign,
    bench_aggregation,
    bench_pipeline_pairs,
    disclosure_probability,
    montecarlo_hunt,
    rows_to_csv,
)
from wsnpriv.cli import main as cli_main
from wsnpriv.keymgmt import (
    AuthenticationError,
    SealedFrame,
    StreamMacCipher,
    establish_ss_channel,
    generate_pool,
    open_frame,
    register_pair,
    seal_frame,
)
from wsnpriv.keymgmt import AggregatorNode, SourceNode
from wsnpriv.netsim import build_grid
from wsnpriv.phantom import WalkConfig, hunt, min_zone_nodes
from wsnpriv.pipeline import PipelineConfig, PrivacyLevel, run_pipeline
from wsnpriv.ppda import (
    DEFAULT_MODULUS,
    PrimeField,
    SeedAssignment,
    SppdaCluster,
    gen_shares,
    run_cpda,
    run_sppda,
    solve_aggregate,
)
from wsnpriv.rng import SimRng

P = DEFAULT_MODULUS
FIELD = PrimeField()


def test_criterion_1_exact_recovery_at_scale():
    t0 = time.perf_counter()
    rng = random.Random(20260825)
    for i in range(10_000):
        x, y, z = rng.randrange(P), rng.randrange(P), rng.randrange(P)
        result = run_sppda(x, y, z, SimRng(i, "acc1"))
        assert result.pair_sum == (x + y) % P  # zero tolerance
    for n in (3, 6, 12):
        for i in range(1_000):
            vals = [rng.randrange(P) for _ in range(n)]
            assert run_cpda(vals, SimRng(i, f"acc1/cpda:{n}")) == sum(vals) % P
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: 10^4 sppda + 3x10^3 cpda exact in {elapsed:.1f}s")


def test_criterion_2_worked_example_against_oracle():
    def oracle_share(v, r1, r2, s):
        return (v + r1 * s + r2 * s * s) % P

    seeds = SeedAssignment(("A", "S1", "S2"), (1, 2, 3), FIELD)
    coeffs = {"A": (10, 20), "S1": (30, 40), "S2": (50, 60)}
    values = {"A": 3, "S1": 5, "S2": 7}
    expected_shares = {
        who: tuple(oracle_share(values[who], *coeffs[who], s) for s in (1, 2, 3))
        for who in values
    }
    assert expected_shares == {
        "A": (33, 103, 213), "S1": (75, 225, 455), "S2": (117, 347, 697)
    }
    produced = {
        who: tuple(gen_shares(values[who], coeffs[who], seeds)) for who in values
    }
    assert produced == expected_shares
    sums = [sum(expected_shares[w][i] for w in values) for i in range(3)]
    assert sums == [225, 675, 1365]
    d = solve_aggregate(seeds, sums)
    assert d == 15
    assert (d - values["A"]) % P == 12
    assert run_sppda(5, 7, 3, SimRng(1, "acc2")).pair_sum == 12
    print("ACCEPTANCE 2 PASS: worked example shares/F/D/pair_sum all oracle-matched")


def test_criterion_3_zone_planner():
    assert min_zone_nodes(0.01, 3).n_min == 10
    # A commonly quoted four-hop figure of "about 8" fails the inequality:
    assert math.comb(8, 4) == 70 and 70 <= 100 < math.comb(9, 4) == 126
    assert min_zone_nodes(0.01, 4).n_min == 9

    def brute(p_r, hops):
        n = hops
        while math.comb(n, hops) <= 1.0 / p_r:
            n += 1
        return n

    for p_r in (1e-1, 1e-2, 1e-3):
        for hops in range(1, 9):
            assert min_zone_nodes(p_r, hops).n_min == brute(p_r, hops)
    print("ACCEPTANCE 3 PASS: zone planner exact (H=3 -> 10, H=4 -> 9, brute scan)")


def test_criterion_4_safety_period_direction():
    t0 = time.perf_counter()
    (fl, ph) = montecarlo_hunt(HuntCampaign(
        grids=((30, 30),), strategies=("flood", "phantom:10"),
        trials=200, message_budget=200, master_seed=1,
    ))
    assert ph["median_safety"] > fl["median_safety"]
    cells = montecarlo_hunt(HuntCampaign(
        grids=((10, 10), (20, 20), (30, 30)), strategies=("twoway:10",),
        trials=100, message_budget=150, master_seed=1,
    ))
    medians = [c["median_safety"] for c in cells]
    assert medians == sorted(medians)  # non-decreasing with grid size
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "ACCEPTANCE 4 PASS: phantom median "
        f"{ph['median_safety']} > flood {fl['median_safety']}; "
        f"two-way medians {medians} non-decreasing ({elapsed:.1f}s)"
    )


def test_criterion_5_energy_and_latency_every_trial():
    topo = build_grid(12, 12)
    h = 6
    for seed in range(30):
        base = hunt(topo, WalkConfig(), 1, SimRng(seed, "acc5"))
        ph = hunt(topo, WalkConfig(hops=h), 1, SimRng(seed, "acc5"))
        assert ph.transmissions_total <= base.transmissions_total + h
        assert ph.delivery_latency_hops[0] >= base.delivery_latency_hops[0]
    print("ACCEPTANCE 5 PASS: 30/30 trials within +h transmissions, latency >= flood")


def test_criterion_6_timing_scaling():
    rows = bench_aggregation([3, 12], repetitions=30)
    cpda = {r.cluster_size: r.median_ns for r in rows if r.scheme == "cpda"}
    ratio_cpda = cpda[12] / cpda[3]
    assert ratio_cpda >= 4.0

    pair_rows = bench_pipeline_pairs([1, 8], repetitions=30)
    ratio_pairs = pair_rows[1].median_ns / pair_rows[0].median_ns
    assert 6.0 <= ratio_pairs <= 10.0
    print(
        f"ACCEPTANCE 6 PASS: cpda n=12/n=3 ratio {ratio_cpda:.1f} >= 4; "
        f"8x-pair pipeline ratio {ratio_pairs:.1f} in [6, 10]"
    )


def test_criterion_7_disclosure_model():
    b_grid = [round(i * 0.05, 2) for i in range(21)]
    assert len(b_grid) == 21
    for b in b_grid:
        assert disclosure_probability(b) == b ** 2  # fixed-3, all-links
    dist = ClusterSizeDist.uniform(3, 5)
    # Hand values: mean of b^2, b^3, b^4 and of 1-(1-b)^(m-1).
    assert abs(disclosure_probability(0.1, dist) - 0.0111 / 3) < 1e-12
    assert abs(disclosure_probability(0.5, dist) - 0.4375 / 3) < 1e-12
    assert abs(
        disclosure_probability(0.1, dist, DisclosureModel.ANY_LINK) - 0.8049 / 3
    ) < 1e-12
    assert abs(
        disclosure_probability(0.5, dist, DisclosureModel.ANY_LINK) - 2.5625 / 3
    ) < 1e-12
    for model in DisclosureModel:
        curve = [disclosure_probability(b, dist, model) for b in b_grid]
        assert curve[0] == 0.0 and curve[-1] == 1.0
        assert all(a <= b for a, b in zip(curve, curve[1:]))
    rows = [{"b": b, "p": disclosure_probability(b)} for b in b_grid]
    assert rows_to_csv(rows, ["b", "p"]) == rows_to_csv(rows, ["b", "p"])
    print("ACCEPTANCE 7 PASS: sppda curve == b^2 on 21 points; both models monotone 0->1")


def test_criterion_8_key_management():
    cipher = StreamMacCipher()
    bank_af, bank_ss = generate_pool(32, 16, SimRng(1, "acc8/pool"))
    agg = AggregatorNode(node_id=0, bank_af=bank_af)
    s1 = SourceNode(node_id=1, bank_af=bank_af, bank_ss=bank_ss)
    s2 = SourceNode(node_id=2, bank_af=bank_af, bank_ss=bank_ss)
    register_pair(s1, agg, SimRng(1, "acc8/p1"))
    register_pair(s2, agg, SimRng(1, "acc8/p2"))

    # Select/resolve agreement for every index in range: a frame sealed at
    # slot r_c with one end's ordering opens at r_c with the other end's.
    class AnnounceSlot:
        def __init__(self, r_c):
            self.r_c = r_c

        def randint(self, lo, hi):
            return self.r_c

        def randbytes(self, n):
            return bytes(n)

    for r_c in range(1, len(bank_af) + 1):
        slot, frame = seal_frame(*s1.link(0, 0), 1, 0, b"up", b"acc8",
                                 AnnounceSlot(r_c), cipher)
        assert slot == r_c
        assert open_frame(*agg.link(1, 0), r_c, frame, b"acc8", cipher) == b"up"
        _, frame = seal_frame(*agg.link(1, 1), 0, 1, b"down", b"acc8",
                              AnnounceSlot(r_c), cipher)
        assert open_frame(*s1.link(0, 1), r_c, frame, b"acc8", cipher) == b"down"

    # 10^3 relay fault injections: every one must surface as an auth failure.
    detected = 0
    fault_rng = random.Random(8)
    for trial in range(1_000):
        pos = fault_rng.randrange(64)
        bit = 1 << fault_rng.randrange(8)

        def tamper(frame, pos=pos, bit=bit):
            body = bytearray(frame.body)
            body[pos % len(body)] ^= bit
            return SealedFrame(frame.sender, frame.receiver, frame.nonce, bytes(body))

        try:
            establish_ss_channel(s1, s2, agg, SimRng(trial, "acc8/ss"), cipher,
                                 tamper=tamper)
        except AuthenticationError:
            detected += 1
    assert detected == 1_000  # zero silent acceptances

    # Full pipeline run, then the aggregator must still hold no SS-bank key.
    cfg = PipelineConfig(
        width=5, height=5, level=PrivacyLevel.FULL, sources=(22, 24),
        readings={22: 5, 24: 7}, master_seed=42,
    )
    assert run_pipeline(cfg).flows[0].delivered_value == 12
    cluster = SppdaCluster(SimRng(42, "pipeline").stream("cluster:0"))
    cluster.run_round(5, 7, 0)
    assert cluster.af.held_keys().isdisjoint(set(cluster.sources[0].bank_ss))
    print("ACCEPTANCE 8 PASS: select/resolve exhaustive; 1000/1000 tampers caught; "
          "AF holds no SS keys")


def test_criterion_9_pipeline_confidentiality():
    x, y = 1_900_000_123, 1_800_000_456
    for seed in range(5):
        report = run_pipeline(PipelineConfig(
            width=5, height=5, level=PrivacyLevel.FULL, sources=(22, 24),
            readings={22: x, 24: y}, master_seed=seed, aggregator_dummy=9,
        ))
        doc = report.to_doc()
        assert doc["flows"][0]["delivered_value"] == (x + y) % P
        exposed = []
        for transcript in doc["transcripts"]:
            exposed.extend(transcript["seeds"] or [])
            for frame in transcript["frames"]:
                for v in frame["plaintext_fields"].values():
                    exposed.extend(v if isinstance(v, list) else [v])
        assert x not in exposed and y not in exposed
    print("ACCEPTANCE 9 PASS: gateway records (x+y) mod p; x, y absent from all "
          "plaintext frame fields")


def test_criterion_10_cli_byte_determinism(tmp_path):
    digests = []
    for name in ("first", "second"):
        d = tmp_path / name
        for argv in (
            ["plan-zone", "--pr", "0.01", "--hops", "3"],
            ["aggregate", "--x", "5", "--y", "7", "--z", "3", "--seed", "4"],
            ["simulate-hunt", "--grid", "8x8", "--strategy", "flood",
             "--strategy", "phantom:4", "--trials", "20", "--budget", "60",
             "--seed", "2"],
            ["disclosure-curve", "--b-grid", "0:1:0.05", "--dist", "uniform:3..5"],
            ["run-scenarios", "scenarios/reference_sppda.json"],
        ):
            assert cli_main(["--out", str(d), *argv]) == 0
        digests.append({f.name: f.read_bytes() for f in sorted(d.iterdir())})
    assert digests[0].keys() == digests[1].keys()
    assert digests[0] == digests[1]
    print(f"ACCEPTANCE 10 PASS: {len(digests[0])} CLI output files byte-identical "
          "across repeated runs")
