import copy
import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnpriv.climetrics import ClusterSizeDist, DisclosureModel, disclosure_probability
from wsnpriv.keymgmt import (
    AuthenticationError,
    ProtocolError,
    StreamMacCipher,
    establish_ss_channel,
    open_frame,
)
from wsnpriv.ppda import (
    DEFAULT_MODULUS,
    AggregationResult,
    PrimeField,
    SeedAssignment,
    SppdaCluster,
    _is_prime,
    gen_shares,
    node_aggregate,
    run_cpda,
    run_sppda,
    solve_aggregate,
)
from wsnpriv.rng import SimRng

F = PrimeField()
P = DEFAULT_MODULUS


# --- independent oracles ---

def oracle_share(v, r1, r2, s, p=P):
    """Brute-force polynomial evaluation, no Horner, no reuse of library code."""
    return (v + r1 * s + (r2 * s * s) % p) % p


def oracle_gauss_solve(xs, ys, p=P):
    """Gaussian elimination mod p on the power-basis system; returns the
    constant coefficient."""
    n = len(xs)
    mat = [[pow(x, j, p) for j in range(n)] + [y % p] for x, y in zip(xs, ys)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if mat[r][col] % p != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = pow(mat[col][col], p - 2, p)
        mat[col] = [(a * inv) % p for a in mat[col]]
        for r in range(n):
            if r != col and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[col])]
    return mat[0][n]


WORKED_SEEDS = SeedAssignment(participants=("A", "S1", "S2"), seeds=(1, 2, 3), field=F)


# --- field ---

PSI_12 = 318_665_857_834_031_151_167_461  # = 399165290221 * 798330580441
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(2**31)
    PrimeField(2**61 - 1)  # Mersenne prime, fine
    # psi_12 and psi_13 (Jiang & Deng 2014) are composites that pass
    # Miller-Rabin to every prime base 2..37; they are refused by size first.
    assert PSI_12 == 399_165_290_221 * 798_330_580_441
    for composite in (PSI_12, PSI_13):
        with pytest.raises(ValueError, match=f"^modulus: must be < {PSI_12}, "):
            PrimeField(composite)


def test_primality_test_matches_a_sieve():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    is_prime = _is_prime.__wrapped__  # uncached: 2e5 entries would stay in the cache
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # Strong pseudoprimes to the bases 2, 3, 5, 7 and to 2..31; primes past both.
    for n, prime in ((3_215_031_751, False), (3_825_123_056_546_413_051, False),
                     (65_537, True), (2**61 - 1, True)):
        assert is_prime(n) is prime, n


def test_primality_checked_once_per_modulus():
    before = _is_prime.cache_info()
    for _ in range(3):
        PrimeField(2**64 - 59)  # the largest 64-bit prime; no other test uses it
    after = _is_prime.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


def test_seed_assignment_invariants():
    with pytest.raises(ValueError):
        SeedAssignment(("A", "B"), (1, 1), F)
    with pytest.raises(ValueError):
        SeedAssignment(("A", "B"), (0, 1), F)
    with pytest.raises(ValueError):
        SeedAssignment(("A", "B"), (1,), F)


# --- shares ---

def test_zero_shares():
    assert gen_shares(0, [0, 0], WORKED_SEEDS) == [0, 0, 0]


def test_worked_example_shares():
    # Aggregator holds z=3 with coefficients (10, 20); oracle first.
    expected = [oracle_share(3, 10, 20, s) for s in (1, 2, 3)]
    assert expected == [33, 103, 213]
    assert gen_shares(3, [10, 20], WORKED_SEEDS) == expected


def test_shares_match_oracle_randomized():
    rng = random.Random(1234)
    for _ in range(1000):
        v, r1, r2 = (rng.randrange(P) for _ in range(3))
        seeds = SeedAssignment(("A",), (rng.randrange(1, P),), F)
        share = gen_shares(v, [r1, r2], seeds)[0]
        assert share == oracle_share(v, r1, r2, seeds.seeds[0])


@settings(max_examples=100, deadline=None)
@given(
    v=st.integers(min_value=0, max_value=P - 1),
    r1=st.integers(min_value=0, max_value=P - 1),
    r2=st.integers(min_value=0, max_value=P - 1),
    s=st.integers(min_value=1, max_value=P - 1),
)
def test_share_equation_conformance(v, r1, r2, s):
    seeds = SeedAssignment(("X",), (s,), F)
    share = gen_shares(v, [r1, r2], seeds)[0]
    assert share == oracle_share(v, r1, r2, s)


def oracle_poly(value, coeffs, s, p=P):
    """value + sum of c_k * s^k mod p, term by term with modular powers."""
    return sum(c * pow(s, k, p) for k, c in enumerate([value, *coeffs])) % p


@settings(max_examples=100, deadline=None)
@given(data=st.data(), degree=st.integers(0, 11))
def test_gen_shares_match_naive_polynomial_at_every_degree(data, degree):
    # The degree-(n-1) masks of run_cpda go through the same evaluator.
    value = data.draw(st.integers(-3 * P, 3 * P))
    coeffs = data.draw(st.lists(st.integers(0, P - 1), min_size=degree, max_size=degree))
    xs = data.draw(st.lists(st.integers(1, P - 1), min_size=1, max_size=12, unique=True))
    seeds = SeedAssignment(tuple(f"P{i}" for i in range(len(xs))), tuple(xs), F)
    assert gen_shares(value, coeffs, seeds) == [oracle_poly(value, coeffs, s) for s in xs]


# --- per-node sums ---

def worked_all_shares():
    coeffs = {"A": [10, 20], "S1": [30, 40], "S2": [50, 60]}
    values = {"A": 3, "S1": 5, "S2": 7}
    return {
        who: gen_shares(values[who], coeffs[who], WORKED_SEEDS)
        for who in ("A", "S1", "S2")
    }


def test_worked_example_node_sums():
    shares = worked_all_shares()
    # Hand oracle: per-seed share values, then their plain sums.
    assert shares["S1"] == [oracle_share(5, 30, 40, s) for s in (1, 2, 3)]
    assert shares["S2"] == [oracle_share(7, 50, 60, s) for s in (1, 2, 3)]
    expected_f = {"A": 33 + 75 + 117, "S1": 103 + 225 + 347, "S2": 213 + 455 + 697}
    assert expected_f == {"A": 225, "S1": 675, "S2": 1365}
    for who in ("A", "S1", "S2"):
        held = [shares[p][WORKED_SEEDS.participants.index(who)] for p in ("A", "S1", "S2")]
        assert node_aggregate(held, F) == expected_f[who]


def test_node_aggregate_zero():
    assert node_aggregate([0, 0], F) == 0


# --- solve ---

def test_worked_example_solve():
    # Oracle: Gaussian elimination on 225 = D + 90*1 + 120*1, etc.
    assert oracle_gauss_solve([1, 2, 3], [225, 675, 1365]) == 15
    assert solve_aggregate(WORKED_SEEDS, [225, 675, 1365]) == 15


@pytest.mark.parametrize("sums", [[225, 675], [225, 675, 1365, 0]])
def test_solve_needs_one_sum_per_seed(sums):
    with pytest.raises(ValueError, match="one node sum per seed"):
        solve_aggregate(WORKED_SEEDS, sums)


def test_solve_zero_values_any_randomness():
    rng = random.Random(5)
    for _ in range(50):
        seeds = SeedAssignment(
            ("A", "S1", "S2"),
            tuple(random.Random(rng.random()).sample(range(1, 10_000), 3)),
            F,
        )
        coeffs = {w: [rng.randrange(P), rng.randrange(P)] for w in seeds.participants}
        sums = [0, 0, 0]
        for w in seeds.participants:
            for i, share in enumerate(gen_shares(0, coeffs[w], seeds)):
                sums[i] = (sums[i] + share) % P
        assert solve_aggregate(seeds, sums) == 0


def test_solve_matches_gauss_oracle_randomized():
    rng = random.Random(99)
    for _ in range(300):
        xs = rng.sample(range(1, P), 3)
        ys = [rng.randrange(P) for _ in range(3)]
        seeds = SeedAssignment(("A", "S1", "S2"), tuple(xs), F)
        assert solve_aggregate(seeds, ys) == oracle_gauss_solve(xs, ys)


def reference_lagrange_at_zero(xs, ys, p=P):
    """Per-term Lagrange at 0, one pow inverse per basis polynomial."""
    total = 0
    for i, xi in enumerate(xs):
        num = den = 1
        for j, xj in enumerate(xs):
            if j != i:
                num = num * xj % p
                den = den * (xj - xi) % p
        total += ys[i] * num * pow(den, p - 2, p)
    return total % p


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(3, 16))
def test_solve_matches_per_term_lagrange(data, n):
    xs = data.draw(st.lists(st.integers(1, P - 1), min_size=n, max_size=n,
                            unique=True))
    ys = data.draw(st.lists(st.integers(0, P - 1), min_size=n, max_size=n))
    names = tuple(f"P{i}" for i in range(n))
    seeds = SeedAssignment(names, tuple(xs), F)
    assert solve_aggregate(seeds, ys) == reference_lagrange_at_zero(xs, ys)


def test_randomness_cancellation():
    # Re-drawing every R with values fixed never changes the recovered sum.
    rng = random.Random(7)
    seeds = SeedAssignment(("A", "S1", "S2"), (11, 222, 3333), F)
    values = {"A": 41, "S1": 512, "S2": 6003}
    results = set()
    for _ in range(25):
        sums = [0, 0, 0]
        for w in seeds.participants:
            coeffs = [rng.randrange(P), rng.randrange(P)]
            for i, share in enumerate(gen_shares(values[w], coeffs, seeds)):
                sums[i] = (sums[i] + share) % P
        results.add(solve_aggregate(seeds, sums))
    assert results == {41 + 512 + 6003}


def test_seed_permutation_equivariance():
    seeds = SeedAssignment(("A", "S1", "S2"), (4, 9, 25), F)
    d = solve_aggregate(seeds, [111, 222, 333])
    perm_seeds = SeedAssignment(("S2", "A", "S1"), (25, 4, 9), F)
    assert solve_aggregate(perm_seeds, [333, 111, 222]) == d


def test_aggregator_view_ambiguity():
    # For any candidate x', coefficients exist reproducing the observed
    # S1 -> A share exactly: privacy holds at the algebra level.
    rng = random.Random(11)
    for _ in range(100):
        a = rng.randrange(1, P)
        observed = rng.randrange(P)
        x_prime = rng.randrange(P)
        r1_prime = rng.randrange(P)
        r2_prime = (observed - x_prime - r1_prime * a) * pow(a * a, -1, P) % P
        assert oracle_share(x_prime, r1_prime, r2_prime, a) == observed


# Views in GF(7) over every coefficient pair of two other parties (7^4 cases);
# the seeds, z and the AF's own coefficients were fixed before the first run.
SMALL = PrimeField(7)
SMALL_SEEDS = SeedAssignment(("A", "S1", "S2"), (3, 5, 6), SMALL)
PAIRS = list(itertools.product(range(7), repeat=2))  # every (r1, r2)
SMALL_SHARES = {(v, c): gen_shares(v, c, SMALL_SEEDS) for v in range(7) for c in PAIRS}


def af_view(x, y, z=4, own=(2, 1)):
    """The AF's views as a multiset: the share each source sends it and each
    source's node sum, over every coefficient pair of S1 and of S2."""
    a = SMALL_SHARES[z, own]
    view = Counter()
    for c1, c2 in itertools.product(PAIRS, repeat=2):
        s1, s2 = SMALL_SHARES[x, c1], SMALL_SHARES[y, c2]
        view[s1[0], s2[0], node_aggregate((a[1], s1[1], s2[1]), SMALL),
             node_aggregate((a[2], s1[2], s2[2]), SMALL)] += 1
    return view


def s1_view(y, z):
    """S1's views as a multiset: the shares the AF and S2 send it, over every
    coefficient pair of the AF and of S2."""
    return Counter((SMALL_SHARES[z, ca][1], SMALL_SHARES[y, c2][1])
                   for ca, c2 in itertools.product(PAIRS, repeat=2))


def test_each_view_is_independent_of_what_its_holder_may_not_learn():
    # The AF learns x + y and nothing more: every (x, y) of one sum gives it
    # one multiset of views, and the 7 sums give 7 different ones.
    by_sum = {}
    for x, y in itertools.product(range(7), repeat=2):
        by_sum.setdefault((x + y) % 7, []).append(af_view(x, y))
    assert len(by_sum) == 7
    for views in by_sum.values():
        assert all(view == views[0] for view in views)
    assert len({frozenset(views[0].items()) for views in by_sum.values()}) == 7
    # S1 learns nothing of y or z.
    first = s1_view(0, 0)
    assert all(s1_view(y, z) == first for y, z in itertools.product(range(7), repeat=2))


# --- full protocol ---

def test_run_sppda_worked_example_any_seed():
    for seed in range(10):
        result = run_sppda(5, 7, 3, SimRng(seed))
        assert result == AggregationResult(total=15, pair_sum=12)


def test_run_sppda_zeroes_and_wraparound():
    assert run_sppda(0, 0, 0, SimRng(1)).pair_sum == 0
    assert run_sppda(P - 1, 1, 0, SimRng(2)).pair_sum == 0


@pytest.mark.parametrize("field_", [F, PrimeField(7919)], ids=repr)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_values_outside_the_field_are_reduced(field_, data):
    # Inputs may be negative or past p; every entry point reduces them mod p.
    p = field_.p
    x, y, z, v = (data.draw(st.integers(-3 * p, 3 * p)) for _ in range(4))
    r1, r2 = (data.draw(st.integers(0, p - 1)) for _ in range(2))
    names = ("A", "S1", "S2")
    xs = data.draw(st.lists(st.integers(1, p - 1), min_size=3, max_size=3, unique=True))
    seeds = SeedAssignment(names, tuple(xs), field_)
    assert gen_shares(v, [r1, r2], seeds) == [oracle_share(v % p, r1, r2, s, p) for s in xs]
    assert node_aggregate([x, y, z], field_) == (x + y + z) % p
    result = run_sppda(x, y, z, SimRng(data.draw(st.integers(0, 2**32))), field_)
    assert result.pair_sum == (x + y) % p
    assert result.total == (x + y + z) % p


def test_sppda_cluster_reuse_and_transcript():
    # n-party rounds, n = 3..12: sources' readings 100, 200, ..., then the AF's 50.
    for n in range(3, 13):
        cluster = SppdaCluster(SimRng(3, f"n:{n}"), node_ids=tuple(range(20, 20 + n)))
        readings = [100 * i for i in range(1, n)]
        result, transcript = cluster.run_round(*readings, 50)
        assert result.total == sum(readings) + 50 and result.pair_sum == sum(readings)
        kinds = [rec.kind for rec in transcript.frames]
        assert kinds.count("seed-broadcast") == 1
        assert kinds.count("share") == n * (n - 1)
        assert kinds.count("node-sum") == n - 1
        assert len(kinds) == 1 + n * (n - 1) + (n - 1)
        # Every source-to-source frame goes through the AF's relay, logged with
        # its SS slot only, and the AF holds no SS-bank key.
        relayed = [rec for rec in transcript.frames if "A" not in (rec.sender, rec.receiver)]
        assert len(relayed) == (n - 1) * (n - 2)
        for rec in relayed:
            assert rec.plaintext_fields.keys() == {"ss_index", "relayed_by"}
            assert rec.plaintext_fields["relayed_by"] == "A"
        for source in cluster.sources:
            assert cluster.af.held_keys().isdisjoint(source.bank_ss)
        # Second round on the same key infrastructure.
        assert cluster.run_round(*range(1, n + 1))[0].pair_sum == n * (n - 1) // 2


def test_cpda_three_party_matches_sppda_case():
    assert run_cpda([3, 5, 7], SimRng(4)) == 15


def test_cpda_zero():
    for n in (3, 5, 8):
        assert run_cpda([0] * n, SimRng(5)) == 0


def test_cpda_matches_direct_sum():
    rng = random.Random(6)
    for trial in range(100):
        vals = [rng.randrange(P) for _ in range(6)]
        assert run_cpda(vals, SimRng(trial)) == sum(vals) % P


def test_cpda_minimum_size():
    with pytest.raises(ValueError):
        run_cpda([1, 2], SimRng(1))


def test_transcript_serializable():
    import json

    cluster = SppdaCluster(SimRng(8))
    _, transcript = cluster.run_round(5, 7, 3)
    doc = transcript.to_doc()
    json.dumps(doc)  # must be JSON-clean
    assert doc["result"]["pair_sum"] == 12


def test_transcript_result_document_is_a_copy_of_the_result():
    _, transcript = SppdaCluster(SimRng(8)).run_round(5, 7, 3)
    doc = transcript.to_doc()
    assert list(doc["result"]) == [f.name for f in dataclasses.fields(AggregationResult)]
    before = copy.deepcopy(doc)
    doc["result"]["total"] = doc["result"]["pair_sum"] = -1
    assert transcript.result == AggregationResult(total=15, pair_sum=12)
    assert transcript.to_doc() == before


# --- data path: node sums come from the decrypted payloads ---

SETUP_AADS = (b"relay:", b"ss-perm:")  # key setup frames; every other frame is a round frame


class FlipRoundBit(StreamMacCipher):
    def seal(self, key, nonce, plaintext, aad=b""):
        body = super().seal(key, nonce, plaintext, aad)
        if aad.startswith(SETUP_AADS):
            return body
        return bytes([body[0] ^ 0x01]) + body[1:]


class BumpS1ToS2Share(StreamMacCipher):
    def open(self, key, nonce, body, aad=b""):
        plain = super().open(key, nonce, body, aad)
        return str(int(plain) + 1).encode() if aad == b"ss:1->2" else plain


class ReplaceRoundPayload(StreamMacCipher):
    def __init__(self, payload):
        self.payload = payload

    def open(self, key, nonce, body, aad=b""):
        plain = super().open(key, nonce, body, aad)
        return plain if aad.startswith(SETUP_AADS) else self.payload


class RecordingCipher(StreamMacCipher):
    """Logs every seal and open as (op, aad), in call order."""

    def __init__(self):
        self.log = []

    def seal(self, key, nonce, plaintext, aad=b""):
        self.log.append(("seal", aad))
        return super().seal(key, nonce, plaintext, aad)

    def open(self, key, nonce, body, aad=b""):
        self.log.append(("open", aad))
        return super().open(key, nonce, body, aad)


def relay_ops(a, b):
    """One SS relay leg a -> b: inner seal, sender -> AF, AF -> receiver with
    `tamper` in flight, inner open."""
    inner, relay = f"ss-perm:{a}->{b}".encode(), f"relay:{a}->{b}".encode()
    return [("seal", inner), ("seal", relay), ("open", relay), ("seal", relay),
            ("tamper", (a, b)), ("open", relay), ("open", inner)]


def test_seal_open_order_is_pinned():
    cipher = RecordingCipher()
    cluster = SppdaCluster(SimRng(25), node_ids=(7, 3, 5), cipher=cipher)
    setup = [op for op in relay_ops(3, 5) + relay_ops(5, 3) if op[0] != "tamper"]
    assert cipher.log == setup  # 6 seals, 6 opens

    cipher.log.clear()
    cluster.run_round(5, 7, 3)
    hops = [b"share:af->3", b"share:af->5", b"share:3->af", b"ss:3->5",
            b"share:5->af", b"ss:5->3", b"node-sum:3->af", b"node-sum:5->af"]
    assert cipher.log == [(op, aad) for aad in hops for op in ("seal", "open")]

    def tamper(frame):
        cipher.log.append(("tamper", (frame.sender, frame.receiver)))
        return frame

    cipher.log.clear()
    establish_ss_channel(*cluster.sources, cluster.af, SimRng(26), cipher, tamper)
    assert cipher.log == relay_ops(3, 5) + relay_ops(5, 3)

    # With more sources, each pair (S_i, S_j), i < j, gets its channel in turn.
    cipher.log.clear()
    SppdaCluster(SimRng(27), node_ids=(7, 3, 5, 4), cipher=cipher)
    pairs = ((3, 5), (3, 4), (5, 4))
    assert cipher.log == [op for a, b in pairs for op in relay_ops(a, b) + relay_ops(b, a)
                          if op[0] != "tamper"]


def test_round_frame_bit_flip_is_authentication_error():
    cluster = SppdaCluster(SimRng(21), cipher=FlipRoundBit())
    with pytest.raises(AuthenticationError):
        cluster.run_round(5, 7, 3)


def test_node_sum_is_sum_of_decrypted_shares():
    def node_sums(cipher):
        _, transcript = SppdaCluster(SimRng(22), cipher=cipher).run_round(5, 7, 3)
        return dict(zip(transcript.seeds.participants, transcript.sums))

    honest = node_sums(StreamMacCipher())
    bumped = node_sums(BumpS1ToS2Share())
    assert bumped["S2"] == (honest["S2"] + 1) % P
    assert bumped["A"] == honest["A"] and bumped["S1"] == honest["S1"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "every source holds the whole AF bank, and the tag tells a key holder which "
    "key is right, so S2 opens S1's AF-link frames by trial decryption"))
def test_co_source_cannot_recover_x():
    # S2, honest but curious, eavesdrops on S1's AF-link frames and tries
    # every AF-bank key on each.  With S1's share at A's seed, S1's share at
    # S2's own seed (received over the SS relay) and S1's share at S1's seed
    # (S1's node sum minus A's and S2's shares there), it holds three points
    # of S1's quadratic and interpolates x at 0.
    def trial_open(cluster, rec, aad):
        for key in cluster.sources[1].bank_af:
            try:
                return int(cluster.cipher.open(key, rec.frame.nonce, rec.frame.body, aad))
            except AuthenticationError:
                continue
        return None

    recovered = []
    for seed in range(10):
        x, y, z = 1000 + seed, 2000 + seed, 3000 + seed
        cluster = SppdaCluster(SimRng(seed, "co-source"))
        _, transcript = cluster.run_round(x, y, z)
        frames = {(rec.kind, rec.sender, rec.receiver): rec for rec in transcript.frames}
        s1, s2 = (source.node_id for source in cluster.sources)
        at_a = trial_open(cluster, frames["share", "S1", "A"], f"share:{s1}->af".encode())
        a_at_s1 = trial_open(cluster, frames["share", "A", "S1"], f"share:af->{s1}".encode())
        sum_s1 = trial_open(cluster, frames["node-sum", "S1", "A"], f"node-sum:{s1}->af".encode())
        ss = frames["share", "S1", "S2"]
        at_s2 = int(open_frame(*cluster.sources[1].link(s1, s2),
                               ss.plaintext_fields["ss_index"], ss.frame,
                               f"ss:{s1}->{s2}".encode(), cluster.cipher))
        # S2's own mask, drawn as run_round draws it.
        draw = SimRng(seed, "co-source").stream("round:1").stream("coeffs:S2").randrange
        own_at_s1 = gen_shares(y, [draw(P), draw(P)], transcript.seeds)[1]
        if None in (at_a, a_at_s1, sum_s1):
            recovered.append(None)
            continue
        at_s1 = (sum_s1 - a_at_s1 - own_at_s1) % P
        recovered.append(solve_aggregate(transcript.seeds, [at_a, at_s1, at_s2]))
    assert all(got != 1000 + seed for seed, got in enumerate(recovered))


@pytest.mark.parametrize("payload", [b"not-a-number", b"-1", str(P).encode(), b""])
def test_payload_outside_field_is_protocol_error(payload):
    cluster = SppdaCluster(SimRng(23), cipher=ReplaceRoundPayload(payload))
    with pytest.raises(ProtocolError):
        cluster.run_round(5, 7, 3)


def round_frame_label(rec, src, dst):
    """(aad, slot) of a sealed round frame from node src to node dst, as its
    receiver reads them off the frame's kind, ends and plaintext fields."""
    fields = rec.plaintext_fields
    if "ss_index" in fields:
        return f"ss:{src.node_id}->{dst.node_id}".encode(), fields["ss_index"]
    aad = (f"{rec.kind}:af->{dst.node_id}" if rec.sender == "A"
           else f"{rec.kind}:{src.node_id}->af")
    return aad.encode(), fields["r_c"]


def test_round_frames_replay_under_receiver_keys():
    # In n-party rounds, n = 3..12, every sealed round frame opens under its
    # receiver's own key state at the slot its plaintext fields announce,
    # giving the share (or node sum) that receiver summed.  Shares are rebuilt
    # from the round's streams, n - 1 coefficients from each participant's.
    for n in range(3, 13):
        rng = SimRng(24, f"n:{n}")
        cluster = SppdaCluster(rng, node_ids=tuple(range(n)))
        readings = [5 + 2 * i for i in range(n - 1)]  # 5, 7 at n = 3; the AF's is 3
        _, transcript = cluster.run_round(*readings, 3)
        names = transcript.seeds.participants
        assert names == ("A", *(f"S{i}" for i in range(1, n)))
        nodes = dict(zip(names, (cluster.af, *cluster.sources)))
        round_rng = rng.stream("round:1")
        shares = {}
        for who, v in zip(names, (3, *readings)):
            draw = round_rng.stream(f"coeffs:{who}").randrange
            evaluated = gen_shares(v, [draw(P) for _ in range(n - 1)], transcript.seeds)
            shares.update(((who, at), share) for at, share in zip(names, evaluated))
        summed = dict(zip(names, transcript.sums))
        held = {who: shares[(who, who)] for who in summed}
        round_frames = [rec for rec in transcript.frames if rec.frame is not None]
        assert len(round_frames) == n * (n - 1) + (n - 1)
        for rec in round_frames:
            src, dst = nodes[rec.sender], nodes[rec.receiver]
            aad, slot = round_frame_label(rec, src, dst)
            bank = dst.bank_ss if "ss_index" in rec.plaintext_fields else dst.bank_af
            link_bank, ordering = dst.link(src.node_id, dst.node_id)
            assert link_bank is bank
            value = int(open_frame(bank, ordering, slot, rec.frame, aad, StreamMacCipher()))
            if rec.kind == "share":
                assert value == shares[(rec.sender, rec.receiver)]
                held[rec.receiver] = (held[rec.receiver] + value) % P
            else:
                assert value == summed[rec.sender]
        assert held == summed


# --- disclosure from real transcripts ---

def round_equations(n, readings, z):
    """One SppdaCluster round of n parties, as an outside adversary who has
    broken links could read it: per link {sender, receiver}, each frame
    opened under its receiver's link, as (link, row, value).  A row is one
    linear equation over the n^2 mask coefficients, participant i's value
    and its n - 1 coefficients at columns i*n .. i*n + n - 1; the public
    seeds give its entries.  A share is its sender's polynomial at the
    receiver's seed, a node sum every participant's at the sender's own."""
    cluster = SppdaCluster(SimRng(40, f"disclose:{n}"), node_ids=tuple(range(10, 10 + n)))
    _, transcript = cluster.run_round(*readings, z)
    names = transcript.seeds.participants
    nodes = dict(zip(names, (cluster.af, *cluster.sources)))
    seed_of = dict(zip(names, transcript.seeds.seeds))
    equations = []
    for rec in transcript.frames:
        if rec.frame is None:  # the seed broadcast is plaintext
            continue
        src, dst = nodes[rec.sender], nodes[rec.receiver]
        aad, slot = round_frame_label(rec, src, dst)
        value = int(open_frame(*dst.link(src.node_id, dst.node_id), slot, rec.frame, aad,
                               cluster.cipher))
        at, polys = ((rec.receiver, [rec.sender]) if rec.kind == "share"
                     else (rec.sender, names))
        row = [0] * n * n
        for who in polys:
            i = names.index(who)
            row[i * n:(i + 1) * n] = [pow(seed_of[at], k, P) for k in range(n)]
        equations.append((frozenset((rec.sender, rec.receiver)), row, value))
    return names, equations


def eliminate(row, value, basis, p=P):
    """(row, value) less each basis row, scaled to clear its pivot column."""
    for col, prow, pval in basis:
        if f := row[col]:
            row = [(a - f * b) % p for a, b in zip(row, prow)]
            value = (value - f * pval) % p
    return row, value


def solve_for(equations, column, width, p=P):
    """The value of unknown `column` if the equations determine it, else None.
    Gauss-Jordan elimination mod p keeps each basis row 1 at its pivot and 0 at
    every other pivot; the unit row at `column` then reduces to zero exactly
    when it lies in the equations' row space."""
    basis = []  # (pivot column, row, value)
    for row, value in equations:
        row, value = eliminate(row, value, basis, p)
        pivot = next((c for c, a in enumerate(row) if a), None)
        if pivot is None:
            continue
        inv = pow(row[pivot], -1, p)
        new = (pivot, [a * inv % p for a in row], value * inv % p)
        basis = [(col, *eliminate(prow, pval, [new], p)) for col, prow, pval in basis]
        basis.append(new)
    unit = [0] * width
    unit[column] = 1
    rest, minus = eliminate(unit, 0, basis, p)
    return None if any(rest) else -minus % p


@pytest.mark.parametrize("n", [3, 4])
def test_disclosure_from_transcripts_matches_all_links(n):
    # An outside adversary reads the frames on each set of broken links, and
    # knows the public seeds but not the gateway's x + y.  Summed exactly over
    # those sets, a member's chance of disclosure is ALL_LINKS's b^(m-1).
    readings = [1_000 + 111 * i for i in range(1, n)]
    names, equations = round_equations(n, readings, 777)
    links = sorted({link for link, _, _ in equations}, key=sorted)
    assert len(links) == n * (n - 1) // 2  # every pair of the cluster exchanges frames
    disclosing = {who: [] for who in names}
    for size in range(len(links) + 1):
        for broken in itertools.combinations(links, size):
            read = [(row, value) for link, row, value in equations if link in broken]
            for i, (who, reading) in enumerate(zip(names, (777, *readings))):
                got = solve_for(read, i * n, n * n)
                if got is not None:
                    assert got == reading
                    disclosing[who].append(size)
    # The AF's own share is never sent, so its reading is never disclosed.
    assert disclosing["A"] == []
    dist = ClusterSizeDist(n, n, (1.0,))
    for i in range(21):
        b = round(i * 0.05, 2)
        all_links = disclosure_probability(b, dist, DisclosureModel.ALL_LINKS)
        any_link = disclosure_probability(b, dist, DisclosureModel.ANY_LINK)
        fb = Fraction(b)
        for who in names[1:]:
            exact = sum(fb ** k * (1 - fb) ** (len(links) - k) for k in disclosing[who])
            assert float(exact) == pytest.approx(all_links, rel=1e-12, abs=0)
            assert any_link >= float(exact)
