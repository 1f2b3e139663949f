import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnpriv.keymgmt import (
    AggregatorNode,
    AuthenticationError,
    KeyIndexRangeError,
    ProtocolError,
    SealedFrame,
    SourceNode,
    StreamMacCipher,
    establish_ss_channel,
    KEY_LEN,
    SS_BANK_MAX,
    _decode_perm,
    _encode_perm,
    _hmac_sha256,
    generate_pool,
    hop,
    open_frame,
    permute_bank_for_pair,
    register_pair,
    seal_frame,
)
from wsnpriv.ppda import SppdaCluster
from wsnpriv.rng import SimRng

CIPHER = StreamMacCipher()


def make_trio(seed=1, total=32, af=16):
    pool = generate_pool(total, af, SimRng(seed, "pool"))
    agg = AggregatorNode(node_id=0, bank_af=pool.bank_af)
    s1 = SourceNode(node_id=1, bank_af=pool.bank_af, bank_ss=pool.bank_ss)
    s2 = SourceNode(node_id=2, bank_af=pool.bank_af, bank_ss=pool.bank_ss)
    register_pair(s1, agg, SimRng(seed, "p1"))
    register_pair(s2, agg, SimRng(seed, "p2"))
    return pool, agg, s1, s2


# --- pool ---

def test_minimal_pool():
    pool = generate_pool(2, 1, SimRng(1))
    assert len(pool.bank_af) == 1 and len(pool.bank_ss) == 1
    assert pool.bank_af[0] != pool.bank_ss[0]


def test_pool_split_and_uniqueness():
    pool = generate_pool(256, 128, SimRng(2))
    assert len(pool.bank_af) == len(pool.bank_ss) == 128
    assert len(set(pool.bank_af + pool.bank_ss)) == 256


def test_pool_deterministic():
    assert generate_pool(64, 32, SimRng(3)) == generate_pool(64, 32, SimRng(3))


def reference_pool_keys(total, rng):
    """The one-key-at-a-time draw generate_pool must reproduce."""
    keys, seen = [], set()
    while len(keys) < total:
        k = rng.randbytes(KEY_LEN)
        if k not in seen:
            seen.add(k)
            keys.append(k)
    return keys


class ScriptedBytes:
    """A randbytes source reading one fixed byte string front to back."""

    def __init__(self, data):
        self.data, self.pos = data, 0

    def randbytes(self, n):
        self.pos += n
        if self.pos > len(self.data):
            raise AssertionError("script exhausted")
        return self.data[self.pos - n:self.pos]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64), total=st.integers(2, 300), data=st.data())
def test_pool_matches_one_key_loop(seed, total, data):
    af = data.draw(st.integers(1, total - 1))
    rng, twin = SimRng(seed, "pool"), SimRng(seed, "pool")
    pool = generate_pool(total, af, rng)
    assert list(pool.bank_af + pool.bank_ss) == reference_pool_keys(total, twin)
    assert rng.getstate() == twin.getstate()


def test_pool_duplicate_key_falls_back_to_one_key_draws():
    a, b, c, d = (bytes(range(i, i + KEY_LEN)) for i in range(4))
    script = a + b + a + b + c + a + d + b  # 2 repeats in the first 4, 1 after
    used, reference = ScriptedBytes(script), ScriptedBytes(script)
    pool = generate_pool(4, 2, used)
    assert list(pool.bank_af + pool.bank_ss) == reference_pool_keys(4, reference) == [a, b, c, d]
    assert used.pos == reference.pos == 7 * KEY_LEN


def test_pool_invalid_split():
    with pytest.raises(ValueError):
        generate_pool(4, 4, SimRng(1))
    with pytest.raises(ValueError):
        generate_pool(4, 0, SimRng(1))


# --- permutations ---

def test_permutation_size_one_is_identity():
    assert permute_bank_for_pair(1, SimRng(1)) == (0,)


def test_permutation_composes_with_inverse():
    perm = permute_bank_for_pair(5, SimRng(4))
    assert sorted(perm) == list(range(5))
    inverse = [0] * 5
    for i, p in enumerate(perm):
        inverse[p] = i
    assert tuple(inverse[p] for p in perm) == tuple(range(5))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64), n=st.integers(1, 300))
def test_permutation_matches_random_shuffle(seed, n):
    rng, twin = SimRng(seed, "perm"), SimRng(seed, "perm")
    order = list(range(n))
    twin.shuffle(order)
    assert permute_bank_for_pair(n, rng) == tuple(order)
    assert rng.getstate() == twin.getstate()


def test_pair_permutations_independent():
    collisions = sum(
        permute_bank_for_pair(8, SimRng(s, "pair-a"))
        == permute_bank_for_pair(8, SimRng(s, "pair-b"))
        for s in range(100)
    )
    assert collisions < 5  # 1/8! per pair; any repeat at all is unlikely


# --- session key selection ---

def test_select_resolve_round_trip_exhaustive():
    # Every slot drawn at one end of the pair selects the key the other end
    # resolves from its own copy of the ordering, in both directions.
    _, agg, s1, _ = make_trio()
    seen = set()
    rng = SimRng(5)
    for i in range(2000):
        payload = i.to_bytes(2, "big")
        slot, frame = seal_frame(*s1.link(0, 0), 1, 0, payload, b"up", rng, CIPHER)
        assert open_frame(*agg.link(1, 0), slot, frame, b"up", CIPHER) == payload
        assert CIPHER.open(s1.bank_af[s1.link(0, 0)[1][slot - 1]], frame.nonce, frame.body,
                           b"up") == payload
        seen.add(slot)
        slot, frame = seal_frame(*agg.link(1, 1), 0, 1, payload, b"down", rng, CIPHER)
        assert open_frame(*s1.link(0, 1), slot, frame, b"down", CIPHER) == payload
        seen.add(slot)
    assert seen == set(range(1, len(s1.bank_af) + 1))


def test_select_uniformity():
    pool = generate_pool(16, 8, SimRng(6))
    agg = AggregatorNode(node_id=0, bank_af=pool.bank_af)
    src = SourceNode(node_id=1, bank_af=pool.bank_af, bank_ss=pool.bank_ss)
    register_pair(src, agg, SimRng(6, "p"))
    counts = [0] * 8
    n = 10_000
    rng = SimRng(7)
    for _ in range(n):
        slot, _ = seal_frame(*src.link(0, 0), 1, 0, b"", b"", rng, CIPHER)
        counts[slot - 1] += 1
    mean = n / 8
    sigma = (n * (1 / 8) * (7 / 8)) ** 0.5
    for c in counts:
        assert abs(c - mean) <= 3 * sigma


def test_af_resolve_errors():
    _, agg, s1, _ = make_trio()
    slot, frame = seal_frame(*s1.link(0, 0), 1, 0, b"x", b"", SimRng(33), CIPHER)
    with pytest.raises(KeyIndexRangeError):
        open_frame(*agg.link(1, 0), 0, frame, b"", CIPHER)
    with pytest.raises(KeyIndexRangeError):
        open_frame(*agg.link(1, 0), len(s1.bank_af) + 1, frame, b"", CIPHER)
    with pytest.raises(ProtocolError, match="node 0 has no key link to node 42"):
        open_frame(*agg.link(42, 0), slot, frame, b"", CIPHER)


def test_eavesdropper_candidate_set_is_whole_bank():
    # A third source holding the same bank but not this pair's permutation
    # learns nothing from R_c beyond "one of the bank": every bank slot is a
    # possible target of some permutation, so its candidate set is the bank.
    pool, _, s1, _ = make_trio()
    r_c = 3
    candidates = {
        pool.bank_af[perm_image]
        for perm_image in range(len(pool.bank_af))
    }
    assert len(candidates) == len(pool.bank_af)
    assert s1.bank_af[s1.link(0, 0)[1][r_c - 1]] in candidates


# --- sealed-frame primitive ---

def test_open_frame_at_other_slot_fails():
    _, agg, s1, _ = make_trio()
    slot, frame = seal_frame(*s1.link(0, 0), 1, 0, b"payload", b"aad", SimRng(30), CIPHER)
    _, ordering = agg.link(1, 0)
    assert open_frame(agg.bank_af, ordering, slot, frame, b"aad", CIPHER) == b"payload"
    for other in range(1, len(ordering) + 1):
        if other != slot:
            with pytest.raises(AuthenticationError):
                open_frame(agg.bank_af, ordering, other, frame, b"aad", CIPHER)


def test_frame_slot_outside_ordering_is_range_error():
    _, agg, s1, _ = make_trio()
    _, frame = seal_frame(*s1.link(0, 0), 1, 0, b"x", b"", SimRng(31), CIPHER)
    for slot in (0, len(s1.bank_af) + 1):
        with pytest.raises(KeyIndexRangeError):
            open_frame(*agg.link(1, 0), slot, frame, b"", CIPHER)


def test_seal_frame_draws_slot_then_nonce():
    _, _, s1, _ = make_trio()
    used, expected = SimRng(32), SimRng(32)
    slot, frame = seal_frame(*s1.link(0, 0), 1, 0, b"x", b"", used, CIPHER)
    assert slot == expected.randint(1, len(s1.bank_af))
    assert frame.nonce == expected.randbytes(16)
    assert used.getstate() == expected.getstate()


# --- SS channel bootstrap ---

def test_ss_channel_both_ends_identical():
    _, agg, s1, s2 = make_trio()
    schedule = establish_ss_channel(s1, s2, agg, SimRng(8), CIPHER)
    for receiver in (1, 2):
        assert s1.link(2, receiver) == s2.link(1, receiver) == (s1.bank_ss, schedule[receiver])
    assert schedule.keys() == {1, 2}
    for perm in schedule.values():
        assert sorted(perm) == list(range(len(s1.bank_ss)))


def test_ss_channel_deterministic():
    def run(seed):
        _, agg, s1, s2 = make_trio(seed=9)
        establish_ss_channel(s1, s2, agg, SimRng(seed, "ss"), CIPHER)
        return s1.link(2, 1), s1.link(2, 2)

    assert run(10) == run(10)
    assert run(10) != run(11)


def test_ss_channel_tamper_detected():
    _, agg, s1, s2 = make_trio()

    def flip_bit(frame):
        body = bytearray(frame.body)
        body[0] ^= 0x01
        return SealedFrame(frame.sender, frame.receiver, frame.nonce, bytes(body))

    with pytest.raises(AuthenticationError):
        establish_ss_channel(s1, s2, agg, SimRng(12), CIPHER, tamper=flip_bit)


class RewritingCipher:
    """A duck-typed cipher= that rewrites each plaintext it opens under an
    AAD starting with `prefix`, as a faulty or hostile implementation might."""

    def __init__(self, prefix, rewrite):
        self.prefix, self.rewrite = prefix, rewrite

    def seal(self, key, nonce, plaintext, aad=b""):
        return CIPHER.seal(key, nonce, plaintext, aad)

    def open(self, key, nonce, body, aad=b""):
        plain = CIPHER.open(key, nonce, body, aad)
        return self.rewrite(plain) if aad.startswith(self.prefix) else plain


def test_ss_channel_refuses_a_short_relay_payload():
    # u32 slot || 16-byte nonce || at least a 16-byte tag: 36 bytes, cut to 35.
    _, agg, s1, s2 = make_trio()
    cipher = RewritingCipher(b"relay:", lambda plain: plain[:35])
    with pytest.raises(ProtocolError, match="^malformed relay payload: too short$"):
        establish_ss_channel(s1, s2, agg, SimRng(42), cipher)


def test_ss_channel_refuses_a_changed_ordering():
    # Two slots of the relayed ordering swapped still decode as a permutation.
    _, agg, s1, s2 = make_trio()
    cipher = RewritingCipher(b"ss-perm:", lambda plain: plain[1:2] + plain[:1] + plain[2:])
    with pytest.raises(ProtocolError, match="^relayed permutation does not match the original$"):
        establish_ss_channel(s1, s2, agg, SimRng(43), cipher)


def test_relay_opacity_inner_frame_unreadable_by_af():
    # The inner permutation message the AF relays is sealed under an SS-bank
    # key; every key the AF holds must fail authentication against it.
    _, agg, s1, s2 = make_trio()
    relayed = []

    def capture(frame):
        relayed.append(frame)
        return frame

    schedule = establish_ss_channel(s1, s2, agg, SimRng(13), CIPHER, tamper=capture)
    assert len(relayed) == 2
    for frame, receiver in zip(relayed, (s2, s1)):
        outer_aad = f"relay:{frame.sender}->{frame.receiver}".encode()
        _, af_ordering = receiver.link(agg.node_id, receiver.node_id)
        payloads = []
        for slot in range(1, len(af_ordering) + 1):
            try:
                payloads.append(open_frame(receiver.bank_af, af_ordering, slot,
                                           frame, outer_aad, CIPHER))
            except AuthenticationError:
                pass
        assert len(payloads) == 1  # the outer layer opens at one slot only
        payload = payloads[0]
        ss_index = int.from_bytes(payload[:4], "big")
        inner = SealedFrame(frame.sender, frame.receiver, payload[4:20], payload[20:])
        inner_aad = f"ss-perm:{frame.sender}->{frame.receiver}".encode()
        for key in agg.held_keys():
            with pytest.raises(AuthenticationError):
                CIPHER.open(key, inner.nonce, inner.body, inner_aad)
        # The intended receiver opens it with its SS key and reads the sender's ordering.
        plain = CIPHER.open(receiver.bank_ss[ss_index - 1], inner.nonce, inner.body, inner_aad)
        assert plain == bytes(schedule[frame.sender])


@pytest.mark.parametrize("n", [1, 255, 256, 257, SS_BANK_MAX])
def test_ordering_message_round_trip(n):
    # One byte per slot up to 256 keys, else u16 big-endian, up to SS_BANK_MAX.
    perm = permute_bank_for_pair(n, SimRng(n, "ordering-message"))
    blob = _encode_perm(perm)
    assert len(blob) == n * (1 if n <= 256 else 2)
    assert _decode_perm(blob, n) == perm


@pytest.mark.parametrize("n", [16, 256, 257])
def test_ordering_message_of_wrong_length_is_protocol_error(n):
    # The receiver decodes by its own bank size: one byte short or long, or
    # a message for a bank of another size, is refused at either width.
    blob = _encode_perm(tuple(range(n)))
    for bad, size in ((blob[:-1], n), (blob + b"\0", n), (blob, n - 1), (blob, n + 1)):
        with pytest.raises(ProtocolError, match="malformed permutation message"):
            _decode_perm(bad, size)


@pytest.mark.parametrize("n_ss", [256, 257])
def test_ss_channel_at_the_ordering_width_boundary(n_ss):
    _, agg, s1, s2 = make_trio(total=16 + n_ss, af=16)
    schedule = establish_ss_channel(s1, s2, agg, SimRng(40), CIPHER)
    for receiver in (1, 2):
        assert s1.link(2, receiver) == s2.link(1, receiver) == (s1.bank_ss, schedule[receiver])
        assert sorted(schedule[receiver]) == list(range(n_ss))


def test_ss_setup_wire_sizes():
    # With the default 128-key SS bank, each direction seals a 128-byte
    # ordering message, then relays u32 slot || nonce || 128 + 16-byte body
    # (164 bytes) over two hops.
    class RecordingCipher(StreamMacCipher):
        def __init__(self):
            self.sealed = []

        def seal(self, key, nonce, plaintext, aad=b""):
            self.sealed.append(len(plaintext))
            return super().seal(key, nonce, plaintext, aad)

    _, agg, s1, s2 = make_trio(total=256, af=128)
    cipher = RecordingCipher()
    establish_ss_channel(s1, s2, agg, SimRng(41), cipher)
    assert cipher.sealed == [128, 4 + 16 + 128 + 16, 164] * 2


def test_af_never_holds_ss_keys():
    pool, agg, s1, s2 = make_trio()
    establish_ss_channel(s1, s2, agg, SimRng(16), CIPHER)
    assert agg.held_keys().isdisjoint(pool.bank_ss)


# --- key links ---

def test_ss_send_receive_round_trip():
    # Both ends key an S1 -> S2 frame by S2's ordering of the SS bank.
    _, agg, s1, s2 = make_trio()
    schedule = establish_ss_channel(s1, s2, agg, SimRng(17), CIPHER)
    assert s1.link(2, 2) == s2.link(1, 2) == (s1.bank_ss, schedule[2])
    rng = SimRng(18)
    for payload in (b"", b"hello", bytes(range(256))):
        index, frame = seal_frame(*s1.link(2, 2), 1, 2, payload, b"ss:1->2", rng, CIPHER)
        assert open_frame(*s2.link(1, 2), index, frame, b"ss:1->2", CIPHER) == payload


def test_ss_send_without_schedule():
    _, _, s1, _ = make_trio()
    with pytest.raises(ProtocolError):
        s1.link(2, 2)


def test_source_link_only_to_its_af_and_ss_peers():
    # A source keys frames with the AF it was registered with and with its
    # SS peers; any other node, another AF included, has no link.
    _, agg, s1, s2 = make_trio()
    establish_ss_channel(s1, s2, agg, SimRng(35), CIPHER)
    perm = permute_bank_for_pair(len(s1.bank_af), SimRng(1, "p1"))  # as make_trio registers
    assert s1.link(0, 0) == s1.link(0, 1) == agg.link(1, 0) == (s1.bank_af, perm)
    other_af = AggregatorNode(node_id=7, bank_af=s1.bank_af)
    for peer in (other_af.node_id, 3, 1):
        with pytest.raises(ProtocolError, match=f"no key link to node {peer}"):
            s1.link(peer, peer)
    unregistered = SourceNode(node_id=4, bank_af=s1.bank_af, bank_ss=s1.bank_ss)
    with pytest.raises(ProtocolError):
        unregistered.link(0, 0)
    # In a built cluster both ends of every link key a frame to its receiver
    # alike, the AF links only to its two sources and only in the AF bank,
    # and a node outside the cluster is no node's peer.
    cluster = SppdaCluster(SimRng(36, "links"), node_ids=(5, 8, 9))
    nodes = (cluster.af, *cluster.sources)
    for src in nodes:
        for dst in nodes:
            if src is not dst:
                assert src.link(dst.node_id, dst.node_id) == dst.link(src.node_id, dst.node_id)
        with pytest.raises(ProtocolError, match=f"^node {src.node_id} has no key link to node 3$"):
            src.link(3, 3)
    assert set(cluster.af.links) == {(8, 5), (8, 8), (9, 5), (9, 9)}
    assert all(bank is cluster.af.bank_af for bank, _ in cluster.af.links.values())
    assert cluster.af.held_keys().isdisjoint(cluster.sources[0].bank_ss)


def test_identity_schedule_is_identity_order():
    bank = tuple(bytes([i]) * 16 for i in range(4))
    receiver = SourceNode(node_id=2, bank_af=bank, bank_ss=bank,
                          links={(1, 2): (bank, (0, 1, 2, 3))})
    nonce = b"n" * 16
    for i in range(1, 5):
        frame = SealedFrame(1, 2, nonce, CIPHER.seal(bank[i - 1], nonce, b"x", b"ss"))
        assert open_frame(*receiver.link(1, 2), i, frame, b"ss", CIPHER) == b"x"


# --- cipher ---

def test_seal_open_empty():
    key = b"k" * 16
    nonce = b"n" * 16
    assert CIPHER.open(key, nonce, CIPHER.seal(key, nonce, b""), b"") == b""


@settings(max_examples=50, deadline=None)
@given(payload=st.binary(max_size=1024), aad=st.binary(max_size=32))
def test_seal_open_round_trip(payload, aad):
    key = b"\x01" * 16
    nonce = b"\x02" * 16
    assert CIPHER.open(key, nonce, CIPHER.seal(key, nonce, payload, aad), aad) == payload


@pytest.mark.parametrize("key_len", [0, 1, 16, 63, 64, 65, 200])
def test_seal_tag_is_truncated_hmac_sha256(key_len):
    # Keys past the 64-byte SHA-256 block are hashed first, as RFC 2104 says.
    key, nonce, payload, aad = bytes(range(key_len)), b"\x03" * 16, b"payload" * 9, b"aad"
    body = CIPHER.seal(key, nonce, payload, aad)
    ct, tag = body[:-16], body[-16:]
    assert tag == hmac.digest(key, nonce + aad + ct, "sha256")[:16]
    assert CIPHER.open(key, nonce, body, aad) == payload


def test_keystream_is_the_documented_block_rule():
    # Block i is sha256(key || nonce || u64be(i)), concatenated and cut to
    # length; one block (up to 32 bytes) and many take different paths.
    key, nonce = bytes(range(16)), bytes(range(16, 32))
    for length in [*range(101), 255, 256, 276, 1000]:
        blocks = b"".join(hashlib.sha256(key + nonce + i.to_bytes(8, "big")).digest()
                          for i in range(-(-length // 32)))
        assert CIPHER._keystream(key, nonce, length) == blocks[:length], length


def test_open_refuses_a_body_shorter_than_the_tag():
    key, nonce = b"k" * 16, b"n" * 16
    body = CIPHER.seal(key, nonce, b"")  # the 16-byte tag alone opens
    assert CIPHER.open(key, nonce, body) == b""
    with pytest.raises(AuthenticationError, match="^body shorter than tag$"):
        CIPHER.open(key, nonce, body[:-1])


def test_open_with_wrong_key_fails():
    rng = SimRng(20)
    failures = 0
    for _ in range(1000):
        key = rng.randbytes(16)
        wrong = rng.randbytes(16)
        nonce = rng.randbytes(16)
        body = CIPHER.seal(key, nonce, rng.randbytes(24))
        try:
            CIPHER.open(wrong, nonce, body)
        except AuthenticationError:
            failures += 1
    assert failures == 1000


def test_open_wrong_aad_fails():
    # Right after the seal, so the open finds the seal's keystream cached.
    key, nonce = b"k" * 16, b"n" * 16
    for data in (b"data", bytes(164)):
        body = CIPHER.seal(key, nonce, data, b"aad-1")
        with pytest.raises(AuthenticationError):
            CIPHER.open(key, nonce, body, b"aad-2")


def _flip(index):
    def tamper(frame):
        body = bytearray(frame.body)
        body[index] ^= 0x01
        return SealedFrame(frame.sender, frame.receiver, frame.nonce, bytes(body))
    return tamper


def _new_nonce(frame):
    return SealedFrame(frame.sender, frame.receiver, bytes(b ^ 0xFF for b in frame.nonce),
                       frame.body)


@pytest.mark.parametrize("length", [10, 164])
@pytest.mark.parametrize("tamper", [_flip(0), _flip(-1), _new_nonce],
                         ids=["ciphertext-bit", "tag-bit", "nonce"])
def test_hop_open_checks_the_tag_over_a_cached_keystream(tamper, length):
    _, agg, s1, _ = make_trio()
    with pytest.raises(AuthenticationError):
        hop(s1, agg, (1, 0), bytes(range(length)), b"aad", SimRng(42), CIPHER, tamper)


def _cache_delta(cached, before):
    """(misses, hits) that an lru_cache'd function gained since `before`."""
    after = cached.cache_info()
    return after.misses - before.misses, after.hits - before.hits


def test_hop_open_reuses_the_seal_keystream():
    _, agg, s1, _ = make_trio()
    before = StreamMacCipher._keystream.cache_info()
    _, _, opened = hop(s1, agg, (1, 0), bytes(range(164)), b"aad", SimRng(43), CIPHER)
    assert opened == bytes(range(164))
    assert _cache_delta(StreamMacCipher._keystream, before) == (1, 1)


def test_hop_open_reuses_the_seal_tag():
    _, agg, s1, _ = make_trio()
    before = _hmac_sha256.cache_info()
    _, _, opened = hop(s1, agg, (1, 0), bytes(range(164)), b"aad", SimRng(44), CIPHER)
    assert opened == bytes(range(164))
    assert _cache_delta(_hmac_sha256, before) == (1, 1)


def test_cluster_setup_opens_every_frame_from_the_tag_memo():
    # Per direction: the inner seal, two relay hops, then the inner open
    # three seals after its seal, still within the memo's four entries.
    before = _hmac_sha256.cache_info()
    SppdaCluster(SimRng(45, "memo"))
    assert _cache_delta(_hmac_sha256, before) == (6, 6)


@pytest.mark.parametrize("length", [10, 164])
@pytest.mark.parametrize("index, delta", [(-1, (0, 1)), (0, (1, 0))],
                         ids=["tag-byte", "ciphertext-byte"])
def test_open_after_seal_fails_on_a_flipped_byte(length, index, delta):
    # The seal leaves its tag in the memo: a flipped tag byte finds it there
    # and fails the compare, a flipped ciphertext byte misses and is hashed.
    key, nonce = b"k" * 16, b"n" * 16
    body = bytearray(CIPHER.seal(key, nonce, bytes(range(length)), b"aad"))
    body[index] ^= 0x01
    before = _hmac_sha256.cache_info()
    with pytest.raises(AuthenticationError):
        CIPHER.open(key, nonce, bytes(body), b"aad")
    assert _cache_delta(_hmac_sha256, before) == delta


def test_sealed_frame_is_an_immutable_named_tuple():
    frame = SealedFrame(sender=1, receiver=2, nonce=b"n" * 16, body=b"b" * 20)
    assert frame == SealedFrame(1, 2, b"n" * 16, b"b" * 20)
    assert SealedFrame._fields == ("sender", "receiver", "nonce", "body")
    with pytest.raises(AttributeError):
        frame.body = b""


# Seal outputs recorded from the per-block SHA-256 / hmac.new cipher for
# payloads on both sides of the 32-byte keystream block boundary and the
# 276-byte SS relay payload.
KAT_KEY, KAT_NONCE, KAT_AAD = bytes(range(16)), bytes(range(16, 32)), b"kat"
KAT_SEALED = {
    0: "295e31b9e72950b207be03efea30e14c",
    1: "aa878ac3b92f90fcb2985b244fec5b410a",
    31: (
        "aadcf418361ca5890389ab438724d273ffc8a40ddd91b7a516437dcb22e921a0a37ce128736b21b2"
        "6114a4c6f28461"
    ),
    32: (
        "aadcf418361ca5890389ab438724d273ffc8a40ddd91b7a516437dcb22e9210c8247b0c4bd7b2e59"
        "6414a1873520dea8"
    ),
    33: (
        "aadcf418361ca5890389ab438724d273ffc8a40ddd91b7a516437dcb22e9210c8324096fe54d33de"
        "2619cd989d70e323f7"
    ),
    276: (
        "aadcf418361ca5890389ab438724d273ffc8a40ddd91b7a516437dcb22e9210c838b35c0927c1a9c"
        "a170cbd885d02aaa402c25841ad176738fbe64c7064bce6fb0af71a39a9731666734201308351ead"
        "650db751e162302e19b6715d3ab7157f9bafb22d5aa0a49659e6de6aaa2f2a5e1f48414093fac4b9"
        "2792fe126d72035af5ff98e532e6aaaddf1b730fa68fb8c3a06feb14aedcefe511c4e75a613097a7"
        "d33b64d786bacae57ae2f3024191dee4603bc210868c692f8666f92ade751e5a5f086f2729af1349"
        "eed8316a5c8e451c4442107ded4742f12a65f81d9f08ece9c2b291aa01d7e303d42af72dfbe85229"
        "80a856ea6cbd80049c2d5460f6a91308c05003bfd9a6896e69efc306972473b0434991b81b9495f0"
        "e4f7fa17b8995699c0665b4a"
    ),
}


@pytest.mark.parametrize("length", sorted(KAT_SEALED))
def test_seal_known_answers(length):
    payload = bytes((7 * i + 3) % 256 for i in range(length))
    body = CIPHER.seal(KAT_KEY, KAT_NONCE, payload, KAT_AAD)
    assert body.hex() == KAT_SEALED[length]
    assert CIPHER.open(KAT_KEY, KAT_NONCE, body, KAT_AAD) == payload
