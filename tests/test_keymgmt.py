import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnpriv.keymgmt import (
    AggregatorNode,
    AuthenticationError,
    KeyIndexAnnouncement,
    KeyIndexRangeError,
    ProtocolError,
    SealedFrame,
    SourceNode,
    SsSchedule,
    StreamMacCipher,
    UnknownSourceError,
    _wrap_perm_message,
    af_resolve_key,
    establish_ss_channel,
    generate_pool,
    open_frame,
    permute_bank_for_pair,
    register_pair,
    seal_frame,
    select_session_key,
    source_resolve_key,
    ss_receive,
    ss_send,
)
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
    assert pool.total == 256


def test_pool_deterministic():
    assert generate_pool(64, 32, SimRng(3)) == generate_pool(64, 32, SimRng(3))


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


def test_pair_permutations_independent():
    collisions = sum(
        permute_bank_for_pair(8, SimRng(s, "pair-a"))
        == permute_bank_for_pair(8, SimRng(s, "pair-b"))
        for s in range(100)
    )
    assert collisions < 5  # 1/8! per pair; any repeat at all is unlikely


# --- session key selection ---

def test_select_resolve_round_trip_exhaustive():
    _, agg, s1, _ = make_trio()
    seen = set()
    rng = SimRng(5)
    for _ in range(2000):
        ann, key = select_session_key(s1, rng)
        assert af_resolve_key(agg, ann) == key
        assert source_resolve_key(s1, ann.r_c) == key
        seen.add(ann.r_c)
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
        ann, _ = select_session_key(src, rng)
        counts[ann.r_c - 1] += 1
    mean = n / 8
    sigma = (n * (1 / 8) * (7 / 8)) ** 0.5
    for c in counts:
        assert abs(c - mean) <= 3 * sigma


def test_af_resolve_errors():
    _, agg, s1, _ = make_trio()
    with pytest.raises(KeyIndexRangeError):
        af_resolve_key(agg, KeyIndexAnnouncement(sender=1, r_c=0))
    with pytest.raises(KeyIndexRangeError):
        af_resolve_key(agg, KeyIndexAnnouncement(sender=1, r_c=len(s1.bank_af) + 1))
    with pytest.raises(UnknownSourceError):
        af_resolve_key(agg, KeyIndexAnnouncement(sender=42, r_c=1))


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
    assert s1.bank_af[s1.af_perm[r_c - 1]] in candidates


# --- sealed-frame primitive ---

def test_open_frame_at_other_slot_fails():
    _, agg, s1, _ = make_trio()
    slot, frame = seal_frame(s1.bank_af, s1.af_perm, 1, 0, b"payload", b"aad", SimRng(30), CIPHER)
    ordering = agg.af_ordering(1)
    assert open_frame(agg.bank_af, ordering, slot, frame, b"aad", CIPHER) == b"payload"
    for other in range(1, len(ordering) + 1):
        if other != slot:
            with pytest.raises(AuthenticationError):
                open_frame(agg.bank_af, ordering, other, frame, b"aad", CIPHER)


def test_frame_slot_outside_ordering_is_range_error():
    _, agg, s1, _ = make_trio()
    _, frame = seal_frame(s1.bank_af, s1.af_perm, 1, 0, b"x", b"", SimRng(31), CIPHER)
    for slot in (0, len(s1.af_perm) + 1):
        with pytest.raises(KeyIndexRangeError):
            open_frame(agg.bank_af, agg.af_ordering(1), slot, frame, b"", CIPHER)


def test_seal_frame_draws_slot_then_nonce():
    _, _, s1, _ = make_trio()
    used, expected = SimRng(32), SimRng(32)
    slot, frame = seal_frame(s1.bank_af, s1.af_perm, 1, 0, b"x", b"", used, CIPHER)
    assert slot == expected.randint(1, len(s1.af_perm))
    assert frame.nonce == expected.randbytes(16)
    assert used.getstate() == expected.getstate()


# --- SS channel bootstrap ---

def test_ss_channel_both_ends_identical():
    _, agg, s1, s2 = make_trio()
    schedule = establish_ss_channel(s1, s2, agg, SimRng(8), CIPHER)
    assert s1.ss_schedules[2].perm_by_owner == s2.ss_schedules[1].perm_by_owner
    assert schedule.perm_by_owner.keys() == {1, 2}
    for perm in schedule.perm_by_owner.values():
        assert sorted(perm) == list(range(len(s1.bank_ss)))


def test_ss_channel_deterministic():
    def run(seed):
        _, agg, s1, s2 = make_trio(seed=9)
        establish_ss_channel(s1, s2, agg, SimRng(seed, "ss"), CIPHER)
        return s1.ss_schedules[2].perm_by_owner

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


def test_relay_opacity_inner_frame_unreadable_by_af():
    # The inner permutation message is sealed under an SS-bank key; every
    # key the AF holds must fail authentication against it.
    _, agg, s1, s2 = make_trio()
    perm = permute_bank_for_pair(len(s1.bank_ss), SimRng(13))
    _, ss_index, _ = _wrap_perm_message(s1, s2.node_id, perm, SimRng(14), CIPHER)
    inner_aad = f"ss-perm:{s1.node_id}->{s2.node_id}".encode()
    inner_nonce = SimRng(15).randbytes(16)
    inner_body = CIPHER.seal(s1.bank_ss[ss_index - 1], inner_nonce,
                             b"\x00\x01" * len(perm), inner_aad)
    for key in agg.held_keys():
        with pytest.raises(AuthenticationError):
            CIPHER.open(key, inner_nonce, inner_body, inner_aad)
    # The intended receiver can open it.
    CIPHER.open(s1.bank_ss[ss_index - 1], inner_nonce, inner_body, inner_aad)


def test_af_never_holds_ss_keys():
    pool, agg, s1, s2 = make_trio()
    establish_ss_channel(s1, s2, agg, SimRng(16), CIPHER)
    assert agg.held_keys().isdisjoint(pool.bank_ss)


# --- SS data path ---

def test_ss_send_receive_round_trip():
    _, agg, s1, s2 = make_trio()
    establish_ss_channel(s1, s2, agg, SimRng(17), CIPHER)
    rng = SimRng(18)
    for payload in (b"", b"hello", bytes(range(256))):
        index, frame = ss_send(s1, 2, payload, rng, CIPHER)
        assert ss_receive(s2, index, frame, CIPHER) == payload


def test_ss_send_without_schedule():
    _, _, s1, _ = make_trio()
    with pytest.raises(ProtocolError):
        ss_send(s1, 2, b"x", SimRng(19), CIPHER)


def test_identity_schedule_is_identity_order():
    bank = tuple(bytes([i]) * 16 for i in range(4))
    schedule = SsSchedule(perm_by_owner={1: (0, 1, 2, 3), 2: (0, 1, 2, 3)})
    for i in range(1, 5):
        assert schedule.key_for(2, bank, i) == bank[i - 1]


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
    key, nonce = b"k" * 16, b"n" * 16
    body = CIPHER.seal(key, nonce, b"data", b"aad-1")
    with pytest.raises(AuthenticationError):
        CIPHER.open(key, nonce, body, b"aad-2")
