"""Layer 2 key management: predistributed pool, two banks, permuted orderings.

A pool of K symmetric keys is split into two banks.  The AF bank covers
source <-> aggregator-forwarder traffic; the SS bank covers source <->
source traffic relayed through the AF, and the AF never holds those keys.

Because every source holds the same banks, a raw index would let any
source decrypt any other's traffic.  Each pair therefore fixes its own
secret permutation of the bank, and the session key for a message is
announced as a plaintext index R_c into that permuted ordering: useless to
anyone who does not know the permutation.  Every sealed frame is built by
seal_frame and opened by open_frame.  A source pair's SS orderings are
bootstrapped by establish_ss_channel, which ships each permutation through
the AF inside an inner frame sealed under the raw SS-bank order; a pair's
SS schedule is then the plain mapping {owner: permutation}.

Wire formats (simulated, documented for log parsing):

  key-index announcement : {sender: u32, r_c: u32}  (plaintext, 1-based)
  sealed frame           : {sender: u32, receiver: u32, nonce: 16 bytes,
                            body: ciphertext || 16-byte tag}

The default cipher is a keyed SHA-256 counter stream plus an HMAC tag —
adequate for the simulation, deliberately not production cryptography, and
pluggable behind the CipherSuite interface.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

from .netsim import NodeId
from .rng import SimRng

__all__ = [
    "AuthenticationError",
    "UnknownSourceError",
    "KeyIndexRangeError",
    "ProtocolError",
    "KeyPool",
    "SealedFrame",
    "CipherSuite",
    "StreamMacCipher",
    "SourceNode",
    "AggregatorNode",
    "check_bank_split",
    "generate_pool",
    "permute_bank_for_pair",
    "seal_frame",
    "open_frame",
    "establish_ss_channel",
    "ss_send",
    "ss_receive",
]

KEY_LEN = 16  # 128-bit keys
NONCE_LEN = 16
TAG_LEN = 16
SS_BANK_MAX = 1 << 16  # the SS-bank ordering travels as u16 indices


class AuthenticationError(Exception):
    """Ciphertext failed authentication (wrong key or tampered)."""


class UnknownSourceError(KeyError):
    """AF has no registered permutation for this source."""


class KeyIndexRangeError(IndexError):
    """Announced key index outside the bank."""


class ProtocolError(RuntimeError):
    """A required protocol message is missing or malformed."""


@dataclass(frozen=True)
class KeyPool:
    bank_af: tuple[bytes, ...]
    bank_ss: tuple[bytes, ...]

    @property
    def total(self) -> int:
        return len(self.bank_af) + len(self.bank_ss)


@dataclass(frozen=True)
class SealedFrame:
    sender: NodeId
    receiver: NodeId
    nonce: bytes
    body: bytes  # ciphertext || tag


class CipherSuite:
    """Symmetric seal/open with associated data; implementations pluggable."""

    def seal(self, key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        raise NotImplementedError

    def open(self, key: bytes, nonce: bytes, body: bytes, aad: bytes = b"") -> bytes:
        raise NotImplementedError


def _xor(data: bytes, stream: bytes) -> bytes:
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream[:n], "big")).to_bytes(
        n, "big"
    )


class StreamMacCipher(CipherSuite):
    """SHA-256 counter keystream + truncated HMAC-SHA-256 tag."""

    def _keystream(self, key: bytes, nonce: bytes, length: int) -> bytes:
        # Block i is sha256(key || nonce || u64be(i)); the shared prefix is
        # hashed once and each block resumes from a copy of that state.
        prefix = hashlib.sha256(key + nonce)
        blocks = []
        for counter in range(-(-length // 32)):
            block = prefix.copy()
            block.update(counter.to_bytes(8, "big"))
            blocks.append(block.digest())
        return b"".join(blocks)[:length]

    def seal(self, key, nonce, plaintext, aad=b""):
        ct = _xor(plaintext, self._keystream(key, nonce, len(plaintext)))
        tag = hmac.digest(key, nonce + aad + ct, "sha256")[:TAG_LEN]
        return ct + tag

    def open(self, key, nonce, body, aad=b""):
        if len(body) < TAG_LEN:
            raise AuthenticationError("body shorter than tag")
        ct, tag = body[:-TAG_LEN], body[-TAG_LEN:]
        expect = hmac.digest(key, nonce + aad + ct, "sha256")[:TAG_LEN]
        if not hmac.compare_digest(tag, expect):
            raise AuthenticationError("authentication failed")
        return _xor(ct, self._keystream(key, nonce, len(ct)))


DEFAULT_CIPHER = StreamMacCipher()


def check_bank_split(pool_size: int, af_bank: int, error: type[ValueError] = ValueError) -> None:
    """Both banks non-empty, and the SS bank small enough for u16 indices."""
    if not 1 <= af_bank < pool_size:
        raise error(f"af_bank: must be in [1, pool_size={pool_size})")
    if pool_size - af_bank > SS_BANK_MAX:
        raise error(f"pool_size: SS bank (pool_size - af_bank) over {SS_BANK_MAX} keys")


def generate_pool(total: int, af_count: int, rng: SimRng) -> KeyPool:
    """total distinct random keys; first af_count form the AF bank."""
    check_bank_split(total, af_count)
    # One draw of total keys gives the bytes and generator state of total
    # draws of KEY_LEN; a repeated key is dropped and replaced by a fresh
    # draw, exactly as drawing one key at a time would.
    unique = dict.fromkeys(struct.unpack(f"{KEY_LEN}s" * total, rng.randbytes(KEY_LEN * total)))
    while len(unique) < total:
        unique.setdefault(rng.randbytes(KEY_LEN))
    keys = list(unique)
    return KeyPool(bank_af=tuple(keys[:af_count]), bank_ss=tuple(keys[af_count:]))


def permute_bank_for_pair(bank_size: int, rng: SimRng) -> tuple[int, ...]:
    """Uniform random permutation of bank indices for one pair."""
    if bank_size < 1:
        raise ValueError("bank must be non-empty")
    # Fisher-Yates making Random.shuffle's exact draws: _randbelow(i + 1)
    # takes (i + 1).bit_length() bits and redraws values past the end.
    order = list(range(bank_size))
    getrandbits = rng.getrandbits
    for i in range(bank_size - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return tuple(order)


@dataclass
class SourceNode:
    """Per-source key state: both banks, its AF-pair permutation, and, per
    peer with an established SS channel, each end's {owner: permutation}
    of the SS bank."""

    node_id: NodeId
    bank_af: tuple[bytes, ...]
    bank_ss: tuple[bytes, ...]
    af_perm: tuple[int, ...] | None = None
    ss_schedules: dict[NodeId, dict[NodeId, tuple[int, ...]]] = field(default_factory=dict)

    def af_ordering(self, peer: NodeId | None = None) -> tuple[int, ...]:
        """This source's ordering of the AF bank; `peer` is its one AF."""
        if self.af_perm is None:
            raise ProtocolError(f"source {self.node_id} has no registered AF pair")
        return self.af_perm

    def ss_ordering(self, peer: NodeId, owner: NodeId) -> tuple[int, ...]:
        """`owner`'s ordering of the SS bank in this source's schedule with `peer`."""
        if peer not in self.ss_schedules:
            raise ProtocolError(f"no SS schedule between {self.node_id} and {peer}")
        return self.ss_schedules[peer][owner]


@dataclass
class AggregatorNode:
    """AF key state: the AF bank plus each source pair's permutation.
    Holds no SS-bank key by construction."""

    node_id: NodeId
    bank_af: tuple[bytes, ...]
    pair_perms: dict[NodeId, tuple[int, ...]] = field(default_factory=dict)

    def held_keys(self) -> set[bytes]:
        return set(self.bank_af)

    def af_ordering(self, peer: NodeId) -> tuple[int, ...]:
        """The ordering of the AF bank this AF shares with source `peer`."""
        perm = self.pair_perms.get(peer)
        if perm is None:
            raise UnknownSourceError(f"no pair registered for source {peer}")
        return perm


def register_pair(source: SourceNode, af: AggregatorNode, rng: SimRng) -> tuple[int, ...]:
    """Fix the pair's secret ordering of the AF bank, stored at both ends."""
    perm = permute_bank_for_pair(len(af.bank_af), rng)
    source.af_perm = perm
    af.pair_perms[source.node_id] = perm
    return perm


def _slot_key(bank: tuple[bytes, ...], ordering: Sequence[int], r_c: int) -> bytes:
    """Key at 1-based slot r_c of a pair's ordering of `bank`."""
    if not 1 <= r_c <= len(ordering):
        raise KeyIndexRangeError(f"R_c={r_c} outside [1, {len(ordering)}]")
    return bank[ordering[r_c - 1]]


def seal_frame(bank: tuple[bytes, ...], ordering: Sequence[int], sender: NodeId,
               receiver: NodeId, payload: bytes, aad: bytes, rng: SimRng,
               cipher: CipherSuite) -> tuple[int, SealedFrame]:
    """Seal `payload` under a uniformly drawn slot of the pair's ordering.

    Draws the 1-based slot, then the nonce, from `rng`.  Returns (slot,
    frame); the slot travels in plaintext beside the frame.
    """
    slot = rng.randint(1, len(ordering))
    nonce = rng.randbytes(NONCE_LEN)
    body = cipher.seal(_slot_key(bank, ordering, slot), nonce, payload, aad)
    return slot, SealedFrame(sender=sender, receiver=receiver, nonce=nonce, body=body)


def open_frame(bank: tuple[bytes, ...], ordering: Sequence[int], slot: int,
               frame: SealedFrame, aad: bytes, cipher: CipherSuite) -> bytes:
    """Open a frame sealed at the announced `slot`, with the receiver's own
    copy of the ordering."""
    return cipher.open(_slot_key(bank, ordering, slot), frame.nonce, frame.body, aad)


def _encode_perm(perm: tuple[int, ...]) -> bytes:
    # u16 big-endian per entry; check_bank_split caps the SS bank at SS_BANK_MAX.
    return struct.pack(f">{len(perm)}H", *perm)


def _decode_perm(blob: bytes) -> tuple[int, ...]:
    if len(blob) % 2 != 0:
        raise ProtocolError("malformed permutation message: odd length")
    return struct.unpack(f">{len(blob) // 2}H", blob)


def establish_ss_channel(
    s1: SourceNode,
    s2: SourceNode,
    af: AggregatorNode,
    rng: SimRng,
    cipher: CipherSuite = DEFAULT_CIPHER,
    tamper=None,
) -> dict[NodeId, tuple[int, ...]]:
    """Bootstrap the source<->source orderings through the AF relay.

    Each source draws its own permutation of the SS bank and ships it to
    the peer double-wrapped.  Inner layer: sealed under an SS-bank key (raw
    bank order, slot announced in plaintext), so the relaying AF cannot read
    it.  Outer layer: sealed under the sender's AF pairing; the AF opens it
    and re-seals the still-sealed inner frame under the receiver's AF
    pairing.  `tamper`, if given, is applied to each relayed frame (test
    hook for fault injection).  Both ends install the same {owner:
    permutation} mapping, which is returned.
    """
    perms: dict[NodeId, tuple[int, ...]] = {}
    for sender, receiver in ((s1, s2), (s2, s1)):
        a, b = sender.node_id, receiver.node_id
        inner_aad = f"ss-perm:{a}->{b}".encode()
        relay_aad = f"relay:{a}->{b}".encode()
        perm = permute_bank_for_pair(len(sender.bank_ss), rng)
        ss_index, inner = seal_frame(sender.bank_ss, range(len(sender.bank_ss)), a, b,
                                     _encode_perm(perm), inner_aad, rng, cipher)
        # Binary relay payload: ss slot (u32) || inner nonce || inner sealed body.
        payload = struct.pack(">I", ss_index) + inner.nonce + inner.body
        r_c, frame = seal_frame(sender.bank_af, sender.af_ordering(), a, b, payload,
                                relay_aad, rng, cipher)

        # AF relay: open the sender-side outer layer, re-seal it toward the
        # receiver under the receiver's AF pairing.
        payload = open_frame(af.bank_af, af.af_ordering(a), r_c, frame, relay_aad, cipher)
        r_c, frame = seal_frame(af.bank_af, af.af_ordering(b), a, b, payload, relay_aad,
                                rng, cipher)
        if tamper is not None:
            frame = tamper(frame)

        payload = open_frame(receiver.bank_af, receiver.af_ordering(), r_c, frame,
                             relay_aad, cipher)
        if len(payload) < 4 + NONCE_LEN + TAG_LEN:
            raise ProtocolError("malformed relay payload: too short")
        (ss_index,) = struct.unpack(">I", payload[:4])
        inner = SealedFrame(a, b, payload[4:4 + NONCE_LEN], payload[4 + NONCE_LEN:])
        perms[a] = _decode_perm(open_frame(receiver.bank_ss, range(len(receiver.bank_ss)),
                                           ss_index, inner, inner_aad, cipher))
        if perms[a] != perm:
            raise ProtocolError("relayed permutation does not match the original")

    s1.ss_schedules[s2.node_id] = perms
    s2.ss_schedules[s1.node_id] = dict(perms)
    return perms


def ss_send(
    sender: SourceNode,
    receiver_id: NodeId,
    plaintext: bytes,
    rng: SimRng,
    cipher: CipherSuite = DEFAULT_CIPHER,
) -> tuple[int, SealedFrame]:
    """Seal a source->source message under the peer's permuted SS ordering.

    Returns (announced slot index, frame).  The frame is relayed verbatim
    by the AF, which cannot open it.
    """
    return seal_frame(sender.bank_ss, sender.ss_ordering(receiver_id, receiver_id),
                      sender.node_id, receiver_id, plaintext,
                      f"ss:{sender.node_id}->{receiver_id}".encode(), rng, cipher)


def ss_receive(
    receiver: SourceNode,
    index: int,
    frame: SealedFrame,
    cipher: CipherSuite = DEFAULT_CIPHER,
) -> bytes:
    return open_frame(receiver.bank_ss, receiver.ss_ordering(frame.sender, receiver.node_id),
                      index, frame, f"ss:{frame.sender}->{receiver.node_id}".encode(), cipher)
