"""Layer 2 key management: predistributed pool, two banks, permuted orderings.

A pool of K symmetric keys is split into two banks.  The AF bank covers
source <-> aggregator-forwarder traffic; the SS bank covers source <->
source traffic relayed through the AF, and the AF never holds those keys.

Because every source holds the same banks, a raw index would let any
source decrypt any other's traffic.  Each pair therefore fixes its own
secret permutation of the bank, and the session key for a message is
announced as a plaintext index R_c into that permuted ordering.  The
ordering hides the key from outsiders, not from bank holders: a node that
holds the bank finds the key by trying each one against the frame's tag.
Each node keeps its key links in one table, {(peer, receiver): (bank,
ordering)}, and a frame is keyed by its receiver's ordering: a source and
its AF share one ordering of the AF bank (register_pair), two sources each
fix their own of the SS bank (establish_ss_channel, which ships each
through the AF inside an inner frame sealed under the raw SS-bank order).
Every link frame crosses through hop: sealed by seal_frame under the
sender's link, opened by open_frame under the receiver's copy of it.

Wire formats (simulated, documented for log parsing):

  key-index announcement : {sender: u32, r_c: u32}  (plaintext, 1-based)
  sealed frame           : {sender: u32, receiver: u32, nonce: 16 bytes,
                            body: ciphertext || 16-byte tag}
  ordering message       : one entry per SS-bank slot, u8 for a bank of up
                            to 256 keys, else u16 big-endian (the inner
                            frame's plaintext)
  relay payload          : u32 slot || inner nonce || inner body  (the
                            plaintext of each relay hop's frame)

The default cipher is a keyed SHA-256 counter stream plus an HMAC tag —
adequate for the simulation, deliberately not production cryptography.  Its
last four keystreams and tags are kept, so a hop's open reuses what its seal
derived; every open still compares the received tag with the tag over the
bytes it received, so a changed frame misses the memo and fails.  Any
object with the same seal/open methods can be passed as `cipher`.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .netsim import NodeId
from .rng import SimRng

__all__ = [
    "AuthenticationError",
    "KeyIndexRangeError",
    "ProtocolError",
    "SealedFrame",
    "StreamMacCipher",
    "KeyNode",
    "SourceNode",
    "AggregatorNode",
    "check_bank_split",
    "generate_pool",
    "permute_bank_for_pair",
    "seal_frame",
    "open_frame",
    "hop",
    "establish_ss_channel",
]

KEY_LEN = 16  # 128-bit keys
NONCE_LEN = 16
TAG_LEN = 16
SS_BANK_MAX = 1 << 16  # keys per bank; an SS-bank ordering travels as u8 or u16 indices
Link = tuple[tuple[bytes, ...], tuple[int, ...]]  # (bank, ordering) keying one link's frames


class AuthenticationError(Exception):
    """Ciphertext failed authentication (wrong key or tampered)."""


class KeyIndexRangeError(IndexError):
    """Announced key index outside the bank."""


class ProtocolError(RuntimeError):
    """A required protocol message is missing or malformed."""


class SealedFrame(NamedTuple):
    """One sealed link frame, an immutable tuple."""

    sender: NodeId
    receiver: NodeId
    nonce: bytes
    body: bytes  # ciphertext || tag


def _xor(data: bytes, stream: bytes) -> bytes:
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream[:n], "big")).to_bytes(
        n, "big"
    )


_BLOCK_0 = bytes(8)  # u64be(0), the first keystream block's counter
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


@functools.lru_cache(maxsize=4)
def _hmac_sha256(key: bytes, msg: bytes) -> bytes:
    # RFC 2104 written out over hashlib.sha256.  On OpenSSL 3 this costs about
    # two thirds of hmac.digest's one-shot; every frame is tagged and checked.
    # Cached like _keystream: an open of the bytes just sealed reuses the tag.
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\0")
    inner = hashlib.sha256(key.translate(_IPAD) + msg).digest()
    return hashlib.sha256(key.translate(_OPAD) + inner).digest()


class StreamMacCipher:
    """SHA-256 counter keystream + truncated HMAC-SHA-256 tag."""

    @staticmethod
    @functools.lru_cache(maxsize=4)
    def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
        # Block i is sha256(key || nonce || u64be(i)).  A one-block stream
        # (every payload of up to 32 bytes) is one hash; a longer one hashes
        # the shared prefix once and resumes each block from a copy of it.
        # Cached, as streams depend on nothing else: a hop opens the frame it
        # has just sealed, and the SS relay its inner frame three seals later.
        if length <= 32:
            return hashlib.sha256(key + nonce + _BLOCK_0).digest()[:length]
        prefix = hashlib.sha256(key + nonce)
        blocks = []
        for counter in range(-(-length // 32)):
            block = prefix.copy()
            block.update(counter.to_bytes(8, "big"))
            blocks.append(block.digest())
        return b"".join(blocks)[:length]

    def seal(self, key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ct = _xor(plaintext, self._keystream(key, nonce, len(plaintext)))
        tag = _hmac_sha256(key, nonce + aad + ct)[:TAG_LEN]
        return ct + tag

    def open(self, key: bytes, nonce: bytes, body: bytes, aad: bytes = b"") -> bytes:
        if len(body) < TAG_LEN:
            raise AuthenticationError("body shorter than tag")
        ct, tag = body[:-TAG_LEN], body[-TAG_LEN:]
        expect = _hmac_sha256(key, nonce + aad + ct)[:TAG_LEN]
        if not hmac.compare_digest(tag, expect):
            raise AuthenticationError("authentication failed")
        return _xor(ct, self._keystream(key, nonce, len(ct)))


DEFAULT_CIPHER = StreamMacCipher()


def check_bank_split(pool_size: int, af_bank: int) -> None:
    """Both banks non-empty and each at most SS_BANK_MAX keys: the SS bank so
    its ordering message fits u16 indices, the AF bank so no pool is drawn
    past 131,072 keys; else ValueError("af_bank: ...") or
    ValueError("pool_size: ...").  PipelineConfig and generate_pool call it."""
    if not 1 <= af_bank < pool_size:
        raise ValueError(f"af_bank: must be in [1, pool_size={pool_size})")
    if af_bank > SS_BANK_MAX:
        raise ValueError(f"af_bank: AF bank over {SS_BANK_MAX} keys")
    if pool_size - af_bank > SS_BANK_MAX:
        raise ValueError(f"pool_size: SS bank (pool_size - af_bank) over {SS_BANK_MAX} keys")


def generate_pool(total: int, af_count: int,
                  rng: SimRng) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """(bank_af, bank_ss): total distinct random keys, the first af_count the AF bank's."""
    check_bank_split(total, af_count)
    # One draw of total keys gives the bytes and generator state of total
    # draws of KEY_LEN; a repeated key is dropped and replaced by a fresh
    # draw, exactly as drawing one key at a time would.
    unique = dict.fromkeys(struct.unpack(f"{KEY_LEN}s" * total, rng.randbytes(KEY_LEN * total)))
    while len(unique) < total:
        unique.setdefault(rng.randbytes(KEY_LEN))
    keys = list(unique)
    return tuple(keys[:af_count]), tuple(keys[af_count:])


def permute_bank_for_pair(bank_size: int, rng: SimRng) -> tuple[int, ...]:
    """Uniform random permutation of bank indices for one pair."""
    if bank_size < 1:
        raise ValueError("bank_size: must be >= 1")
    # Fisher-Yates making Random.shuffle's exact draws: _randbelow(i + 1)
    # takes k = (i + 1).bit_length() bits and redraws values past the end.
    # k is tracked as i falls: it drops by one once i + 1 < 2**(k-1).
    order = list(range(bank_size))
    getrandbits = rng.getrandbits
    k = bank_size.bit_length()
    low = (1 << (k - 1)) - 1  # smallest i with (i + 1).bit_length() == k
    for i in range(bank_size - 1, 0, -1):
        if i < low:
            k -= 1
            low >>= 1
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return tuple(order)


@dataclass
class KeyNode:
    """A node's AF bank and its key links, {(peer, receiver): (bank, ordering)}."""

    node_id: NodeId
    bank_af: tuple[bytes, ...]
    links: dict[tuple[NodeId, NodeId], Link] = field(default_factory=dict, kw_only=True)

    def link(self, peer: NodeId, receiver: NodeId) -> Link:
        """(bank, ordering) keying a frame with `peer` that `receiver` opens."""
        try:
            return self.links[peer, receiver]
        except KeyError:
            raise ProtocolError(f"node {self.node_id} has no key link to node {peer}") from None


@dataclass
class SourceNode(KeyNode):
    """Source key state: both banks, and links to its AF (the pair's one
    ordering of the AF bank) and to each SS peer (each end's own ordering)."""

    bank_ss: tuple[bytes, ...]


@dataclass
class AggregatorNode(KeyNode):
    """AF key state: the AF bank and a link to each registered source.
    Holds no SS-bank key by construction."""

    def held_keys(self) -> set[bytes]:
        return set(self.bank_af)


def _install_link(a: KeyNode, b: KeyNode, bank: str, orderings: dict[NodeId, tuple[int, ...]]):
    """Link a and b at both ends: a frame to receiver r is keyed by each end's
    own copy of `bank` in orderings[r]."""
    for node, peer in ((a, b), (b, a)):
        keys = getattr(node, bank)
        for receiver, ordering in orderings.items():
            node.links[peer.node_id, receiver] = (keys, ordering)


def register_pair(source: SourceNode, af: AggregatorNode, rng: SimRng) -> tuple[int, ...]:
    """Fix the pair's secret ordering of the AF bank, stored at both ends."""
    perm = permute_bank_for_pair(len(af.bank_af), rng)
    _install_link(source, af, "bank_af", dict.fromkeys((source.node_id, af.node_id), perm))
    return perm


def _slot_key(bank: tuple[bytes, ...], ordering: Sequence[int], r_c: int) -> bytes:
    """Key at 1-based slot r_c of a pair's ordering of `bank`."""
    if not 1 <= r_c <= len(ordering):
        raise KeyIndexRangeError(f"R_c={r_c} outside [1, {len(ordering)}]")
    return bank[ordering[r_c - 1]]


def seal_frame(bank: tuple[bytes, ...], ordering: Sequence[int], sender: NodeId,
               receiver: NodeId, payload: bytes, aad: bytes, rng: SimRng,
               cipher: StreamMacCipher) -> tuple[int, SealedFrame]:
    """Seal `payload` under a uniformly drawn slot of the pair's ordering.

    Draws the 1-based slot, then the nonce, from `rng`.  Returns (slot,
    frame); the slot travels in plaintext beside the frame.
    """
    slot = rng.randint(1, len(ordering))
    nonce = rng.randbytes(NONCE_LEN)
    body = cipher.seal(_slot_key(bank, ordering, slot), nonce, payload, aad)
    return slot, SealedFrame(sender, receiver, nonce, body)


def open_frame(bank: tuple[bytes, ...], ordering: Sequence[int], slot: int,
               frame: SealedFrame, aad: bytes, cipher: StreamMacCipher) -> bytes:
    """Open a frame sealed at the announced `slot`, with the receiver's own
    copy of the ordering."""
    return cipher.open(_slot_key(bank, ordering, slot), frame.nonce, frame.body, aad)


def hop(src: KeyNode, dst: KeyNode, ids: tuple[NodeId, NodeId], payload: bytes, aad: bytes,
        rng: SimRng, cipher: StreamMacCipher, tamper=None) -> tuple[int, SealedFrame, bytes]:
    """Carry one frame across the link src -> dst: seal `payload` under
    src's link to dst, in a frame naming `ids` (the end-to-end sender and
    receiver), apply `tamper` in flight if given, and open the frame under
    dst's copy of the link.  Returns (slot, frame, opened)."""
    bank, ordering = src.link(dst.node_id, dst.node_id)  # unstarred: the round's hot path
    slot, frame = seal_frame(bank, ordering, ids[0], ids[1], payload, aad, rng, cipher)
    if tamper is not None:
        frame = tamper(frame)
    bank, ordering = dst.link(src.node_id, dst.node_id)
    return slot, frame, open_frame(bank, ordering, slot, frame, aad, cipher)


def _encode_perm(perm: tuple[int, ...]) -> bytes:
    # u8 per slot up to 256 keys, else u16 big-endian; check_bank_split caps
    # the SS bank at SS_BANK_MAX.
    return bytes(perm) if len(perm) <= 256 else struct.pack(f">{len(perm)}H", *perm)


def _decode_perm(blob: bytes, bank_size: int) -> tuple[int, ...]:
    """The ordering of the receiver's own `bank_size`-key SS bank."""
    width = 1 if bank_size <= 256 else 2
    if len(blob) != width * bank_size:
        raise ProtocolError(f"malformed permutation message: {len(blob)} bytes for "
                            f"{bank_size} slots")
    return tuple(blob) if width == 1 else struct.unpack(f">{bank_size}H", blob)


def establish_ss_channel(
    s1: SourceNode,
    s2: SourceNode,
    af: AggregatorNode,
    rng: SimRng,
    cipher: StreamMacCipher = DEFAULT_CIPHER,
    tamper=None,
) -> dict[NodeId, tuple[int, ...]]:
    """Bootstrap the source<->source orderings through the AF relay.

    Each source draws its own permutation of the SS bank and ships it to
    the peer double-wrapped.  Inner layer: sealed under an SS-bank key (raw
    bank order, slot announced in plaintext), so the relaying AF cannot read
    it.  Outer layer: two hops, sender -> AF and AF -> receiver, so the AF
    opens it under its link to the sender and re-seals the still-sealed
    inner frame under its link to the receiver.  `tamper`, if given, is
    applied to each AF -> receiver frame (test hook for fault injection).
    Both ends install the link, each frame keyed by its receiver's
    permutation; the {owner: permutation} mapping is returned.
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
        _, _, payload = hop(sender, af, (a, b), payload, relay_aad, rng, cipher)
        _, _, payload = hop(af, receiver, (a, b), payload, relay_aad, rng, cipher, tamper)
        if len(payload) < 4 + NONCE_LEN + TAG_LEN:
            raise ProtocolError("malformed relay payload: too short")
        (ss_index,) = struct.unpack(">I", payload[:4])
        inner = SealedFrame(a, b, payload[4:4 + NONCE_LEN], payload[4 + NONCE_LEN:])
        n_ss = len(receiver.bank_ss)
        perms[a] = _decode_perm(open_frame(receiver.bank_ss, range(n_ss), ss_index, inner,
                                           inner_aad, cipher), n_ss)
        if perms[a] != perm:
            raise ProtocolError("relayed permutation does not match the original")

    _install_link(s1, s2, "bank_ss", perms)
    return perms
