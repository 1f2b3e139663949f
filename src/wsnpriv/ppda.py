"""Layer 2 algebra: polynomial perturbation, per-node sums, aggregator solve.

Each participant hides its value v inside a random quadratic
v + R1*s + R2*s^2 evaluated at per-participant seeds s, over a prime field.
Summing everyone's share at one seed gives F(s) = D + (sum R1)*s +
(sum R2)*s^2 with D the sum of all private values, so the aggregator
recovers D exactly by interpolating the F values at the distinct seeds and
reading off F(0).  The n-party generalization (degree n-1 masks, n seeds)
serves as the cluster-based baseline to compare against.

All arithmetic is exact; there are no tolerances anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .keymgmt import (
    AggregatorNode,
    ProtocolError,
    SealedFrame,
    SourceNode,
    StreamMacCipher,
    establish_ss_channel,
    generate_pool,
    hop,
    register_pair,
    DEFAULT_CIPHER,
)
from .rng import SimRng

__all__ = [
    "DEFAULT_MODULUS",
    "PrimeField",
    "SeedAssignment",
    "RandomCoeffs",
    "Share",
    "NodeAggregate",
    "AggregationResult",
    "MixedSeedError",
    "gen_shares",
    "node_aggregate",
    "solve_aggregate",
    "recover_pair_sum",
    "SppdaCluster",
    "run_sppda",
    "run_cpda",
    "RoundTranscript",
]

DEFAULT_MODULUS = 2**31 - 1


class MixedSeedError(ValueError):
    """Shares evaluated at different seeds were summed together."""


@lru_cache(maxsize=None)  # one entry per distinct modulus a process uses
def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin, valid far beyond 64-bit moduli.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime modulus p of the Layer-2 arithmetic, checked prime once per
    distinct p.  Callers reduce with `% p` inline; only inversion lives here."""

    def __init__(self, modulus: int = DEFAULT_MODULUS):
        if not _is_prime(modulus):
            raise ValueError(f"modulus: {modulus} is not prime")
        self.p = modulus

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, -1, self.p)  # extended Euclid: about 5x Fermat's a**(p-2)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __repr__(self):
        return f"PrimeField({self.p})"


@dataclass(frozen=True)
class SeedAssignment:
    """One public evaluation seed per participant; distinct and nonzero."""

    participants: tuple[str, ...]
    seeds: tuple[int, ...]
    field: PrimeField

    def __post_init__(self):
        if len(self.participants) != len(self.seeds):
            raise ValueError("one seed per participant required")
        norm = [s % self.field.p for s in self.seeds]
        if any(s == 0 for s in norm):
            raise ValueError("seeds must be nonzero")
        if len(set(norm)) != len(norm):
            raise ValueError("seeds must be pairwise distinct")

    @classmethod
    def draw(
        cls, participants: tuple[str, ...], field: PrimeField, rng: SimRng
    ) -> "SeedAssignment":
        if len(participants) >= field.p:
            raise ValueError(
                f"modulus: GF({field.p}) has fewer than {len(participants)} nonzero seeds")
        seeds: list[int] = []
        while len(seeds) < len(participants):
            s = 1 + rng.below(field.p - 1)
            if s not in seeds:
                seeds.append(s)
        return cls(participants=participants, seeds=tuple(seeds), field=field)


@dataclass(frozen=True)
class RandomCoeffs:
    r1: int
    r2: int

    @classmethod
    def draw(cls, field: PrimeField, rng: SimRng) -> "RandomCoeffs":
        return cls(r1=rng.below(field.p), r2=rng.below(field.p))


@dataclass(frozen=True)
class Share:
    producer: str
    evaluated_at: str  # participant whose seed this share was evaluated at
    value: int


@dataclass(frozen=True)
class NodeAggregate:
    participant: str
    value: int


@dataclass(frozen=True)
class AggregationResult:
    total: int      # D = x + y + z
    pair_sum: int   # x + y = D - z


def gen_shares(
    private_value: int,
    producer: str,
    seeds: SeedAssignment,
    coeffs: RandomCoeffs,
) -> list[Share]:
    """One share per participant: v + R1*s_i + R2*s_i^2 at that
    participant's seed."""
    p = seeds.field.p
    v = private_value % p
    r1, r2 = coeffs.r1, coeffs.r2
    return [
        Share(producer=producer, evaluated_at=who, value=(v + s * (r1 + s * r2)) % p)
        for who, s in zip(seeds.participants, seeds.seeds)
    ]


def node_aggregate(
    participant: str, shares: list[Share], field: PrimeField
) -> NodeAggregate:
    """Sum the shares a node holds; all must target this node's seed."""
    total = 0
    for share in shares:
        if share.evaluated_at != participant:
            raise MixedSeedError(
                f"share for {share.evaluated_at!r} mixed into {participant!r}'s sum"
            )
        total = (total + share.value) % field.p
    return NodeAggregate(participant=participant, value=total)


def solve_aggregate(
    seeds: SeedAssignment, aggregates: list[NodeAggregate]
) -> int:
    """Recover D from the per-node sums.

    The sums are evaluations of one polynomial F with F(0) = D, so D falls
    out of Lagrange interpolation at 0 over the n distinct seeds.
    """
    if len(aggregates) != len(seeds.participants):
        raise ValueError("need one aggregate per participant")
    f = seeds.field
    by_participant = {agg.participant: agg.value for agg in aggregates}
    if set(by_participant) != set(seeds.participants):
        raise ValueError("aggregates do not match the seed assignment")
    p = f.p
    xs = [s % p for s in seeds.seeds]
    ys = [by_participant[q] for q in seeds.participants]
    # Lagrange basis at x = 0:  l_i(0) = prod_{j != i} x_j / (x_j - x_i).
    # The terms y_i * l_i(0) are summed as one fraction, a/b + c/d =
    # (a*d + c*b) / (b*d), so n denominators cost one inversion.  Each
    # product is reduced once, when complete.
    acc_num, acc_den = 0, 1
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if j != i:
                num *= xj
                den *= xj - xi
        den %= p
        if den == 0:
            raise ZeroDivisionError("duplicate seeds make the system singular")
        acc_num = (acc_num * den + ys[i] * num % p * acc_den) % p
        acc_den = acc_den * den % p
    return acc_num * f.inv(acc_den) % p


def recover_pair_sum(total: int, z: int, field: PrimeField) -> int:
    """x + y = D - z; the aggregator subtracts its own (dummy) value."""
    return (total - z) % field.p


@dataclass
class FrameRecord:
    """One logged protocol message: plaintext metadata plus sealed payload.
    Confidentiality scans inspect exactly these plaintext fields."""

    kind: str
    sender: str
    receiver: str
    plaintext_fields: dict
    frame: SealedFrame | None = None


@dataclass
class RoundTranscript:
    seeds: SeedAssignment
    frames: list[FrameRecord]
    aggregates: list[NodeAggregate]
    result: AggregationResult

    def to_doc(self) -> dict:
        return {
            "seeds": list(self.seeds.seeds),
            "participants": list(self.seeds.participants),
            "frames": [
                {
                    "kind": rec.kind,
                    "sender": rec.sender,
                    "receiver": rec.receiver,
                    "plaintext_fields": dict(rec.plaintext_fields),
                    "nonce": rec.frame.nonce.hex() if rec.frame else None,
                    "body": rec.frame.body.hex() if rec.frame else None,
                }
                for rec in self.frames
            ],
            "aggregates": [
                {"participant": a.participant, "value": a.value}
                for a in self.aggregates
            ],
            "result": {"total": self.result.total, "pair_sum": self.result.pair_sum},
        }


_PARTICIPANTS = ("A", "S1", "S2")


class SppdaCluster:
    """One (S1, S2, AF) cluster with its key infrastructure set up once.

    The aggregator node doubles as the AF.  run_round executes the full
    three-party exchange for one set of values: seeds broadcast, shares
    generated and delivered over the key-managed channels (S1<->S2 via the
    sealed SS relay), per-node sums returned sealed, aggregator solves.
    """

    def __init__(
        self,
        rng: SimRng,
        field_: PrimeField | None = None,
        pool_size: int = 256,
        af_bank: int = 128,
        node_ids: tuple[int, int, int] = (0, 1, 2),  # (AF, S1, S2)
        cipher: StreamMacCipher = DEFAULT_CIPHER,
    ):
        self.field = field_ or PrimeField()
        self.cipher = cipher
        self.rng = rng
        af_id, s1_id, s2_id = node_ids
        setup = rng.stream("keymgmt")
        pool = generate_pool(pool_size, af_bank, setup.stream("pool"))
        self.af = AggregatorNode(node_id=af_id, bank_af=pool.bank_af)
        self.s1 = SourceNode(node_id=s1_id, bank_af=pool.bank_af, bank_ss=pool.bank_ss)
        self.s2 = SourceNode(node_id=s2_id, bank_af=pool.bank_af, bank_ss=pool.bank_ss)
        register_pair(self.s1, self.af, setup.stream("pair-s1"))
        register_pair(self.s2, self.af, setup.stream("pair-s2"))
        establish_ss_channel(self.s1, self.s2, self.af, setup.stream("ss"), cipher)
        self._nodes = {"A": self.af, "S1": self.s1, "S2": self.s2}
        self._round = 0

    def _send(self, kind: str, sender: str, receiver: str, value: int, rng: SimRng,
              frames: list[FrameRecord], fields: dict) -> int:
        """Carry a field element over the sender's link to the receiver and log
        its frame; returns what the receiver decrypts if a decimal in [0, p).
        S1<->S2 frames are keyed in the SS bank, which the relaying AF cannot open."""
        src, dst = self._nodes[sender], self._nodes[receiver]
        a, b = src.node_id, dst.node_id
        if "A" in (sender, receiver):
            aad = (f"{kind}:af->{b}" if sender == "A" else f"{kind}:{a}->af").encode()
            slot_field = "r_c"
        else:  # logged as relayed by the AF, with the slot only
            aad = f"ss:{a}->{b}".encode()
            slot_field, fields = "ss_index", {"relayed_by": "A"}
        slot, frame, opened = hop(src, dst, (a, b), str(value).encode(), aad, rng, self.cipher)
        frames.append(FrameRecord(kind, sender, receiver, {slot_field: slot, **fields}, frame))
        if not opened.isdigit() or (got := int(opened)) >= self.field.p:
            raise ProtocolError(f"payload {opened[:32]!r} is not an element of GF({self.field.p})")
        return got

    def run_round(self, x: int, y: int, z: int) -> tuple[AggregationResult, RoundTranscript]:
        self._round += 1
        rng = self.rng.stream(f"round:{self._round}")
        f = self.field

        # Aggregator broadcasts distinct nonzero seeds (plaintext).
        seeds = SeedAssignment.draw(_PARTICIPANTS, f, rng.stream("seeds"))
        frames = [FrameRecord(kind="seed-broadcast", sender="A", receiver="*",
                              plaintext_fields={"seeds": list(seeds.seeds)})]

        values = {"A": z % f.p, "S1": x % f.p, "S2": y % f.p}
        coeffs = {
            who: RandomCoeffs.draw(f, rng.stream(f"coeffs:{who}"))
            for who in _PARTICIPANTS
        }
        shares = {
            who: gen_shares(values[who], who, seeds, coeffs[who])
            for who in _PARTICIPANTS
        }
        # Each node keeps the share at its own seed and sums it with the
        # shares it decrypts off the managed channels.
        chan = rng.stream("channels")
        held: dict[str, list[Share]] = {who: [] for who in _PARTICIPANTS}
        for producer in _PARTICIPANTS:
            for share in shares[producer]:
                target = share.evaluated_at
                if target != producer:
                    share = Share(producer, target, self._send(
                        "share", producer, target, share.value, chan, frames,
                        {"for_seed_of": target}))
                held[target].append(share)

        aggregates = [node_aggregate(who, held[who], f) for who in _PARTICIPANTS]
        # S1 and S2 return their sums sealed; the aggregator solves from the
        # sums it decrypted plus its own.
        received = [aggregates[0]] + [NodeAggregate(agg.participant, self._send(
            "node-sum", agg.participant, "A", agg.value, chan, frames,
            {"participant": agg.participant})) for agg in aggregates[1:]]

        total = solve_aggregate(seeds, received)
        result = AggregationResult(
            total=total, pair_sum=recover_pair_sum(total, values["A"], f)
        )
        return result, RoundTranscript(seeds, frames, aggregates, result)


def run_sppda(
    x: int, y: int, z: int, rng: SimRng, field_: PrimeField | None = None
) -> AggregationResult:
    """Full three-party protocol for one round, key setup included."""
    cluster = SppdaCluster(rng, field_=field_)
    result, _ = cluster.run_round(x, y, z)
    return result


def run_cpda(
    values: list[int], rng: SimRng, field_: PrimeField | None = None
) -> int:
    """n-party cluster baseline: degree-(n-1) masks, n x n solve.

    Pure algebra (no key-managed channels); exists to benchmark the
    quadratic share traffic and solve cost against the fixed-size scheme.
    """
    n = len(values)
    if n < 3:
        raise ValueError("cluster baseline needs at least 3 participants")
    f = field_ or PrimeField()
    p = f.p
    participants = tuple(f"P{i}" for i in range(n))
    seeds = SeedAssignment.draw(participants, f, rng.stream("seeds"))
    coeff_rng = rng.stream("coeffs")
    sums = [0] * n
    # Every participant evaluates its own mask at every seed (n^2 Horner
    # evaluations): that share traffic is the cost this baseline models.
    # Each evaluation is reduced mod p once, when it is summed.
    for i in range(n):
        poly = [values[i] % p] + [coeff_rng.below(p) for _ in range(n - 1)]
        poly.reverse()
        for j, s in enumerate(seeds.seeds):
            acc = 0
            for c in poly:
                acc = acc * s + c
            sums[j] = (sums[j] + acc) % p
    aggregates = [
        NodeAggregate(participant=who, value=v)
        for who, v in zip(participants, sums)
    ]
    return solve_aggregate(seeds, aggregates)
