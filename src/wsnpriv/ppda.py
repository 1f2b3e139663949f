"""Layer 2 algebra: polynomial perturbation, per-node sums, aggregator solve.

Each participant hides its value v inside a random quadratic
v + R1*s + R2*s^2 evaluated at per-participant seeds s, over a prime field.
Summing everyone's share at one seed gives F(s) = D + (sum R1)*s +
(sum R2)*s^2 with D the sum of all private values, so the aggregator
recovers D exactly by interpolating the F values at the distinct seeds and
reading off F(0).  n parties with degree-(n-1) masks make CPDA; `bench` times
it as warm SppdaCluster rounds, and run_cpda is criterion 1's algebra-only baseline.

All arithmetic is exact; there are no tolerances anywhere in this module.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
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
    "AggregationResult",
    "gen_shares",
    "node_aggregate",
    "solve_aggregate",
    "SppdaCluster",
    "run_sppda",
    "run_cpda",
    "RoundTranscript",
]

DEFAULT_MODULUS = 2**31 - 1
# psi_12, the least strong pseudoprime to all twelve prime bases 2..37
# (Jiang & Deng 2014); Miller-Rabin with those bases is exact below it.
MODULUS_BOUND = 318_665_857_834_031_151_167_461


@lru_cache(maxsize=None)  # one entry per distinct modulus a process uses
def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin with the prime bases 2..37: exact for every
    # n < MODULUS_BOUND (about 2**78), which PrimeField checks first.
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
    distinct p.  Callers reduce with `% p` and invert with pow(a, -1, p)."""

    def __init__(self, modulus: int = DEFAULT_MODULUS):
        if modulus >= MODULUS_BOUND:
            raise ValueError(f"modulus: must be < {MODULUS_BOUND}, where primality is exact")
        if not _is_prime(modulus):
            raise ValueError(f"modulus: {modulus} is not prime")
        self.p = modulus

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
            raise ValueError("seeds: need one seed per participant")
        norm = [s % self.field.p for s in self.seeds]
        if any(s == 0 for s in norm):
            raise ValueError("seeds: must be nonzero mod p")
        if len(set(norm)) != len(norm):
            raise ValueError("seeds: must be pairwise distinct mod p")

    @classmethod
    def draw(
        cls, participants: tuple[str, ...], field: PrimeField, rng: SimRng
    ) -> "SeedAssignment":
        if len(participants) >= field.p:
            raise ValueError(
                f"modulus: GF({field.p}) has fewer than {len(participants)} nonzero seeds")
        seeds: list[int] = []
        while len(seeds) < len(participants):
            s = 1 + rng.randrange(field.p - 1)
            if s not in seeds:
                seeds.append(s)
        return cls(participants=participants, seeds=tuple(seeds), field=field)


@dataclass(frozen=True)
class AggregationResult:
    total: int      # D, the sum of every participant's value
    pair_sum: int   # the sources' sum, D - z (x + y at n = 3)


def gen_shares(value: int, coeffs: Sequence[int], seeds: SeedAssignment) -> list[int]:
    """One participant's shares: value + c1*s + c2*s^2 + ... mod p at each
    seed s, in seed order.  The one Horner evaluation of a masked polynomial."""
    p = seeds.field.p
    poly = [*coeffs[::-1], value]
    shares = []
    for s in seeds.seeds:
        acc = 0
        for c in poly:
            acc = acc * s + c
        shares.append(acc % p)  # reduced once, when complete
    return shares


def node_aggregate(shares: Iterable[int], field: PrimeField) -> int:
    """The sum mod p of the shares a node holds, all evaluated at its seed."""
    return sum(shares) % field.p


def solve_aggregate(seeds: SeedAssignment, sums: Sequence[int]) -> int:
    """Recover D from the per-node sums, given in seed order.

    The sums are evaluations of one polynomial F with F(0) = D, so D falls
    out of Lagrange interpolation at 0 over the n distinct seeds.
    """
    if len(sums) != len(seeds.seeds):
        raise ValueError("sums: need one node sum per seed")
    p = seeds.field.p
    xs = [s % p for s in seeds.seeds]
    # Lagrange basis at x = 0:  l_i(0) = prod_{j != i} x_j / (x_j - x_i).
    # The terms sums[i] * l_i(0) are summed as one fraction, a/b + c/d =
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
        acc_num = (acc_num * den + sums[i] * num % p * acc_den) % p
        acc_den = acc_den * den % p
    # SeedAssignment checked the seeds distinct mod prime p, so every den and acc_den is nonzero.
    return acc_num * pow(acc_den, -1, p) % p


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
    sums: list[int]  # per-node sums, in seed order
    result: AggregationResult

    def to_doc(self) -> dict:
        """The round as JSON data; `result`'s keys are its AggregationResult's fields."""
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
                {"participant": who, "value": v}
                for who, v in zip(self.seeds.participants, self.sums)
            ],
            "result": {**vars(self.result)},
        }


class SppdaCluster:
    """An (AF, S1, ..., S_{n-1}) cluster, n >= 3, its keys set up once.

    The aggregator node doubles as the AF.  run_round executes the full
    n-party exchange for one set of values: seeds broadcast, shares
    delivered over the key-managed channels (source to source via the
    sealed SS relay), per-node sums returned sealed, aggregator solves.
    n = 3 is the paper's scheme; `bench` times larger n as CPDA.
    """

    def __init__(
        self,
        rng: SimRng,
        field_: PrimeField | None = None,
        pool_size: int = 256,
        af_bank: int = 128,
        node_ids: tuple[int, ...] = (0, 1, 2),  # (AF, S1, ..., S_{n-1})
        cipher: StreamMacCipher = DEFAULT_CIPHER,
    ):
        if len(node_ids) < 3:
            raise ValueError(f"node_ids: need the AF and at least 2 sources, got {list(node_ids)}")
        if len(set(node_ids)) != len(node_ids):
            raise ValueError(f"node_ids: duplicate node ids in {list(node_ids)}")
        self.field = field_ or PrimeField()
        self.cipher = cipher
        self.rng = rng
        setup = rng.stream("keymgmt")
        bank_af, bank_ss = generate_pool(pool_size, af_bank, setup.stream("pool"))
        self.af = AggregatorNode(node_id=node_ids[0], bank_af=bank_af)
        self.sources = tuple(SourceNode(node_id=i, bank_af=bank_af, bank_ss=bank_ss)
                             for i in node_ids[1:])
        self._nodes = {"A": self.af, **{f"S{i}": s for i, s in enumerate(self.sources, 1)}}
        for i, source in enumerate(self.sources, 1):
            register_pair(source, self.af, setup.stream(f"pair-s{i}"))
        ss = setup.stream("ss")  # one stream for every pair S_i, S_j (i < j), in turn
        for i, s in enumerate(self.sources):
            for peer in self.sources[i + 1:]:
                establish_ss_channel(s, peer, self.af, ss, cipher)
        self._round = 0

    def _send(self, kind: str, sender: str, receiver: str, value: int, rng: SimRng,
              frames: list[FrameRecord], fields: dict) -> int:
        """Carry a field element over the sender's link to the receiver and log
        its frame; returns what the receiver decrypts if a decimal in [0, p).
        Frames between sources are keyed in the SS bank, which the relay AF cannot open."""
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

    def run_round(self, *values: int) -> tuple[AggregationResult, RoundTranscript]:
        """One round over the sources' readings, then the AF's own value z."""
        names = tuple(self._nodes)
        if len(values) != len(names):
            raise ValueError(f"values: need {len(names)}, the sources' then the AF's, "
                             f"got {len(values)}")
        *readings, z = values
        self._round += 1
        rng = self.rng.stream(f"round:{self._round}")
        f = self.field

        # Aggregator broadcasts distinct nonzero seeds (plaintext).
        seeds = SeedAssignment.draw(names, f, rng.stream("seeds"))
        frames = [FrameRecord(kind="seed-broadcast", sender="A", receiver="*",
                              plaintext_fields={"seeds": list(seeds.seeds)})]

        # Each participant masks its value with n - 1 coefficients r1, r2, ...
        p = f.p
        shares = []
        for who, v in zip(names, (z, *readings)):
            draw = rng.stream(f"coeffs:{who}").randrange
            shares.append(gen_shares(v, [draw(p) for _ in names[1:]], seeds))
        # Each node keeps the share at its own seed and sums it with the
        # shares it decrypts off the managed channels.
        chan = rng.stream("channels")
        held: list[list[int]] = [[] for _ in names]
        for i, producer in enumerate(names):
            for j, target in enumerate(names):
                share = shares[i][j]
                if j != i:
                    share = self._send("share", producer, target, share, chan, frames,
                                       {"for_seed_of": target})
                held[j].append(share)

        sums = [node_aggregate(h, f) for h in held]
        # The sources return their sums sealed; the aggregator solves from the
        # sums it decrypted plus its own.
        received = [sums[0]] + [
            self._send("node-sum", who, "A", v, chan, frames, {"participant": who})
            for who, v in zip(names[1:], sums[1:])]

        total = solve_aggregate(seeds, received)
        result = AggregationResult(total=total, pair_sum=(total - z) % p)
        return result, RoundTranscript(seeds, frames, sums, result)


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

    Pure algebra (no key-managed channels): criterion 1's baseline.  `bench`
    times CPDA as warm n-party SppdaCluster rounds, whose frames are sealed.
    """
    n = len(values)
    if n < 3:
        raise ValueError("values: cluster baseline needs at least 3 participants")
    f = field_ or PrimeField()
    seeds = SeedAssignment.draw(tuple(f"P{i}" for i in range(n)), f, rng.stream("seeds"))
    coeffs = rng.stream("coeffs")
    # Every participant evaluates its own degree-(n-1) mask at every seed
    # (n^2 evaluations): that share traffic is the cost this baseline models.
    shares = [gen_shares(v, [coeffs.randrange(f.p) for _ in range(n - 1)], seeds) for v in values]
    return solve_aggregate(seeds, [node_aggregate(col, f) for col in zip(*shares)])
