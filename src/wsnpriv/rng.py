"""Deterministic, labelled random streams.

Every piece of randomness in a simulation run comes from a SimRng derived
from one master seed plus a stream label.  Same (seed, label) pair gives the
same sequence; distinct labels give independent streams, so concurrent
trials never share state.

A SimRng is seeded straight through the C generator's seed(), with the int
that random.Random(seed) would pass it, so its state equals that Random's.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["SimRng"]


def _derive_seed(master_seed: int, stream_label: str) -> int:
    digest = hashlib.sha256(
        f"{master_seed}\x1f{stream_label}".encode()
    ).digest()
    return int.from_bytes(digest[:16], "big")


class SimRng(random.Random):
    """A random.Random whose state is a pure function of (master_seed, label)."""

    def __new__(cls, master_seed: int = 0, stream_label: str = "root"):
        # random.Random.__new__ rejects extra positional args; bypass it.  Given
        # no seed, 3.10's seeds from OS entropy, which __init__ then replaces.
        return super().__new__(cls, 0)

    def __init__(self, master_seed: int, stream_label: str = "root"):
        self.master_seed = int(master_seed)
        self.stream_label = stream_label
        # random.Random.__init__ and seed() only pass an int on to the C
        # seeding; call that directly.
        super(random.Random, self).seed(_derive_seed(self.master_seed, stream_label))
        self.gauss_next = None

    def stream(self, label: str | int) -> "SimRng":
        """Derive an independent child stream; does not advance this one."""
        return SimRng(self.master_seed, f"{self.stream_label}/{label}")

    def __reduce__(self):
        # Random.__reduce__ rebuilds by calling the class with no arguments.
        return type(self), (self.master_seed, self.stream_label), self.getstate()

    def __repr__(self) -> str:
        return f"SimRng(master_seed={self.master_seed}, stream_label={self.stream_label!r})"
