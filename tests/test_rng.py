"""SimRng's draws against the standard library's: same state, same values,
same stream position.  Each oracle is a plain random.Random seeded with the
int that SimRng derives, so these hold on every supported CPython."""

import copy
import pickle
import random

import pytest

from wsnpriv.keymgmt import permute_bank_for_pair
from wsnpriv.rng import SimRng, _derive_seed


def twins(seed, label):
    return SimRng(seed, label), random.Random(_derive_seed(seed, label))


@pytest.mark.parametrize("seed, label", [(0, "root"), (7, "bench/sppda:3"), (2**70, "a/b/c")])
def test_state_equals_random_seeded_with_the_derived_int(seed, label):
    rng, oracle = twins(seed, label)
    assert rng.getstate() == oracle.getstate()
    assert rng.gauss_next is None
    assert rng.stream("x").getstate() == random.Random(_derive_seed(seed, f"{label}/x")).getstate()


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda rng: pickle.loads(pickle.dumps(rng))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_resume_the_stream_and_leave_the_original(duplicate):
    rng = SimRng(11, "a/b")
    for _ in range(5):
        rng.random()
    position = rng.getstate()
    twin = duplicate(rng)
    assert rng.getstate() == position  # copying does not advance the original
    assert repr(twin) == repr(rng) and twin.getstate() == position
    assert [twin.getrandbits(31) for _ in range(4)] == [rng.getrandbits(31) for _ in range(4)]
    assert twin.stream("c").getstate() == rng.stream("c").getstate()


def test_permute_bank_matches_random_shuffle_every_size():
    rng, oracle = twins(34, "perm")
    for n in range(1, 301):
        order = list(range(n))
        oracle.shuffle(order)
        assert permute_bank_for_pair(n, rng) == tuple(order)
        assert rng.getstate() == oracle.getstate()
