import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvlms import seeding
from qvlms.experiment import trial_seeds

#: Chunks of a run's trial seeds: an entropy of up to 200 bits, and keys
#: from 0 or near 2^32, some of them past 2^32 - 1.
_chunks = st.builds(
    lambda entropy, start, size: seeding.SpawnedSeeds(entropy, start, start + size),
    st.integers(0, 2**200),
    st.one_of(st.integers(0, 2**20), st.integers(2**32 - 6, 2**32 + 2)),
    st.integers(1, 6))


def _numpys(seed):
    """numpy's own seed and first child of the ``SeedSequence`` ``seed``."""
    return seed, copy.deepcopy(seed).spawn(1)[0]


@given(seeds=_chunks)
def test_states_are_those_of_each_seed_and_its_first_child(seeds):
    for seed, *rngs in zip(seeds, *seeding.generators(seeds), strict=True):
        for rng, of in zip(rngs, _numpys(seed)):
            numpys = np.random.default_rng(of)
            assert rng.bit_generator.state == numpys.bit_generator.state
            assert np.array_equal(rng.standard_normal(5),
                                  numpys.standard_normal(5))


@pytest.mark.parametrize("start, stop", [(0, 300), (2**32 - 3, 2**32 + 2)])
def test_spawned_seeds_are_one_group_of_the_master_seeds_children(start, stop):
    seeds = seeding.SpawnedSeeds(2**130 + 1, start, stop)
    assert len(seeds) == stop - start
    built = list(seeds)
    for seed, i in zip(built, range(start, stop), strict=True):
        assert (seed.entropy, seed.spawn_key, seed.pool_size) == \
            (2**130 + 1, (i,), 4)
    for lazy, listed in zip(seeding.generators(seeds), seeding.generators(built),
                            strict=True):
        for a, b in zip(lazy, listed, strict=True):
            assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seeds", [
    seeding.SpawnedSeeds(2**70 + 3, 5, 9),
    seeding.SpawnedSeeds(3, 2**32 - 2, 2**32 + 2),
    [4, np.random.SeedSequence(8, spawn_key=(2, 1))],
], ids=["one-group", "past-32-bits", "numpys"])
def test_without_noise_only_the_inputs_generators_are_built(seeds):
    x_rngs, z_rngs = seeding.generators(seeds, noise=False)
    assert z_rngs is None
    for alone, paired in zip(x_rngs, seeding.generators(seeds)[0], strict=True):
        assert alone.bit_generator.state == paired.bit_generator.state
    with pytest.raises(TypeError, match="fresh entropy"):
        seeding.generators([None], noise=False)


def test_a_negative_spawn_key_is_refused_when_built():
    with pytest.raises(ValueError):
        np.random.SeedSequence(3, spawn_key=(-2,))
    with pytest.raises(ValueError, match="non-negative"):
        seeding.SpawnedSeeds(3, -2, 2)


def test_spawned_seeds_are_trial_seeds():
    seeds = seeding.SpawnedSeeds(17, 600, 1000)
    for a, b in zip(seeds, trial_seeds(17, 1000)[600:], strict=True):
        assert (a.entropy, a.spawn_key, a.pool_size) == \
            (b.entropy, b.spawn_key, b.pool_size)


def test_a_seed_state_holds_pcg64s_request_only():
    with pytest.raises(ValueError):
        seeding._SeedState(np.zeros(4, np.uint64)).generate_state(8)
