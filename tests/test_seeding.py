import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvlms import seeding
from qvlms.experiment import trial_seeds

#: Seeds as ``SeedSequence`` takes them: an int or a list of ints of
#: entropy, a spawn key of 0 to 3 words (some past 32 bits), pool size 4
#: or 8; or a plain int, taken as ``SeedSequence(int)``.
_seed_sequences = st.builds(
    np.random.SeedSequence,
    st.one_of(st.integers(0, 2**200), st.lists(st.integers(0, 2**70), max_size=6)),
    spawn_key=st.lists(st.one_of(st.integers(0, 2**32 - 1),
                                 st.integers(2**32, 2**70)), max_size=3),
    pool_size=st.sampled_from([4, 8]))
_seeds = st.one_of(_seed_sequences, st.integers(0, 2**64))


def _states(seeds):
    """Each seed's (x, z) states from ``seed_states``, by position."""
    states = {}
    for rows, (x, z) in seeding.seed_states(seeds):
        states.update({row: pair for row, pair in zip(rows, zip(x, z))})
    assert sorted(states) == list(range(len(seeds)))
    return [states[i] for i in range(len(seeds))]


def _numpys(seed):
    """numpy's own seed and first child of ``seed``, whose states
    ``seed_states`` computes."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return seed, copy.deepcopy(seed).spawn(1)[0]


@given(seeds=st.lists(_seeds, min_size=1, max_size=6))
def test_states_are_those_of_each_seed_and_its_first_child(seeds):
    # one seed alone, or several hashed in groups of one length
    for seed, states in zip(seeds, _states(seeds)):
        for state, of in zip(states, _numpys(seed)):
            assert np.array_equal(state, of.generate_state(4, np.uint64))
            assert np.array_equal(seeding.generator(state).standard_normal(5),
                                  np.random.default_rng(of).standard_normal(5))


@pytest.mark.parametrize("seed", [
    np.random.SeedSequence(["0x1f", "12", 5], spawn_key=("0x10", 2**33)),
    np.random.SeedSequence(np.arange(7, dtype=np.uint32), spawn_key=(1,)),
    np.random.SeedSequence(np.array([3, 2**40]), pool_size=8),
    np.random.SeedSequence([]),
    np.int64(7),
    True,
], ids=["strings", "uint32-array", "int64-array", "no-words", "numpy-int",
        "bool"])
def test_every_entropy_form_hashes_as_numpy_does(seed):
    [states] = _states([seed])
    for state, of in zip(states, _numpys(seed)):
        assert np.array_equal(state, of.generate_state(4, np.uint64))


def test_seeds_without_words_share_a_state():
    # no entropy and no spawn key: every seed of the group hashes alike
    seeds = [np.random.SeedSequence([]), np.random.SeedSequence([])]
    first, second = _states(seeds)
    for a, b, of in zip(first, second, _numpys(seeds[0])):
        assert np.array_equal(a, of.generate_state(4, np.uint64))
        assert np.array_equal(b, a)


@pytest.mark.parametrize("start, stop", [(0, 300), (2**32 - 3, 2**32 + 2)])
def test_spawned_seeds_are_one_group_of_the_master_seeds_children(start, stop):
    seeds = seeding.SpawnedSeeds(2**130 + 1, start, stop)
    assert len(seeds) == stop - start
    built = list(seeds)
    for seed, i in zip(built, range(start, stop), strict=True):
        assert (seed.entropy, seed.spawn_key, seed.pool_size) == \
            (2**130 + 1, (i,), 4)
    for lazy, listed in zip(_states(seeds), _states(built), strict=True):
        for a, b in zip(lazy, listed):
            assert np.array_equal(a, b)


def test_spawned_seeds_are_trial_seeds():
    seeds = seeding.SpawnedSeeds(17, 600, 1000)
    for a, b in zip(seeds, trial_seeds(17, 1000)[600:], strict=True):
        assert (a.entropy, a.spawn_key, a.pool_size) == \
            (b.entropy, b.spawn_key, b.pool_size)


def test_a_seed_state_holds_pcg64s_request_only():
    [(x, _)] = _states([3])
    with pytest.raises(ValueError):
        seeding._SeedState(x).generate_state(8)
