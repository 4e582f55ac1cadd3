"""numpy's generator seeding, evaluated for many seeds at once.

``default_rng(seed)`` is ``Generator(PCG64(seed))``, and ``PCG64`` seeds
itself from ``seed.generate_state(4, np.uint64)``, four words that
``SeedSequence`` hashes from its entropy and spawn key. Building a
``SeedSequence`` and a ``default_rng`` costs tens of microseconds, so a
Monte-Carlo chunk that needs two generators per trial does not build
them: ``seed_states`` evaluates the same hash (``mix_entropy``, then
``generate_state``) in Python integers, with the constants and the order
of ``numpy/random/bit_generator.pyx``, for a group of seeds at once, and
``generator`` hands each ``PCG64`` its state through ``_SeedState``, a
minimal ``ISeedSequence``. ``PCG64`` accepts any ``ISeedSequence`` and
seeds itself from the state as it would from the ``SeedSequence``, so
every stream has the bits of ``default_rng`` of its seed.

The hash runs on Python ints modulo 2^32. A word that differs between the
seeds of a group is a (seeds,) uint64 column instead, on which the same
expressions run elementwise: every product of two 32-bit words fits in 64
bits before it is masked. The hash is the installed numpy's, whose
version a run's manifest records, and the tests compare it with numpy's
own ``SeedSequence``.
"""

from functools import lru_cache
from itertools import cycle

import numpy as np

#: The constants of numpy's ``SeedSequence`` hash, as
#: ``numpy/random/bit_generator.pyx`` defines them: the hash constant's
#: start and multiplier in ``mix_entropy`` (A) and ``generate_state`` (B),
#: and the two multipliers of ``mix``. All arithmetic is modulo 2^32.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
#: ``generate_state``'s hash constant before and after each of its words.
_STATE_CONSTANTS = [(_INIT_B * _MULT_B ** i & _MASK32,
                     _INIT_B * _MULT_B ** (i + 1) & _MASK32) for i in range(8)]


class SpawnedSeeds:
    """The seeds ``SeedSequence(entropy, spawn_key=(i,))``, i in ``start ..
    stop-1``: the children ``SeedSequence(entropy).spawn`` gives, built
    only when iterated. ``seed_states`` reads them as the ``entropy`` and
    the ``keys`` i, and hashes them as one group."""

    def __init__(self, entropy: int, start: int, stop: int):
        self.entropy, self.keys = int(entropy), range(start, stop)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return (np.random.SeedSequence(self.entropy, spawn_key=(i,))
                for i in self.keys)


def seed_states(seeds):
    """For each group of ``seeds`` that is hashed at once, its rows and the
    PCG64 seed states, (2, seeds, 4) uint64, of ``default_rng`` of each of
    its seeds and of the seed's first child, ``SeedSequence(seed.entropy,
    spawn_key=seed.spawn_key + (0,), pool_size=seed.pool_size)``.

    ``seeds`` is a ``SpawnedSeeds`` or a sequence of ``SeedSequence``, read
    by its ``entropy``, ``spawn_key`` and ``pool_size``, and of anything
    else ``SeedSequence`` takes as its entropy, such as an int. The seeds
    are only read, and no ``SeedSequence`` is built, unless a
    ``SpawnedSeeds`` has keys past 2^32 - 1 (``_seed_groups``).
    """
    for rows, words, pool_size in _seed_groups(seeds):
        pool, const = _mix_entropy(words, pool_size)
        x_words = _generate_state(pool)
        # the child's spawn key is its parent's and one more word, 0
        _mix_into(pool, 0, range(pool_size), const)
        # a state's words are ints for a group of one seed, else columns
        states = np.array([x_words, _generate_state(pool)], dtype=np.uint64)
        yield rows, (states[:, None] if states.ndim == 2 else
                     np.ascontiguousarray(states.transpose(0, 2, 1)))


def generator(state) -> np.random.Generator:
    """``default_rng`` of the seed whose ``generate_state(4, np.uint64)``
    is ``state``, a contiguous (4,) uint64 array."""
    return np.random.Generator(np.random.PCG64(_SeedState(state)))


class _SeedState(np.random.bit_generator.ISeedSequence):
    """The seed sequence of one generator, whose state ``seed_states`` has
    computed: PCG64 asks it for that state, and seeds itself as it would
    from the ``SeedSequence``."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("holds generate_state(4, np.uint64) only")
        return self.state


def _seed_groups(seeds):
    """``(rows, words, pool_size)`` for each group of ``seeds`` that
    ``seed_states`` hashes at once: the seeds at ``rows`` assemble the
    same number of entropy words, each an int where the group holds one
    seed, else a (seeds,) uint64 column.

    A ``SpawnedSeeds`` is one group: its entropy's words, as ints, and the
    column of its keys. Any other sequence is read seed by seed; so is a
    ``SpawnedSeeds`` whose keys pass 2^32 - 1, which no run reaches. An
    entropy shorter than the pool is padded with zeros: ``SeedSequence``
    pads it before a spawn key, and its hash takes zeros for the missing
    words without one.
    """
    if isinstance(seeds, SpawnedSeeds) and seeds.keys.stop <= 1 << 32:
        entropy = _words(seeds.entropy)
        keys = np.arange(seeds.keys.start, seeds.keys.stop, dtype=np.uint64)
        return [(range(len(seeds)), [*entropy, *[0] * (4 - len(entropy)), keys],
                 4)]
    groups = {}
    for row, seed in enumerate(seeds):
        if hasattr(seed, "spawn_key"):
            words, key = _words(seed.entropy), _words(seed.spawn_key)
            pool_size = seed.pool_size
        else:
            words, key, pool_size = _words(seed), [], 4
        words += [0] * (pool_size - len(words)) + key
        rows, members = groups.setdefault((len(words), pool_size), ([], []))
        rows.append(row)
        members.append(words)
    return [(rows, members[0] if len(rows) == 1 else
             list(np.array(members, dtype=np.uint64).T), pool_size)
            for (_, pool_size), (rows, members) in groups.items()]


def _words(value) -> list[int]:
    """The 32-bit words, least significant first, that ``SeedSequence``
    takes from an entropy or a spawn key ``value``: a non-negative int, a
    decimal or ``0x`` hexadecimal string of one, or a sequence of these,
    whose words are concatenated (numpy's ``_coerce_to_uint32_array``)."""
    if isinstance(value, str):
        value = int(value, 16) if value.startswith("0x") else int(value)
    if isinstance(value, (int, np.integer)):
        n = int(value)
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        words = [n & _MASK32]
        while n := n >> 32:
            words.append(n & _MASK32)
        return words
    if not isinstance(value, (list, tuple, range, np.ndarray)):
        raise TypeError(f"a seed takes non-negative ints or sequences of "
                        f"them, got {value!r}")
    return [word for item in value for word in _words(item)]


def _mix_entropy(words, pool_size: int):
    """numpy's ``mix_entropy`` of the assembled entropy ``words``, at
    least ``pool_size`` of them, into a pool of ``pool_size`` words: the
    pool and the hash constant after it, from which one more word mixes
    in as ``_mix_into(pool, word, range(pool_size), const)``. The first
    ``pool_size`` words are mixed once per process where they are ints,
    as the master seed of a run's trial seeds is."""
    head = tuple(words[:pool_size])
    try:
        pool, const = _mixed_head(head)
    except TypeError:  # a column is no cache key
        pool, const = _mix_head(head)
    pool = list(pool)
    for word in words[pool_size:]:
        const = _mix_into(pool, word, range(pool_size), const)
    return pool, const


def _mix_head(head):
    """The pool, as a tuple, and the hash constant after ``mix_entropy``
    has hashed the words ``head`` into a pool of as many and mixed every
    pool word into every other."""
    pool, const, pool_size = [], _INIT_A, len(head)
    for word in head:
        nxt = const * _MULT_A & _MASK32
        hashed = (word ^ const) * nxt & _MASK32
        pool.append(hashed ^ hashed >> 16)
        const = nxt
    for src in range(pool_size):
        const = _mix_into(pool, pool[src],
                          [*range(src), *range(src + 1, pool_size)], const)
    return tuple(pool), const


_mixed_head = lru_cache(maxsize=64)(_mix_head)


def _mix_into(pool, value, dsts, const):
    """``pool[d] = mix(pool[d], hashmix(value))`` for each ``d`` of
    ``dsts`` in turn, numpy's ``hashmix`` starting at the hash constant
    ``const``; returns the constant after them."""
    for d in dsts:
        nxt = const * _MULT_A & _MASK32
        hashed = (value ^ const) * nxt & _MASK32
        mixed = (_MIX_L * pool[d] - _MIX_R * (hashed ^ hashed >> 16)) & _MASK32
        pool[d] = mixed ^ mixed >> 16
        const = nxt
    return const


def _generate_state(pool) -> list:
    """numpy's ``generate_state(4, np.uint64)`` of ``pool``: eight hashed
    32-bit words, paired low word first."""
    words = [(word ^ const) * nxt & _MASK32
             for word, (const, nxt) in zip(cycle(pool), _STATE_CONSTANTS)]
    return [(lo ^ lo >> 16) | (hi ^ hi >> 16) << 32
            for lo, hi in zip(words[::2], words[1::2])]
