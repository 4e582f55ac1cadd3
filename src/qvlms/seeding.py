"""numpy's generator seeding, evaluated for a chunk of trial seeds at once.

``default_rng(seed)`` is ``Generator(PCG64(seed))``, and ``PCG64`` seeds
itself from ``seed.generate_state(4, np.uint64)``, four words that
``SeedSequence`` hashes from its entropy and spawn key. Building a
``SeedSequence`` and a ``default_rng`` costs tens of microseconds, so a
Monte-Carlo chunk, a ``SpawnedSeeds`` that needs two generators per
trial, does not build them: ``generators`` evaluates the same hash
(``mix_entropy``, then ``generate_state``) with the constants and the
order of ``numpy/random/bit_generator.pyx``, and hands each ``PCG64`` its
state through ``_SeedState``, a minimal ``ISeedSequence``. ``PCG64``
accepts any ``ISeedSequence`` and seeds itself from the state as it would
from the ``SeedSequence``, so every stream has the bits of
``default_rng`` of its seed. Any other seeds go to numpy's own
``default_rng``.

The master seed's words are hashed once per process in Python ints
modulo 2^32. The trials' spawn keys are one (seeds,) uint64 column, on
which the same expressions run elementwise: every product of two 32-bit
words fits in 64 bits before it is masked. The hash is the installed
numpy's, whose version a run's manifest records, and the tests compare it
with numpy's own ``SeedSequence``.
"""

import operator
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
    only when iterated. ``generators`` reads them as the ``entropy`` and
    the ``keys`` i, and hashes them as one group. A negative key is a
    ``ValueError``, as it is to ``SeedSequence``."""

    def __init__(self, entropy: int, start: int, stop: int):
        self.entropy, self.keys = operator.index(entropy), range(start, stop)
        if self.keys.start < 0:
            raise ValueError(f"expected non-negative spawn keys, got {start}")

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return (np.random.SeedSequence(self.entropy, spawn_key=(i,))
                for i in self.keys)


def generators(seeds, noise: bool = True):
    """``(x_rngs, z_rngs)``: ``default_rng`` of each of ``seeds`` and of
    its first child, the one ``seed.spawn`` would give first,
    ``SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (0,),
    pool_size=seed.pool_size)``; an int is taken as ``SeedSequence(int)``.
    Without ``noise`` no child's generator is built, and ``z_rngs`` is
    ``None``.

    A ``SpawnedSeeds`` whose keys fit one 32-bit word, as every run's
    chunk does, is hashed as one group, and no ``SeedSequence`` is built.
    Any other seeds go to numpy, which refuses what ``default_rng``
    refuses. ``None``, fresh entropy from the OS, is a ``TypeError``: no
    run could be replayed from it. The seeds are only read.
    """
    if isinstance(seeds, SpawnedSeeds) and seeds.keys.stop <= 1 << 32:
        pool, const = _mix_entropy(seeds.entropy)
        pool = list(pool)
        keys = np.arange(seeds.keys.start, seeds.keys.stop, dtype=np.uint64)
        const = _mix_into(pool, keys, const)
        words = [_generate_state(pool)]
        if noise:
            # the child's spawn key is its parent's and one more word, 0
            _mix_into(pool, 0, const)
            words.append(_generate_state(pool))
        states = np.array(words, dtype=np.uint64)
        sides = [[np.random.Generator(np.random.PCG64(_SeedState(state)))
                  for state in side]
                 for side in np.ascontiguousarray(states.transpose(0, 2, 1))]
    else:
        children = [_first_child(seed) for seed in seeds]  # refuses None
        sides = [[np.random.default_rng(seed) for seed in seeds]]
        if noise:
            sides.append([np.random.default_rng(child) for child in children])
    return sides[0], sides[1] if noise else None


class _SeedState(np.random.bit_generator.ISeedSequence):
    """The seed sequence of one generator, whose state ``generators`` has
    computed: PCG64 asks it for that state, and seeds itself as it would
    from the ``SeedSequence``."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("holds generate_state(4, np.uint64) only")
        return self.state


def _first_child(seed) -> np.random.SeedSequence:
    """The first child of ``seed``, built without spawning it."""
    if seed is None:
        raise TypeError("a seed of None draws fresh entropy from the OS, "
                        "from which no run can be replayed")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (0,),
                                  pool_size=seed.pool_size)


@lru_cache(maxsize=64)
def _mix_entropy(entropy: int):
    """numpy's ``mix_entropy`` of a spawned seed's words but its key, those
    of ``entropy`` padded with zeros to the pool of 4 (``SeedSequence``
    pads an entropy before a spawn key): the pool, as a tuple, and the
    hash constant after it. Once per process for a run's master seed."""
    words = _words(entropy)
    words += [0] * (4 - len(words))
    pool, const = [], _INIT_A
    for word in words[:4]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(4):
        const = _mix_into(pool, pool[src], const,
                          [*range(src), *range(src + 1, 4)])
    for word in words[4:]:
        const = _mix_into(pool, word, const)
    return tuple(pool), const


def _words(n: int) -> list[int]:
    """The 32-bit words, least significant first, that ``SeedSequence``
    takes from the int ``n``, which must not be negative."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value, const):
    """numpy's ``hashmix`` of ``value`` at the hash constant ``const``, and
    the constant after it."""
    nxt = const * _MULT_A & _MASK32
    hashed = (value ^ const) * nxt & _MASK32
    return hashed ^ hashed >> 16, nxt


def _mix_into(pool, value, const, dsts=range(4)):
    """``pool[d] = mix(pool[d], hashmix(value))`` for each ``d`` of
    ``dsts`` in turn, the hash starting at the constant ``const``; returns
    the constant after them."""
    for d in dsts:
        hashed, const = _hashmix(value, const)
        mixed = (_MIX_L * pool[d] - _MIX_R * hashed) & _MASK32
        pool[d] = mixed ^ mixed >> 16
    return const


def _generate_state(pool) -> list:
    """numpy's ``generate_state(4, np.uint64)`` of ``pool``: eight hashed
    32-bit words, paired low word first."""
    words = [(word ^ const) * nxt & _MASK32
             for word, (const, nxt) in zip(cycle(pool), _STATE_CONSTANTS)]
    return [(lo ^ lo >> 16) | (hi ^ hi >> 16) << 32
            for lo, hi in zip(words[::2], words[1::2])]
