"""Keyed random streams: one Generator per key, all keys hashed in one batch.

Every random draw of the package comes from a stream keyed by the run's
seed and the draw's place in the run: (seed, series) in the simulator,
(seed, restart) for the boosted loop's initial centers and (seed, restart,
iteration, cluster) for its resampling. ``keyed_streams`` yields the
Generator of ``default_rng(SeedSequence((seed, *key)))`` for each key row,
bit for bit. ``SeedSequence`` hashes its entropy with a fixed schedule of
uint32 xor, multiply and shift steps whose constants do not depend on the
entropy, so ``_seed_states`` runs each step on all keys at once.
"""

import numpy as np

# the constants of SeedSequence's hash (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def keyed_streams(seed, keys):
    """Yield, for each row of keys, the Generator of ``default_rng(SeedSequence((seed, *key)))``.

    seed is an int >= 0; keys is a (rows, L) integer array of entries below
    2**32. Each row yields the same Generator, its PCG64 set to that row's
    state, so draw from it before asking for the next row.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    # SeedSequence splits an int into its little-endian 32-bit words, [0] for 0
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    entropy = np.empty((keys.shape[0], len(words) + keys.shape[1]), dtype=np.uint32)
    entropy[:, : len(words)] = words
    entropy[:, len(words):] = keys
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for s0, s1, s2, s3 in _seed_states(entropy).tolist():
        # PCG64 seeds itself from four 64-bit words as pcg64_set_seed does
        inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield rng


def _seed_states(entropy):
    """(rows, 4) uint64: ``SeedSequence(row).generate_state(4, np.uint64)`` of every row.

    entropy is (rows, L), each row one sequence's uint32 entropy words.
    ``mix_entropy`` hashes the first words into a pool of 4, mixes every pool
    word into the other three, then mixes each further word into all four;
    ``generate_state`` hashes the pool twice over into 8 words, which pair up
    into little-endian uint64s. Hash call j xors with running constant j and
    multiplies by constant j + 1 (``_hashmix``); each step runs on all rows
    at once.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    rows, length = entropy.shape
    size = _POOL_SIZE
    const = _running_constants(_INIT_A, _MULT_A, size * max(length, size))
    pool = np.zeros((size, rows), dtype=np.uint32)
    pool[: min(length, size)] = entropy[:, :size].T
    pool = _hashmix(pool, const[: size + 1])
    j = size
    for src in range(size):
        dst = [i for i in range(size) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], const[j : j + size]))
        j += size - 1
    for src in range(size, length):
        pool = _mix(pool, _hashmix(entropy[:, src], const[j : j + size + 1]))
        j += size
    const = _running_constants(_INIT_B, _MULT_B, 2 * size)
    words = _hashmix(np.concatenate([pool, pool]), const).astype(np.uint64)
    return (words[0::2] | words[1::2] << np.uint64(32)).T


def _hashmix(value, const):
    """Consecutive hash calls, given their running constants and the next:
    call i xors with const[i] and multiplies by const[i + 1]."""
    value = (value ^ const[:-1]) * const[1:]
    return value ^ (value >> 16)


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _running_constants(init, mult, calls):
    """(calls + 1, 1) uint32: the hash constant init * mult**j mod 2**32 of calls j = 0..calls.

    The products are Python ints: numpy warns when a uint32 scalar
    overflows, while uint32 array arithmetic, as in the hash, wraps silently.
    """
    values = [init]
    for _ in range(calls):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)[:, None]
