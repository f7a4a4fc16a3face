"""Deterministic random-number management.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  The helpers here give one canonical way to
turn seeds into generators and to derive independent child seeds from a
parent seed plus a sequence of labels (for example ``("trial", 3)``), so that
experiments are reproducible and trials are statistically independent.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "derive_seed",
    "pcg64_states",
    "spawn_generator",
    "spawn_generators",
    "shard_seed",
    "shard_step_generator",
    "step_generator",
    "step_seed",
]

_MAX_SEED = 2**63 - 1


def derive_seed(seed: int, *labels: object) -> int:
    """Derive a child seed from ``seed`` and a sequence of ``labels``.

    The derivation hashes the parent seed together with the textual
    representation of each label, so distinct label sequences yield
    (practically) independent child seeds while identical inputs always
    yield the same output.

    Parameters
    ----------
    seed:
        Parent seed, any Python integer.
    labels:
        Arbitrary hashable/printable objects identifying the child stream,
        e.g. ``derive_seed(7, "trial", 3, "income")``.

    Returns
    -------
    int
        A non-negative integer strictly below ``2**63 - 1``.
    """
    # SHA-256 over the concatenated byte stream; feeding the hash one
    # joined payload produces the identical digest as the incremental
    # per-label updates it replaces, with fewer C calls on the hot
    # per-step stream derivations.
    payload = str(int(seed)).encode("utf-8") + b"".join(
        b"/" + repr(label).encode("utf-8") for label in labels
    )
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") % _MAX_SEED


def spawn_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces an OS-entropy-seeded generator, an integer produces a
    deterministically seeded generator, and an existing generator is passed
    through unchanged (so callers can thread one generator through a whole
    simulation).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def shard_seed(seed: int, shard: int) -> int:
    """Return the seed of user-shard ``shard``'s independent stream.

    The sharded engine partitions every population into the *canonical*
    shards of :class:`repro.core.sharding.ShardPlan` and gives shard ``s``
    the stream rooted at ``derive_seed(seed, "shard", s)``.  The derivation
    depends only on the trial's base seed and the shard index — never on how
    many workers execute the shards — which is what makes sharded runs
    bit-identical for any worker count.
    """
    return derive_seed(seed, "shard", shard)


def step_generator(shard_seed_value: int, step: int) -> np.random.Generator:
    """Return the generator of step ``step`` for a pre-derived shard seed.

    ``shard_seed_value`` is the output of :func:`shard_seed`.  Hot loops
    (the closed loop's per-step stream derivation, the trial-batched
    engine's ``(trial, shard, step)`` walk) derive the shard seeds once and
    pay only the per-step half of the hash chain here; the stream is
    exactly :func:`shard_step_generator`'s.  ``Generator(PCG64(seed))`` is
    what ``default_rng(seed)`` constructs for an integer seed, minus its
    argument dispatch — the identical stream, measurably cheaper in a loop
    that builds one generator per ``(trial, shard, step)``.
    """
    return np.random.Generator(np.random.PCG64(step_seed(shard_seed_value, step)))


def step_seed(shard_seed_value: int, step: int) -> int:
    """Return the seed of :func:`step_generator`'s ``PCG64`` for ``step``."""
    return derive_seed(shard_seed_value, "step", step)


# numpy's SeedSequence hash (pool size 4) and PCG64 LCG constants; NEP 19
# freezes both, since they define every seeded PCG64 stream.
_SEED_INIT_A = 0x43B0D7E5
_SEED_MULT_A = 0x931E8875
_SEED_INIT_B = 0x8B51F9DD
_SEED_MULT_B = 0x58F38DED
_SEED_MIX_L = np.uint32(0xCA01F9DD)
_SEED_MIX_R = np.uint32(0x4973F715)
_SEED_SHIFT = np.uint32(16)
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_32 = 0xFFFFFFFF
_MASK_128 = (1 << 128) - 1


def pcg64_states(seeds: Sequence[int]) -> list[dict]:
    """Return ``np.random.PCG64(seed).state`` for every seed, in bulk.

    Assigning a returned state to a ``PCG64``'s ``state`` makes it draw
    exactly the stream of a fresh ``PCG64(seed)``.  Constructing one costs
    ~10 µs, nearly all of it the ``SeedSequence`` hash; a loop that needs a
    fresh generator per ``(trial, shard, step)`` instead runs that hash
    here as uint32 arithmetic over all its seeds at once and reseeds one
    reused generator.  ``seeds`` must lie in ``[0, 2**64)`` —
    :func:`derive_seed`'s outputs do.  Pinned against numpy itself in
    ``tests/utils/test_rng.py``.
    """
    values = np.asarray(seeds, dtype=np.uint64)
    # The seed's little-endian uint32 words; a pool slot beyond the
    # entropy hashes a zero word, so padding to the pool size is exact.
    words = [
        (values & np.uint64(_MASK_32)).astype(np.uint32),
        (values >> np.uint64(32)).astype(np.uint32),
        np.zeros(values.shape, dtype=np.uint32),
        np.zeros(values.shape, dtype=np.uint32),
    ]
    hash_const = _SEED_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SEED_MULT_A) & _MASK_32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _SEED_SHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _SEED_MIX_L * x - _SEED_MIX_R * y
        return result ^ (result >> _SEED_SHIFT)

    pool = [hashmix(word) for word in words]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    # generate_state(4, np.uint64): eight output words cycling the pool.
    output_const = _SEED_INIT_B
    halves = []
    for index in range(8):
        value = pool[index % 4] ^ np.uint32(output_const)
        output_const = (output_const * _SEED_MULT_B) & _MASK_32
        value = value * np.uint32(output_const)
        halves.append((value ^ (value >> _SEED_SHIFT)).astype(np.uint64))
    state_high, state_low, seq_high, seq_low = (
        (halves[2 * j] | (halves[2 * j + 1] << np.uint64(32))).tolist()
        for j in range(4)
    )
    states = []
    for high, low, inc_high, inc_low in zip(state_high, state_low, seq_high, seq_low):
        # pcg64_set_seed: state 0, one LCG step, add the seed, one more step.
        inc = ((((inc_high << 64) | inc_low) << 1) | 1) & _MASK_128
        state = (inc + ((high << 64) | low)) & _MASK_128
        state = (state * _PCG64_MULTIPLIER + inc) & _MASK_128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states


def shard_step_generator(
    seed: int, shard: int, step: int
) -> np.random.Generator:
    """Return the generator driving shard ``shard`` at time step ``step``.

    The stream is *stateless* across steps: the generator for ``(shard,
    step)`` is freshly derived as ``derive_seed(shard_seed(seed, shard),
    "step", step)``, so a worker can reproduce any shard's draws for any
    step from the base seed alone — no generator state ever needs to be
    shipped between processes, and chunked runs replay the exact stream of
    a single run.  Within one step the population consumes the generator
    sequentially (``begin_step`` first, then ``respond``).
    """
    return step_generator(shard_seed(seed, shard), step)


def spawn_generators(
    seed: int, labels: Iterable[object]
) -> list[np.random.Generator]:
    """Return one independent generator per label, derived from ``seed``.

    Useful for giving each trial of an experiment, or each user of a
    population, its own stream:  ``spawn_generators(7, range(5))``.
    """
    label_list: Sequence[object] = list(labels)
    return [np.random.default_rng(derive_seed(seed, label)) for label in label_list]
