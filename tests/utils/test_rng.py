"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import (
    derive_seed,
    pcg64_states,
    spawn_generator,
    spawn_generators,
    step_generator,
    step_seed,
)


class TestDeriveSeed:
    def test_is_deterministic(self):
        assert derive_seed(42, "trial", 3) == derive_seed(42, "trial", 3)

    def test_different_labels_give_different_seeds(self):
        assert derive_seed(42, "trial", 3) != derive_seed(42, "trial", 4)

    def test_different_parents_give_different_seeds(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_result_is_in_range(self):
        for label in range(50):
            seed = derive_seed(7, label)
            assert 0 <= seed < 2**63 - 1

    def test_accepts_arbitrary_label_types(self):
        assert isinstance(derive_seed(5, ("x", 1), 2.5, None), int)


class TestSpawnGenerator:
    def test_integer_seed_is_deterministic(self):
        a = spawn_generator(123).random(5)
        b = spawn_generator(123).random(5)
        np.testing.assert_array_equal(a, b)

    def test_existing_generator_is_passed_through(self):
        generator = np.random.default_rng(0)
        assert spawn_generator(generator) is generator

    def test_none_gives_a_generator(self):
        assert isinstance(spawn_generator(None), np.random.Generator)


class TestSpawnGenerators:
    def test_one_generator_per_label(self):
        generators = spawn_generators(7, range(4))
        assert len(generators) == 4

    def test_generators_are_independent_streams(self):
        first, second = spawn_generators(7, ["a", "b"])
        assert not np.allclose(first.random(10), second.random(10))

    def test_reproducible_across_calls(self):
        first_run = [g.random() for g in spawn_generators(7, range(3))]
        second_run = [g.random() for g in spawn_generators(7, range(3))]
        assert first_run == second_run


class TestPCG64States:
    def test_matches_numpy_seeding(self):
        # Word-boundary seeds (one vs two uint32 entropy words) and the
        # extremes of the accepted range, plus a spread of typical seeds.
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1]
        seeds += [derive_seed(11, "seed", index) for index in range(200)]
        for seed, state in zip(seeds, pcg64_states(seeds)):
            assert state == np.random.PCG64(seed).state

    def test_reseeded_generator_replays_step_generator(self):
        seeds = [derive_seed(3, "shard", shard) for shard in range(4)]
        generator = np.random.Generator(np.random.PCG64(0))
        states = pcg64_states([step_seed(seed, 5) for seed in seeds])
        for seed, state in zip(seeds, states):
            generator.bit_generator.state = state
            np.testing.assert_array_equal(
                generator.random(7), step_generator(seed, 5).random(7)
            )

    def test_empty_input(self):
        assert pcg64_states([]) == []
