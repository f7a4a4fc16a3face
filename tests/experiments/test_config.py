"""Tests for repro.experiments.config."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.census import Race
from repro.experiments.config import CaseStudyConfig


class TestDefaults:
    def test_paper_parameters(self):
        config = CaseStudyConfig()
        assert config.num_users == 1000
        assert config.num_trials == 5
        assert config.start_year == 2002
        assert config.end_year == 2020
        assert config.cutoff == pytest.approx(0.4)
        assert config.warm_up_rounds == 2
        assert config.income_multiple == pytest.approx(3.5)
        assert config.annual_rate == pytest.approx(0.0216)
        assert config.living_cost == pytest.approx(10.0)
        assert config.repayment_sensitivity == pytest.approx(5.0)

    def test_num_steps_covers_2002_to_2020(self):
        assert CaseStudyConfig().num_steps == 19

    def test_years_tuple(self):
        years = CaseStudyConfig().years
        assert years[0] == 2002
        assert years[-1] == 2020
        assert len(years) == 19

    def test_race_mix_matches_the_paper(self):
        mix = CaseStudyConfig().race_mix
        assert mix[Race.BLACK] == pytest.approx(0.1235)
        assert mix[Race.WHITE] == pytest.approx(0.8406)
        assert mix[Race.ASIAN] == pytest.approx(0.0359)


class TestValidationAndScaling:
    def test_rejects_inverted_year_range(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(start_year=2020, end_year=2002)

    def test_rejects_non_positive_population(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(num_users=0)

    def test_rejects_negative_warm_up(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(warm_up_rounds=-1)

    def test_scaled_copy_changes_only_the_requested_fields(self):
        config = CaseStudyConfig()
        scaled = config.scaled(num_users=50, num_trials=2)
        assert scaled.num_users == 50
        assert scaled.num_trials == 2
        assert scaled.start_year == config.start_year
        assert scaled.cutoff == config.cutoff

    def test_scaled_without_arguments_is_identical(self):
        config = CaseStudyConfig()
        assert config.scaled() == config

    def test_config_is_hashable_and_frozen(self):
        config = CaseStudyConfig()
        with pytest.raises(AttributeError):
            config.num_users = 5  # type: ignore[misc]


class TestMistypedValuesAreRejected:
    """Counts are integers and flags booleans, checked at construction."""

    @pytest.mark.parametrize(
        "key,value",
        [
            ("num_users", 50.5),
            ("num_users", True),
            ("num_trials", 2.0),
            ("start_year", "2002"),
            ("seed", 1.5),
            ("warm_up_rounds", None),
            ("max_workers", 2.5),
            ("num_shards", 2.0),
            ("checkpoint_every", 1.0),
        ],
    )
    def test_non_integer_counts(self, key, value):
        with pytest.raises(ValueError, match=key):
            CaseStudyConfig(**{key: value})

    @pytest.mark.parametrize("key", ["warm_start", "resume"])
    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_non_boolean_flags(self, key, value):
        with pytest.raises(ValueError, match=key):
            CaseStudyConfig(**{key: value})

    def test_numpy_scalars_are_accepted_as_plain_values(self):
        config = CaseStudyConfig(
            num_users=np.int64(40), seed=np.int32(3), warm_start=np.bool_(True)
        )
        assert type(config.num_users) is int and config.num_users == 40
        assert type(config.seed) is int and config.seed == 3
        assert config.warm_start is True

    def test_runner_override_is_validated_too(self):
        from repro.experiments.runner import run_trial

        with pytest.raises(ValueError, match="warm_start"):
            run_trial(CaseStudyConfig(num_users=20, num_trials=1), warm_start="no")
