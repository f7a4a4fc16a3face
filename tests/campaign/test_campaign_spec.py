"""Campaign spec validation, grid expansion, and TOML/JSON loading."""

from __future__ import annotations

import json
import pickle
import textwrap

import pytest

from repro.campaign.spec import (
    ArmRef,
    CampaignSpec,
    build_policy_factory,
    build_scenario_table,
    expand_campaign,
    load_campaign_spec,
    policy_names,
    scenario_names,
)
from repro.data.census import Race, default_income_table


class TestArmNormalization:
    def test_string_entries_become_refs(self):
        spec = CampaignSpec(scenarios=("baseline",), policies=("retraining",))
        assert spec.scenarios == (ArmRef("baseline"),)
        assert spec.policies == (ArmRef("retraining"),)

    def test_mapping_entries_canonicalise_params(self):
        spec = CampaignSpec(
            scenarios=({"name": "recession", "downshift": 0.2, "shock_years": [2008]},)
        )
        (scenario,) = spec.scenarios
        assert scenario.name == "recession"
        # Params are sorted and list values become tuples: one canonical repr.
        assert scenario.params == (("downshift", 0.2), ("shock_years", (2008,)))

    def test_unknown_scenario_lists_vocabulary(self):
        with pytest.raises(ValueError, match="known scenarios"):
            CampaignSpec(scenarios=("boom",))

    def test_unknown_policy_lists_vocabulary(self):
        with pytest.raises(ValueError, match="known policy"):
            CampaignSpec(policies=("perfect-lender",))

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            CampaignSpec(scenarios=({"name": "recession", "severity": 2},))

    def test_mapping_without_name_is_rejected(self):
        with pytest.raises(ValueError, match='"name"'):
            CampaignSpec(scenarios=({"downshift": 0.2},))

    def test_registries_are_published(self):
        assert "recession" in scenario_names()
        assert "retraining" in policy_names()


class TestSpecValidation:
    def test_empty_axes_are_rejected(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            CampaignSpec(scenarios=())
        with pytest.raises(ValueError, match="non-empty"):
            CampaignSpec(seeds=())

    def test_bad_values_are_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CampaignSpec(population_sizes=(0,))
        with pytest.raises(ValueError, match="num_trials"):
            CampaignSpec(num_trials=0)
        with pytest.raises(ValueError, match="history_mode"):
            CampaignSpec(history_mode="verbose")
        with pytest.raises(ValueError, match="retrain modes"):
            CampaignSpec(retrain_modes=("fast",))
        with pytest.raises(ValueError, match="execution"):
            CampaignSpec(execution="gpu")
        with pytest.raises(TypeError, match="shard_transport"):
            CampaignSpec(shard_transport="rpc")

    @pytest.mark.parametrize(
        "key,kwargs",
        [
            ("population_sizes", dict(population_sizes=(1.5,))),
            ("population_sizes", dict(population_sizes=(True,))),
            ("seeds", dict(seeds=(1.5,))),
            ("num_trials", dict(num_trials=2.0)),
            ("start_year", dict(start_year="2002")),
            ("num_shards", dict(num_shards=2.5)),
            ("max_workers", dict(max_workers=1.0)),
            ("warm_start", dict(warm_start="no")),
            ("name", dict(name=3)),
        ],
    )
    def test_mistyped_values_are_rejected_naming_the_key(self, key, kwargs):
        with pytest.raises(ValueError, match=key):
            CampaignSpec(**kwargs)

    @pytest.mark.parametrize(
        "axis,arm,key,value",
        [
            ("scenarios", "recession", "downshift", "x"),
            ("scenarios", "recession", "shock_years", 2008),
            ("scenarios", "widening-gap", "disadvantaged", 1),
            ("policies", "epsilon-greedy", "epsilon", float("nan")),
            ("policies", "epsilon-greedy", "exploration_seed", 0.5),
            ("policies", "static", "training_rounds", True),
        ],
    )
    def test_mistyped_arm_parameters_are_rejected(self, axis, arm, key, value):
        with pytest.raises(ValueError, match=key):
            CampaignSpec(**{axis: ({"name": arm, key: value},)})

    @pytest.mark.parametrize(
        "axis,arm,key,value",
        [
            ("scenarios", "recession", "downshift", 1.5),
            ("scenarios", "widening-gap", "annual_downshift", -0.1),
            ("policies", "uniform-limit", "max_default_rate", 1.5),
            ("policies", "income-multiple", "max_default_rate", -0.2),
            ("policies", "income-multiple", "minimum_income", -1.0),
            ("policies", "parity", "target_approval_rate", 0.0),
            ("policies", "epsilon-greedy", "epsilon", 2.0),
            ("policies", "static", "training_rounds", 0),
        ],
    )
    def test_out_of_range_arm_parameters_fail_at_spec_time(self, axis, arm, key, value):
        # The arm's constructor would reject the value inside a job worker,
        # after the job pool has spent its retries; the spec rejects it first.
        with pytest.raises(ValueError, match=key):
            CampaignSpec(**{axis: ({"name": arm, key: value},)})

    def test_arm_parameter_bounds_are_inclusive_where_the_arm_allows(self):
        spec = CampaignSpec(
            scenarios=(
                {"name": "recession", "downshift": 0.0},
                {"name": "widening-gap", "annual_downshift": 1.0},
            ),
            policies=(
                {"name": "uniform-limit", "max_default_rate": 1.0},
                {"name": "income-multiple", "minimum_income": 0.0},
                {"name": "parity", "target_approval_rate": 1.0},
                {"name": "epsilon-greedy", "epsilon": 0.0},
                {"name": "static", "training_rounds": 1},
            ),
        )
        assert spec.grid_size == 10

    def test_typed_values_are_kept_as_given(self):
        spec = CampaignSpec(
            scenarios=({"name": "recession", "downshift": 1, "shock_years": [2008]},),
            policies=({"name": "income-multiple", "max_default_rate": None},),
            num_shards=2,
        )
        assert spec.scenarios[0].params == (("downshift", 1), ("shock_years", (2008,)))
        assert spec.policies[0].params == (("max_default_rate", None),)

    def test_grid_size_is_the_axis_product(self):
        spec = CampaignSpec(
            scenarios=("baseline", "recession"),
            policies=("retraining", "static", "uniform-limit"),
            population_sizes=(50, 100),
            seeds=(1, 2),
            retrain_modes=("exact", "compressed"),
        )
        assert spec.grid_size == 2 * 3 * 2 * 2 * 2


class TestExpansion:
    def test_expansion_is_deterministic_with_stable_indices(self):
        spec = CampaignSpec(
            scenarios=("baseline", "recession"),
            policies=("retraining", "static"),
            seeds=(1, 2),
            population_sizes=(50,),
            num_trials=2,
            start_year=2002,
            end_year=2004,
        )
        first = expand_campaign(spec)
        second = expand_campaign(spec)
        assert first == second
        assert [job.index for job in first] == list(range(spec.grid_size))
        assert len({job.job_id for job in first}) == len(first)

    def test_jobs_carry_the_grid_cell_config(self):
        spec = CampaignSpec(
            policies=("static",),
            seeds=(11,),
            population_sizes=(70,),
            num_trials=3,
            start_year=2002,
            end_year=2005,
            retrain_modes=("compressed",),
            warm_start=True,
        )
        (job,) = expand_campaign(spec)
        assert job.config.num_users == 70
        assert job.config.seed == 11
        assert job.config.num_trials == 3
        assert job.config.retrain_mode == "compressed"
        assert job.config.warm_start is True
        # Run options never leak into the job's config: the planner decides.
        assert job.config.execution == "serial"

    def test_jobs_and_factories_are_picklable(self):
        spec = CampaignSpec(policies=("parity", "epsilon-greedy"))
        for job in expand_campaign(spec):
            clone = pickle.loads(pickle.dumps(job))
            assert clone == job
            pickle.dumps(build_policy_factory(job.policy))


class TestScenarioTables:
    def test_baseline_means_default_table(self):
        assert build_scenario_table(ArmRef("baseline")) is None

    def test_recession_changes_the_table(self):
        table = build_scenario_table(ArmRef("recession"))
        assert table is not None
        base = default_income_table()
        assert not (
            table.bracket_shares(2008, Race.BLACK)
            == base.bracket_shares(2008, Race.BLACK)
        ).all()

    def test_widening_gap_accepts_race_names(self):
        ref = ArmRef("widening-gap", params=(("disadvantaged", "BLACK"),))
        assert build_scenario_table(ref) is not None
        bad = ArmRef("widening-gap", params=(("disadvantaged", "MARTIAN"),))
        with pytest.raises(ValueError, match="unknown race"):
            build_scenario_table(bad)


class TestLoading:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            textwrap.dedent(
                """
                name = "demo"
                scenarios = ["baseline", {name = "recession", downshift = 0.25}]
                policies = ["retraining"]
                population_sizes = [50]
                seeds = [1, 2]
                num_trials = 2
                start_year = 2002
                end_year = 2004

                [run]
                execution = "serial"
                num_shards = 2
                """
            )
        )
        spec = load_campaign_spec(path)
        assert spec.name == "demo"
        assert spec.grid_size == 4
        assert spec.execution == "serial"
        assert spec.num_shards == 2
        assert spec.scenarios[1].params == (("downshift", 0.25),)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {
                    "name": "demo-json",
                    "policies": ["static"],
                    "population_sizes": [40],
                    "seeds": [9],
                    "num_trials": 2,
                    "start_year": 2002,
                    "end_year": 2003,
                    "run": {"execution": "serial"},
                }
            )
        )
        spec = load_campaign_spec(path)
        assert spec.name == "demo-json"
        assert spec.policies == (ArmRef("static"),)
        assert spec.execution == "serial"

    def test_retired_shard_transport_is_an_unknown_run_key(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text('[run]\nshard_transport = "pickle"\n')
        with pytest.raises(ValueError, match=r"unknown \[run\] key\(s\)"):
            load_campaign_spec(path)

    def test_unknown_keys_are_actionable(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text('scenariios = ["baseline"]\n')
        with pytest.raises(ValueError, match="unknown spec key"):
            load_campaign_spec(path)
        path.write_text('[run]\nexecutor = "serial"\n')
        with pytest.raises(ValueError, match=r"unknown \[run\] key"):
            load_campaign_spec(path)

    def test_scalar_axis_is_rejected(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text('seeds = 7\n')
        with pytest.raises(ValueError, match="must be an array"):
            load_campaign_spec(path)

    def test_unsupported_suffix_is_rejected(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text("name: demo\n")
        with pytest.raises(ValueError, match="TOML or JSON"):
            load_campaign_spec(path)
