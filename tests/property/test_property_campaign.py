"""Hypothesis properties of the campaign cache key and spec loader.

Three families pin the contract:

* **Layout invariance.**  For any grid cell, the key is identical under
  every combination of the spec's run options (``execution``,
  ``max_workers``, ``num_shards``) — the structural
  property that lets an entry written by a serial sweep hit under pooled
  or sharded execution.  The key digests
  :func:`~repro.experiments.runner.trajectory_fingerprint_fields`, which
  simply does not contain those knobs, so the property is exact, not
  statistical.
* **Trajectory sensitivity.**  Perturbing any single trajectory-defining
  field — the seed, the population size, the calendar window, a mortgage
  or model knob, the retrain mode, the arm identity or an arm parameter —
  produces a different key.  A collision here would mean serving one
  configuration's curves as another's.
* **Loader robustness.**  Any JSON-shaped mapping fed to the spec loader
  either builds a spec that holds exactly the values it was given (nothing
  coerced) and expands into valid jobs, or raises a ``ValueError`` that
  names the offending key — never another exception.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.cache import job_key
from repro.campaign.spec import ArmRef, CampaignJob, _spec_from_mapping, expand_campaign
from repro.experiments.config import CaseStudyConfig

SCENARIOS = st.sampled_from(
    [
        ArmRef("baseline"),
        ArmRef("recession"),
        ArmRef("recession", params=(("downshift", 0.2),)),
        ArmRef("widening-gap", params=(("annual_downshift", 0.05),)),
    ]
)
POLICIES = st.sampled_from(
    [
        ArmRef("retraining"),
        ArmRef("static"),
        ArmRef("uniform-limit"),
        ArmRef("epsilon-greedy", params=(("epsilon", 0.1),)),
    ]
)

TRAJECTORY = st.fixed_dictionaries(
    {
        "num_users": st.integers(min_value=10, max_value=5000),
        "num_trials": st.integers(min_value=1, max_value=8),
        "start_year": st.integers(min_value=1990, max_value=2005),
        "end_year": st.integers(min_value=2006, max_value=2030),
        "seed": st.integers(min_value=0, max_value=2**31),
        "income_multiple": st.floats(min_value=1.0, max_value=6.0),
        "cutoff": st.floats(min_value=0.05, max_value=0.95),
        "warm_up_rounds": st.integers(min_value=0, max_value=4),
        "history_mode": st.sampled_from(["full", "aggregate"]),
        "retrain_mode": st.sampled_from(["exact", "compressed"]),
        "warm_start": st.booleans(),
    }
)

LAYOUTS = st.fixed_dictionaries(
    {
        "execution": st.sampled_from(["auto", "serial", "batch", "pool", "shard"]),
        "max_workers": st.sampled_from([None, 1, 2, 8]),
        "num_shards": st.sampled_from([1, 2, 8]),
    }
)


def _job(scenario: ArmRef, policy: ArmRef, config: CaseStudyConfig) -> CampaignJob:
    return CampaignJob(
        index=0, job_id="cell", scenario=scenario, policy=policy, config=config
    )


def _config(fields: dict, layout: dict | None = None) -> CaseStudyConfig:
    return CaseStudyConfig(**dict(fields), **(layout or {}))


@settings(max_examples=60, deadline=None)
@given(scenario=SCENARIOS, policy=POLICIES, fields=TRAJECTORY, layout=LAYOUTS)
def test_key_is_invariant_under_execution_layout(scenario, policy, fields, layout):
    plain = _job(scenario, policy, _config(fields))
    dressed = _job(scenario, policy, _config(fields, layout))
    assert job_key(plain) == job_key(dressed)


@settings(max_examples=40, deadline=None)
@given(scenario=SCENARIOS, policy=POLICIES, fields=TRAJECTORY)
def test_key_is_deterministic(scenario, policy, fields):
    assert job_key(_job(scenario, policy, _config(fields))) == job_key(
        _job(scenario, policy, _config(fields))
    )


@settings(max_examples=40, deadline=None)
@given(scenario=SCENARIOS, policy=POLICIES, fields=TRAJECTORY)
def test_key_is_sensitive_to_every_trajectory_field(scenario, policy, fields):
    base_job = _job(scenario, policy, _config(fields))
    base_key = job_key(base_job)
    config = base_job.config

    perturbed = [
        dataclasses.replace(config, num_users=config.num_users + 1),
        dataclasses.replace(config, num_trials=config.num_trials + 1),
        dataclasses.replace(config, start_year=config.start_year - 1),
        dataclasses.replace(config, end_year=config.end_year + 1),
        dataclasses.replace(config, seed=config.seed + 1),
        dataclasses.replace(config, income_multiple=config.income_multiple + 0.25),
        dataclasses.replace(config, annual_rate=config.annual_rate + 0.001),
        dataclasses.replace(config, living_cost=config.living_cost + 1.0),
        dataclasses.replace(
            config, repayment_sensitivity=config.repayment_sensitivity + 0.5
        ),
        dataclasses.replace(config, cutoff=min(0.99, config.cutoff + 0.01)),
        dataclasses.replace(config, warm_up_rounds=config.warm_up_rounds + 1),
        dataclasses.replace(config, income_threshold=config.income_threshold + 1.0),
        dataclasses.replace(
            config,
            retrain_mode="compressed" if config.retrain_mode == "exact" else "exact",
        ),
        dataclasses.replace(config, warm_start=not config.warm_start),
        dataclasses.replace(
            config,
            history_mode="aggregate" if config.history_mode == "full" else "full",
        ),
    ]
    keys = [job_key(_job(scenario, policy, variant)) for variant in perturbed]
    assert base_key not in keys
    assert len(set(keys)) == len(keys)


@settings(max_examples=40, deadline=None)
@given(fields=TRAJECTORY)
def test_key_is_sensitive_to_the_arm_identity(fields):
    config = _config(fields)
    cells = [
        (ArmRef("baseline"), ArmRef("retraining")),
        (ArmRef("recession"), ArmRef("retraining")),
        (ArmRef("recession", params=(("downshift", 0.2),)), ArmRef("retraining")),
        (ArmRef("baseline"), ArmRef("static")),
        (ArmRef("baseline"), ArmRef("epsilon-greedy", params=(("epsilon", 0.1),))),
        (ArmRef("baseline"), ArmRef("epsilon-greedy", params=(("epsilon", 0.2),))),
    ]
    keys = [job_key(_job(scenario, policy, config)) for scenario, policy in cells]
    assert len(set(keys)) == len(keys)


# ----------------------------------------------------------------------
# Spec loader fuzzing
# ----------------------------------------------------------------------

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
)
JSON = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
ARM_PARAMS = (
    "shock_years",
    "downshift",
    "disadvantaged",
    "annual_downshift",
    "start_year",
    "training_rounds",
    "max_default_rate",
    "minimum_income",
    "target_approval_rate",
    "gain",
    "epsilon",
    "exploration_seed",
)
PARAM_VALUES = (
    st.floats(min_value=0.0, max_value=1.0)
    | st.integers(min_value=0, max_value=2030)
    | st.lists(st.integers(min_value=2000, max_value=2030), max_size=2)
    | st.sampled_from(["BLACK", "asian", "MARTIAN"])
    | JSON
)


def _arm_entries(names):
    table = st.fixed_dictionaries(
        {"name": st.sampled_from(names) | JSON},
        optional={key: PARAM_VALUES for key in ARM_PARAMS},
    )
    return st.lists(st.sampled_from(names) | table | JSON, min_size=1, max_size=2)


def _or_junk(strategy):
    return strategy | JSON


SPEC_MAPPINGS = st.fixed_dictionaries(
    {},
    optional={
        "name": _or_junk(st.text(max_size=6)),
        "scenarios": _or_junk(_arm_entries(["baseline", "recession", "widening-gap"])),
        "policies": _or_junk(
            _arm_entries(["retraining", "static", "income-multiple", "epsilon-greedy"])
        ),
        "population_sizes": _or_junk(
            st.lists(st.integers(min_value=-2, max_value=400), min_size=1, max_size=2)
        ),
        "seeds": _or_junk(st.lists(st.integers(), min_size=1, max_size=2)),
        "num_trials": _or_junk(st.integers(min_value=-1, max_value=6)),
        "start_year": _or_junk(st.integers(min_value=1995, max_value=2010)),
        "end_year": _or_junk(st.integers(min_value=1995, max_value=2025)),
        "history_mode": _or_junk(st.sampled_from(["full", "aggregate"])),
        "retrain_modes": _or_junk(
            st.lists(st.sampled_from(["exact", "compressed"]), min_size=1, max_size=2)
        ),
        "warm_start": _or_junk(st.booleans()),
        "bogus": JSON,
        "run": _or_junk(
            st.fixed_dictionaries(
                {},
                optional={
                    "execution": _or_junk(
                        st.sampled_from(["auto", "serial", "batch", "pool", "shard"])
                    ),
                    "max_workers": _or_junk(st.integers(min_value=0, max_value=4)),
                    "num_shards": _or_junk(st.integers(min_value=0, max_value=4)),
                    "shard_transport": st.sampled_from(["shared", "pickle"]),
                },
            )
        ),
    },
)


def _assert_uncoerced(held, given) -> None:
    """Assert a spec holds ``given`` exactly: same values, same types."""
    if isinstance(given, list):
        assert isinstance(held, (list, tuple)) and len(held) == len(given)
        for held_item, given_item in zip(held, given):
            _assert_uncoerced(held_item, given_item)
    elif isinstance(given, dict):
        assert isinstance(held, dict) and held.keys() == given.keys()
        for key in given:
            _assert_uncoerced(held[key], given[key])
    else:
        assert type(held) is type(given), (held, given)
        assert held == given or (
            isinstance(given, float) and math.isnan(given) and math.isnan(held)
        )


def _arm_as_given(entry):
    if isinstance(entry, str):
        return entry, {}
    return entry["name"], {key: value for key, value in entry.items() if key != "name"}


@settings(max_examples=300, deadline=None)
@given(data=SPEC_MAPPINGS)
@example(data={"run": {"shard_transport": "pickle"}})
@example(data={"population_sizes": [1.5]})
@example(data={"seeds": [1.5]})
@example(data={"run": {"num_shards": 2.5}})
@example(data={"warm_start": "no"})
@example(data={"scenarios": [{"name": "recession", "downshift": "x"}]})
def test_loader_builds_a_faithful_spec_or_names_the_key(data):
    try:
        spec = _spec_from_mapping(data, "fuzz.json")
    except ValueError as error:
        run = data.get("run")
        keys = set(data) | (set(run) if isinstance(run, dict) else set())
        assert any(key in str(error) for key in keys), str(error)
        return
    for key, value in data.items():
        if key == "run":
            for run_key, run_value in value.items():
                _assert_uncoerced(getattr(spec, run_key), run_value)
        elif key in ("scenarios", "policies"):
            for arm, entry in zip(getattr(spec, key), value):
                name, params = _arm_as_given(entry)
                assert arm.name == name
                _assert_uncoerced(arm.param_dict(), params)
        else:
            _assert_uncoerced(getattr(spec, key), value)
    for job in expand_campaign(spec):
        job_key(job)


def test_retired_shard_transport_fails_as_an_unknown_run_key():
    with pytest.raises(ValueError, match=r"unknown \[run\] key\(s\) shard_transport"):
        _spec_from_mapping({"run": {"shard_transport": "shared"}}, "legacy.toml")
