"""Literal pins of the digests that address persisted results.

Campaign result-cache entries are filed under :func:`job_key` and trial
checkpoints carry :func:`_trial_fingerprint`.  Both digest
:func:`~repro.experiments.runner.trajectory_fingerprint_fields`, so any
change to a config field's name, order, default or repr silently orphans
every existing cache directory and checkpoint.  The property suites only
check that keys are invariant or sensitive *relative to each other*; these
literals pin the absolute values, so a change that shifts every key at
once fails here instead of passing unnoticed.
"""

from __future__ import annotations

import numpy as np

from repro.campaign.cache import job_key
from repro.campaign.spec import CampaignSpec, expand_campaign
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import _trial_fingerprint


def test_job_key_of_a_fixed_job_is_pinned():
    spec = CampaignSpec(
        name="pin",
        scenarios=({"name": "recession", "downshift": 0.25},),
        policies=({"name": "epsilon-greedy", "epsilon": 0.1, "exploration_seed": 3},),
        population_sizes=(300,),
        seeds=(7,),
        num_trials=2,
        start_year=2002,
        end_year=2010,
        retrain_modes=("compressed",),
    )
    (job,) = expand_campaign(spec)
    assert job.job_id == (
        "recession(downshift=0.25)/epsilon-greedy(epsilon=0.1,exploration_seed=3)"
        "/u300/seed7/compressed"
    )
    assert job_key(job) == (
        "fa30d701c9398cd70b83422c189dc92d8ccc5123830fe3533b4cbe654b0aad1a"
    )


def test_trial_fingerprints_are_pinned():
    config = CaseStudyConfig(
        num_users=250,
        num_trials=3,
        seed=11,
        retrain_mode="compressed",
        warm_start=True,
        end_year=2012,
    )
    assert _trial_fingerprint(config, 2, "aggregate") == (
        "19597d5964b6f88ff12a90db091dc287"
    )
    assert _trial_fingerprint(CaseStudyConfig(), 0, "full") == (
        "b1cdbbe814f66fbaf7b697f9bb805b74"
    )


def test_numpy_integers_fingerprint_like_python_ints():
    # The config stores numpy integers as ``int``: the digest hashes reprs,
    # and ``np.int64(1000)`` and ``1000`` must address the same results.
    assert _trial_fingerprint(
        CaseStudyConfig(num_users=np.int64(1000), seed=np.int32(20240101)), 0, "full"
    ) == _trial_fingerprint(CaseStudyConfig(), 0, "full")
