"""Determinism digests of the experiment suites at seed 0."""

from __future__ import annotations

from rainbow_lab.experiments import ExperimentConfig, run_duality, run_shift_suite


def test_shift_suite_digest():
    report = run_shift_suite(ExperimentConfig(seed=0, trials=7))
    assert report.aggregate == "pass"
    assert report.digest() == (
        "72dd86445ded88cbce0f4494be25bf01974fc7ff65a13c3686578fd1b204c8f8"
    )


def test_duality_suite_digest():
    report = run_duality(ExperimentConfig(seed=0, trials=5))
    assert report.aggregate == "pass"
    assert report.digest() == (
        "8758349d70e0d1910b221b13ecacdec3860257df5f704c84b53a07f1cb425518"
    )
