"""Determinism digests of the experiment suites at seed 0."""

from __future__ import annotations

from rainbow_lab import experiments, fractional
from rainbow_lab.experiments import (
    ExperimentConfig,
    run_absorb_suite,
    run_duality,
    run_equivalence,
    run_sharpness,
    run_shift_suite,
)


def test_sharpness_suite_digest():
    report = run_sharpness(ExperimentConfig(seed=0))
    assert report.aggregate == "pass"
    assert report.digest() == (
        "44959442c1a6369dd9d0a38a2d50dd731d9432c594d43fa64396ebc80334c887"
    )


def test_sharpness_passes_at_eighteen():
    report = run_sharpness(ExperimentConfig(seed=0, n_values=(18,)))
    assert report.aggregate == "pass"


def test_equivalence_suite_digest():
    report = run_equivalence(ExperimentConfig(seed=0, trials=3))
    assert report.aggregate == "pass"
    assert report.digest() == (
        "c0b101f2ad7a095fc437871d95aaad55d6418250d9077033dcd26c9e6b1fac35"
    )


def test_shift_suite_digest():
    report = run_shift_suite(ExperimentConfig(seed=0, trials=7))
    assert report.aggregate == "pass"
    assert report.digest() == (
        "4b100f346c83381d489c34548c7a1523763c3e27870fbe20fbc82a11343fb059"
    )


def test_shift_suite_digest_at_forty_trials():
    # every seventh trial is a tight graph: 6 alone at 7 trials, here
    # also 13, 20, 27 and 34, whose shifts delete input edges
    report = run_shift_suite(ExperimentConfig(seed=0, trials=40))
    assert report.aggregate == "pass"
    assert report.digest() == (
        "798981f8f559f918e07dd355f96934f9f62a6729d37034e52694c725ea0ed3bb"
    )


def test_duality_suite_digest():
    report = run_duality(ExperimentConfig(seed=0, trials=5))
    assert report.aggregate == "pass"
    assert report.digest() == (
        "8758349d70e0d1910b221b13ecacdec3860257df5f704c84b53a07f1cb425518"
    )


def test_absorb_suite_digest():
    report = run_absorb_suite(ExperimentConfig(seed=0, trials=2))
    assert report.aggregate == "pass"
    assert report.digest() == (
        "9288e5125727631a967eac1160f50c0e8b3d80ffabf43b87ace3f8034e3638f7"
    )


def test_absorb_suite_digest_at_twenty_trials():
    report = run_absorb_suite(ExperimentConfig(seed=0, trials=20))
    assert report.aggregate == "pass"
    assert report.digest() == (
        "de716a413e779901772ee315b97b8d68545a6a02cf8bca0eaea5209fa669d105"
    )


def test_duality_suite_lp_solves(monkeypatch):
    # one solve per trial gives the value and both certificates
    calls = []
    solve = fractional._solve

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fractional, "_solve", counting_solve)
    report = run_duality(ExperimentConfig(seed=0, trials=5))
    assert report.aggregate == "pass"
    assert len(calls) == 5


def test_duality_suite_fails_on_rejected_certificates(monkeypatch):
    monkeypatch.setattr(experiments, "verify_duality", lambda graph, timeout: None)
    report = run_duality(ExperimentConfig(seed=0, trials=2))
    assert report.aggregate == "fail"
    assert all("certificates rejected" in row.detail for row in report.rows)
