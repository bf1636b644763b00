from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

from gravlab.collapsesim import (
    BORN_WEIGHT_NOTE,
    MIN_RATE,
    CollapseModel,
    energy_ledger,
    simulate,
    _trajectory_uniforms,
)
from gravlab.errors import ProvenanceError
from gravlab.massdist import SuperpositionSpec, UniformSphere
from gravlab.quantities import CODATA2018


def test_model_validation():
    with pytest.raises(ValueError):
        CollapseModel(rate=-1.0, outcome_weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        CollapseModel(rate=1.0, outcome_weights=(0.7, 0.7))
    with pytest.raises(ValueError):
        CollapseModel(rate=math.inf, outcome_weights=(0.5, 0.5))
    model = CollapseModel(rate=1.0, outcome_weights=(0.25, 0.75),
                          branch_energies=(1.0, 3.0), interference_energy=0.5)
    assert model.pre_collapse_mean_energy == pytest.approx(0.25 + 2.25 + 0.5)


def test_rate_defaults_to_e_delta_over_hbar():
    spec = SuperpositionSpec(UniformSphere(1.0, 1.0),
                             UniformSphere(1.0, 1.0, (4.0, 0.0, 0.0)))
    model = CollapseModel.from_superposition(spec)
    c = CODATA2018
    assert model.rate == pytest.approx(0.95 * c.G / c.hbar, rel=1e-9)
    assert model.spec_digest == spec.content_digest()
    assert model.outcome_weights == (0.5, 0.5)
    half = CollapseModel.from_superposition(spec, prefactor=2.0)
    assert half.rate == pytest.approx(model.rate / 2.0, rel=1e-12)


def test_per_trajectory_counter_blocks():
    # the vectorized stream must equal one Philox generator per trajectory index
    seed, n = 424242, 64
    u_time, u_branch = _trajectory_uniforms(n, seed)
    for i in (0, 1, 17, 63):
        gen = Generator(Philox(counter=[i, 0, 0, 0], key=[seed, 0]))
        draws = gen.random(2)
        assert u_time[i] == draws[0]
        assert u_branch[i] == draws[1]


def test_bit_exact_reproducibility():
    model = CollapseModel(rate=2.0, outcome_weights=(0.3, 0.7))
    a = simulate(model, 5000, seed=99)
    b = simulate(model, 5000, seed=99)
    assert np.array_equal(a.collapse_times, b.collapse_times)
    assert np.array_equal(a.outcomes, b.outcomes)
    c = simulate(model, 5000, seed=100)
    assert not np.array_equal(a.collapse_times, c.collapse_times)


def test_exponential_statistics():
    model = CollapseModel(rate=1.0, outcome_weights=(0.5, 0.5))
    ens = simulate(model, 100_000, seed=7)
    sem = 1.0 / math.sqrt(100_000)
    assert abs(ens.summary.mean_collapse_time - 1.0) < 3.0 * sem
    # the median documents the mean-vs-half-life distinction: ln 2, not 1
    median_sem = 1.0 / (2.0 * 100_000**0.5 * 0.5)  # asymptotic, f(m) = 1/2
    assert abs(ens.summary.median_collapse_time - math.log(2.0)) < 3.0 * median_sem


def test_survival_curve_against_exponential_ks():
    model = CollapseModel(rate=3.5, outcome_weights=(0.5, 0.5))
    ens = simulate(model, 100_000, seed=13)
    ks = stats.kstest(ens.collapse_times, "expon", args=(0.0, 1.0 / 3.5))
    critical_1pct = 1.6276 / math.sqrt(100_000)
    assert ks.statistic < critical_1pct


def test_born_weight_outcomes():
    amp_a = 0.6
    model = CollapseModel(rate=1.0, outcome_weights=(amp_a**2, 1.0 - amp_a**2))
    n = 100_000
    ens = simulate(model, n, seed=21)
    fa = ens.summary.outcome_frequencies[0]
    sigma = math.sqrt(0.36 * 0.64 / n)
    assert abs(fa - 0.36) < 3.0 * sigma
    assert ens.summary.outcome_frequencies[0] + ens.summary.outcome_frequencies[1] == 1.0


def test_zero_rate_never_collapses():
    model = CollapseModel(rate=0.0, outcome_weights=(0.5, 0.5))
    ens = simulate(model, 500, seed=3)
    assert ens.infinite_lifetime
    assert np.all(np.isinf(ens.collapse_times))
    assert math.isinf(ens.summary.mean_collapse_time)


def test_ledger_degenerate_branches():
    model = CollapseModel(rate=1.0, outcome_weights=(0.5, 0.5),
                          branch_energies=(2.0, 2.0))
    ens = simulate(model, 50_000, seed=5)
    ledger = energy_ledger(ens, model)
    assert ledger.residual == pytest.approx(0.0, abs=1e-12)
    assert ledger.expected_residual == 0.0
    assert ledger.within_three_sigma


def test_ledger_distinct_energies_conserves_mean():
    model = CollapseModel(rate=1.0, outcome_weights=(0.3, 0.7),
                          branch_energies=(1.0, 5.0))
    ens = simulate(model, 100_000, seed=17)
    ledger = energy_ledger(ens, model)
    assert ledger.expected_residual == 0.0
    assert abs(ledger.residual) < 3.0 * ledger.standard_error
    assert ledger.within_three_sigma


def test_ledger_interference_shows_up_as_residual():
    delta = 0.4
    model = CollapseModel(rate=1.0, outcome_weights=(0.5, 0.5),
                          branch_energies=(1.0, 2.0), interference_energy=delta)
    ens = simulate(model, 100_000, seed=29)
    ledger = energy_ledger(ens, model)
    assert ledger.expected_residual == -delta
    assert abs(ledger.residual + delta) < 3.0 * ledger.standard_error
    assert BORN_WEIGHT_NOTE in ledger.assumption_note


def test_ledger_rejects_foreign_ensemble():
    model_a = CollapseModel(rate=1.0, outcome_weights=(0.5, 0.5))
    model_b = CollapseModel(rate=2.0, outcome_weights=(0.5, 0.5))
    ens = simulate(model_a, 100, seed=1)
    with pytest.raises(ProvenanceError):
        energy_ledger(ens, model_b)


def test_summary_survival_curve_shape():
    model = CollapseModel(rate=2.0, outcome_weights=(0.5, 0.5))
    ens = simulate(model, 20_000, seed=2)
    s = ens.summary
    assert s.survival_fractions[0] == 1.0
    assert np.all(np.diff(s.survival_fractions) <= 0.0)
    expected = np.exp(-2.0 * s.survival_times)
    assert np.max(np.abs(s.survival_fractions - expected)) < 0.02


@pytest.mark.parametrize("rate", [1e-308, 1e-320, 5e-324])
def test_model_rejects_a_rate_too_small_to_represent(rate):
    with pytest.raises(ValueError, match="rate"):
        CollapseModel(rate=rate, outcome_weights=(0.5, 0.5))


def test_the_smallest_rate_gives_finite_statistics():
    # at MIN_RATE the collapse times reach 0.57 of the float maximum: their sum overflows
    ens = simulate(CollapseModel(rate=MIN_RATE, outcome_weights=(0.5, 0.5)), 1000, seed=1)
    s = ens.summary
    assert not ens.infinite_lifetime
    assert np.all(np.isfinite(ens.collapse_times))
    assert np.all(np.isfinite(s.survival_times))
    assert s.survival_fractions[0] == 1.0
    assert np.all(np.diff(s.survival_fractions) <= 0.0)
    assert s.mean_collapse_time * MIN_RATE == pytest.approx(1.0, rel=0.1)
    assert s.median_collapse_time * MIN_RATE == pytest.approx(math.log(2.0), rel=0.1)


def test_model_rejects_non_finite_energies():
    with pytest.raises(ValueError, match="finite"):
        CollapseModel(rate=1.0, outcome_weights=(0.5, 0.5), branch_energies=(math.inf, 0.0))
    with pytest.raises(ValueError, match="finite"):
        CollapseModel(rate=1.0, outcome_weights=(0.5, 0.5), interference_energy=math.nan)


@pytest.mark.parametrize("n, seed, weights, energies", [
    (1, 0, (0.5, 0.5), (1.0, 2.0)),
    (997, 3, (0.3, 0.7), (0.1, -7.3e-5)),
    (20_000, 11, (1.0, 0.0), (3.0, 5.0)),
    (50_001, 42, (0.123, 0.877), (1e-30, 2.5e12)),
])
def test_summary_equals_brute_force_formulas(n, seed, weights, energies):
    model = CollapseModel(rate=1.7, outcome_weights=weights, branch_energies=energies)
    ens = simulate(model, n, seed)
    s = ens.summary
    grid = np.linspace(0.0, 5.0 / model.rate, 51)
    survival = np.mean(ens.collapse_times[None, :] > grid[:, None], axis=1)
    assert np.array_equal(s.survival_times, grid)
    assert np.array_equal(s.survival_fractions, survival)
    post = math.fsum(np.where(ens.outcomes == 0, *energies).tolist()) / n
    assert s.mean_post_collapse_energy == post
    freq_b = float(np.count_nonzero(ens.outcomes)) / n
    assert s.outcome_frequencies == (1.0 - freq_b, freq_b)
