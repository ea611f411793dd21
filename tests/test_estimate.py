import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_alpha
from poolpart import (
    EmpiricalCounts,
    SymmetricModel,
    ValidationError,
    empirical_counts,
    fit_iid,
    fit_symmetric,
    iid_model,
    kl_counts,
    log_likelihood,
    prevalence,
    sample_outcome,
    substream,
    w_from_alpha,
)


def batch(bits):
    return np.array(bits, dtype=np.uint8)


class TestEmpiricalCounts:
    def test_histogram(self):
        ec = empirical_counts([batch([0, 0, 0]), batch([0, 1, 0]), batch([1, 1, 0])])
        assert ec.n == 3
        assert ec.total_batches == 3
        assert list(ec.histogram) == [1, 1, 1, 0]

    def test_rejects_heterogeneous_sizes(self):
        with pytest.raises(ValidationError, match="heterogeneous"):
            empirical_counts([batch([0, 1]), batch([0, 1, 0])])

    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            empirical_counts([np.array([0, 2, 1])])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            empirical_counts([])


class TestEmpiricalCountsIntegers:
    """n, the histogram and total_batches are read as integers, never cast."""

    def test_fractional_histogram(self):
        with pytest.raises(ValidationError, match="histogram entries must be integers"):
            EmpiricalCounts(1, [0.7, 1.6], 1)

    def test_boolean_n(self):
        with pytest.raises(ValidationError, match="must be an integer >= 1, got True"):
            EmpiricalCounts(True, [1, 0], 1)

    def test_integral_floats_and_numpy_integers_are_read(self):
        ec = EmpiricalCounts(np.int64(1), np.array([1.0, 2.0]), 3)
        assert ec.n == 1 and type(ec.n) is int
        assert ec.histogram.tolist() == [1, 2]

    def test_negative_entry_keeps_its_message(self):
        with pytest.raises(ValidationError, match="histogram entries must be nonnegative"):
            EmpiricalCounts(1, [2, -1], 1)

    def test_histogram_must_sum_to_total(self):
        with pytest.raises(ValidationError, match="histogram must sum to total_batches"):
            EmpiricalCounts(2, [1, 1, 0], 3)


class TestLogLikelihood:
    def test_size_mismatch(self):
        with pytest.raises(ValidationError, match="model size 3 does not match batch size 2"):
            log_likelihood(iid_model(3, 0.2), [batch([0, 1])])

    def test_observed_count_of_probability_zero(self):
        # alpha[2] = 0, yet one batch has two positives
        m = SymmetricModel(2, np.array([0.5, 0.5, 0.0]))
        assert log_likelihood(m, [batch([0, 1]), batch([1, 1])]) == -math.inf


class TestFitSymmetric:
    def test_single_all_negative_batch(self):
        m = fit_symmetric([batch([0, 0, 0, 0])])
        assert_allclose(m.alpha, [1, 0, 0, 0, 0])

    def test_count_frequencies(self):
        batches = [batch([0, 0, 0]), batch([1, 0, 0]), batch([0, 0, 1]), batch([1, 1, 0])]
        m = fit_symmetric(batches)
        assert_allclose(m.alpha, [0.25, 0.5, 0.25, 0.0])

    def test_count_sufficiency(self):
        # permuting statuses within any batch cannot change the fit
        rng = np.random.default_rng(501)
        gen = iid_model(12, 0.3)
        batches = [sample_outcome(gen, substream(501, b, 0)).statuses for b in range(40)]
        shuffled = [b[rng.permutation(12)] for b in batches]
        assert np.array_equal(fit_symmetric(batches).alpha, fit_symmetric(shuffled).alpha)

    def test_fit_maximizes_likelihood(self):
        # the count-frequency fit beats random perturbed alternatives
        rng = np.random.default_rng(502)
        gen = SymmetricModel(5, random_alpha(rng, 5))
        batches = [sample_outcome(gen, substream(502, b, 0)).statuses for b in range(200)]
        fitted = fit_symmetric(batches)
        best = log_likelihood(fitted, batches)
        for _ in range(1000):
            rival = SymmetricModel(5, random_alpha(rng, 5))
            assert log_likelihood(rival, batches) <= best + 1e-9

    def test_valid_output_for_any_input(self):
        rng = np.random.default_rng(503)
        for trial in range(20):
            n = int(rng.integers(1, 15))
            rows = [rng.integers(0, 2, n).astype(np.uint8) for _ in range(int(rng.integers(1, 30)))]
            m = fit_symmetric(rows)
            assert np.all(m.alpha >= 0)
            assert abs(math.fsum(m.alpha.tolist()) - 1.0) < 1e-12

    def test_laplace_smoothing_fills_zero_cells(self):
        m = fit_symmetric([batch([0, 0, 0, 0])], laplace=0.5)
        assert np.all(m.alpha > 0)
        assert m.alpha[0] == max(m.alpha)


class TestFitIid:
    def test_all_negative(self):
        m = fit_iid([batch([0, 0, 0])])
        assert prevalence(m) == 0.0

    def test_single_batch_quarter(self):
        m = fit_iid([batch([1, 0, 0, 0])])
        assert abs(prevalence(m) - 0.25) < 1e-12

    def test_recovers_generating_prevalence(self):
        gen = iid_model(80, 0.01624)
        batches = [sample_outcome(gen, substream(504, b, 0)).statuses for b in range(1410)]
        m = fit_iid(batches)
        p_hat = prevalence(m)
        se = math.sqrt(0.01624 * (1 - 0.01624) / (1410 * 80))
        assert abs(p_hat - 0.01624) < 4 * se

    def test_likelihood_dominance_of_wider_family(self):
        # the IID family is a subfamily, so its MLE can never beat the
        # symmetric MLE on the same data
        gen = SymmetricModel(6, np.array([0.5, 0, 0, 0, 0.3, 0, 0.2]))
        batches = [sample_outcome(gen, substream(505, b, 0)).statuses for b in range(150)]
        assert log_likelihood(fit_symmetric(batches), batches) >= log_likelihood(
            fit_iid(batches), batches
        )


class TestLaplaceRange:
    """A laplace whose smoothed total overflows is rejected instead of
    dividing by inf (which read as p = 0 for the IID fit)."""

    BATCHES = [batch([0, 1, 0, 0]), batch([0, 0, 0, 0])]

    @pytest.mark.parametrize("fit", [fit_iid, fit_symmetric])
    @pytest.mark.parametrize("laplace", [1e308, np.float64(1e308)])
    def test_overflowing_total_raises(self, fit, laplace):
        with pytest.raises(ValidationError, match="laplace"):
            fit(self.BATCHES, laplace=laplace)

    def test_large_finite_total_still_fits(self):
        assert prevalence(fit_iid(self.BATCHES, laplace=1e300)) == 0.5
        alpha = fit_symmetric(self.BATCHES, laplace=1e300).alpha.tolist()
        assert alpha == [alpha[0]] * 5
        assert abs(alpha[0] - 0.2) < 1e-15


class TestKlCounts:
    def test_zero_on_identical_models(self):
        m = iid_model(8, 0.2)
        assert kl_counts(m, m) == 0.0

    def test_point_mass_against_fair_coin(self):
        n = 6
        r = SymmetricModel(n, np.concatenate([[1.0], np.zeros(n)]))
        p = iid_model(n, 0.5)
        assert abs(kl_counts(r, p) - n * math.log(2)) < 1e-12

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(506)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            r = SymmetricModel(n, random_alpha(rng, n))
            p = SymmetricModel(n, random_alpha(rng, n))
            d = kl_counts(r, p)
            assert d >= 0.0
            if d < 1e-12:
                assert np.max(np.abs(r.alpha - p.alpha)) < 1e-6

    def test_support_violation(self):
        r = SymmetricModel(2, np.array([0.5, 0.0, 0.5]))
        p = SymmetricModel(2, np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValidationError, match="support"):
            kl_counts(r, p)

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            kl_counts(iid_model(3, 0.1), iid_model(4, 0.1))

    def test_matches_full_outcome_space(self):
        # per-outcome weights are constant on each count class, so the
        # count-level divergence equals the full 2^n sum
        rng = np.random.default_rng(507)
        n = 8
        for _ in range(10):
            r = SymmetricModel(n, random_alpha(rng, n))
            p = SymmetricModel(n, random_alpha(rng, n))
            wr, wp = w_from_alpha(r).w, w_from_alpha(p).w
            full = math.fsum(
                wr[z.bit_count()] * math.log(wr[z.bit_count()] / wp[z.bit_count()])
                for z in range(1 << n)
                if wr[z.bit_count()] > 0
            )
            assert abs(kl_counts(r, p) - full) < 1e-10
