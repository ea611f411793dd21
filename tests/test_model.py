import functools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_alpha
from poolpart import (
    OutcomeVector,
    OutcomeWeights,
    QCurve,
    SymmetricModel,
    TrialSummary,
    ValidationError,
    alpha_from_w,
    dorfman_infinite_size,
    efficiency,
    fit_iid,
    fit_symmetric,
    iid_model,
    marginal_zero_bruteforce,
    prevalence,
    q_from_alpha,
    sample_outcome,
    substream,
    w_from_alpha,
    w_from_q,
)
from poolpart.model import _outcome_mass, binary_vector, check_real_vector, status_matrix


def point_mass(n, k):
    a = np.zeros(n + 1)
    a[k] = 1.0
    return SymmetricModel(n, a)


def single_positive_pair():
    """n=2, exactly one positive: alpha=[0,1,0]."""
    return SymmetricModel(2, np.array([0.0, 1.0, 0.0]))


class TestIidModel:
    @pytest.mark.parametrize("n", [4, 100, 101, 384])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_prevalence_is_point_mass(self, p, n):
        # n = 100 is the last size with a rational channel, n = 101 the
        # first on the float path
        m = iid_model(n, p)
        k_pos = n if p == 1.0 else 0
        assert m.alpha.tolist() == point_mass(n, k_pos).alpha.tolist()
        if n <= 100:
            binomial = tuple(
                math.comb(n, k) * Fraction(p) ** k * Fraction(1 - p) ** (n - k)
                for k in range(n + 1)
            )
            assert m._exact == binomial
            assert all(isinstance(x, Fraction) for x in m._exact)
        else:
            assert m._exact is None
        q = q_from_alpha(m).q.tolist()
        assert q == ([1.0] * (n + 1) if p == 0.0 else [1.0] + [0.0] * n)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_prevalence_at_large_n(self, p):
        n = 10_000
        m = iid_model(n, p)
        assert m.alpha.tobytes() == point_mass(n, n if p == 1.0 else 0).alpha.tobytes()
        assert m._exact is None

    def test_fair_coin_n2(self):
        assert_allclose(iid_model(2, 0.5).alpha, [0.25, 0.5, 0.25], rtol=1e-15)

    def test_q_is_geometric(self):
        # q[h] = (1-p)^h for independent specimens
        m = iid_model(80, 0.01624)
        qc = q_from_alpha(m)
        expected = (1 - 0.01624) ** np.arange(81)
        assert_allclose(qc.q, expected, rtol=1e-12)
        assert abs(qc.q[8] - 0.8772296055564589) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            iid_model(4, -0.1)
        with pytest.raises(ValidationError):
            iid_model(4, 1.1)
        with pytest.raises(ValidationError):
            iid_model(0, 0.1)

    def test_large_n_falls_back_to_float(self):
        m = iid_model(150, 0.02)
        assert abs(math.fsum(m.alpha.tolist()) - 1.0) < 1e-12
        qc = q_from_alpha(m)
        assert_allclose(qc.q, 0.98 ** np.arange(151), rtol=1e-9)

    def test_prevalence_recovers_p(self):
        assert abs(prevalence(iid_model(10, 0.3)) - 0.3) < 1e-14
        assert abs(prevalence(single_positive_pair()) - 0.5) < 1e-15

    def test_prevalence_is_at_most_one(self):
        # alpha sums to 1 only within 1e-12, so E[count]/n can pass 1
        m = SymmetricModel(2, [0.0, 1e-13, 1.0])
        assert math.fsum(k * a for k, a in enumerate(m.alpha.tolist())) / 2 > 1.0
        assert prevalence(m) == 1.0
        iid_model(2, prevalence(m))


class TestQFromAlpha:
    def test_all_negative_point_mass(self):
        qc = q_from_alpha(point_mass(6, 0))
        assert_allclose(qc.q, np.ones(7))

    def test_single_positive_pair(self):
        qc = q_from_alpha(single_positive_pair())
        assert_allclose(qc.q, [1.0, 0.5, 0.0], atol=1e-15)

    def test_iid_n8(self):
        qc = q_from_alpha(iid_model(8, 0.1))
        assert_allclose(qc.q, 0.9 ** np.arange(9), rtol=1e-13)

    def test_nonincreasing_for_random_models(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            n = int(rng.integers(1, 41))
            qc = q_from_alpha(SymmetricModel(n, random_alpha(rng, n)))
            assert np.all(np.diff(qc.q) <= 1e-15)
            assert qc.q[0] == 1.0

    @pytest.mark.parametrize("n", [1, 6, 80, 100])
    @pytest.mark.parametrize(
        "make", [lambda n: point_mass(n, n), lambda n: iid_model(n, 1.0)],
        ids=["point-mass-at-n", "iid-all-positive"],
    )
    def test_vanishing_exact_curve_stays_rational(self, make, n):
        # no alpha[k] survives the sum at h >= 1, so every q[h] there is an
        # empty sum, which must still enter the channel as a Fraction
        m = make(n)
        qc = q_from_alpha(m)
        ow = w_from_q(qc)
        back = alpha_from_w(ow)
        for v in (qc, ow, back):
            assert all(isinstance(x, Fraction) for x in v._exact)
        assert qc.q.tolist() == [1.0] + [0.0] * n
        assert back.alpha.tobytes() == m.alpha.tobytes()

    def test_matches_bruteforce_marginal(self):
        rng = np.random.default_rng(102)
        for _ in range(10):
            m = SymmetricModel(8, random_alpha(rng, 8))
            qc = q_from_alpha(m)
            for h in range(9):
                assert abs(qc.q[h] - marginal_zero_bruteforce(m, h)) < 1e-10


class TestWFromQ:
    def test_n1_two_outcomes(self):
        ow = w_from_q(QCurve(1, np.array([1.0, 0.3])))
        assert_allclose(ow.w, [0.3, 0.7], rtol=1e-15)

    def test_float_recursion_matches_product_form(self):
        # float-only curve (no rational channel): w[k] = p^k (1-p)^(n-k)
        p, n = 0.2, 6
        qc = QCurve(n, (1 - p) ** np.arange(n + 1))
        ow = w_from_q(qc)
        expected = p ** np.arange(n + 1) * (1 - p) ** (n - np.arange(n + 1))
        assert np.max(np.abs(ow.w - expected)) < 1e-12

    def test_hand_solved_n2(self):
        ow = w_from_q(QCurve(2, np.array([1.0, 0.5, 0.0])))
        assert_allclose(ow.w, [0.0, 0.5, 0.0], atol=1e-15)
        assert_allclose(alpha_from_w(ow).alpha, [0.0, 1.0, 0.0], atol=1e-15)

    def test_invalid_q_rejected(self):
        # w[2] = 1 + q[2] - 2 q[1] = -0.6 here, far below tolerance
        with pytest.raises(ValidationError, match="not a valid symmetric"):
            w_from_q(QCurve(2, np.array([1.0, 0.9, 0.2])))

    def test_roundoff_negative_is_clamped_and_renormalized(self):
        # w[2] = 1 + q[2] - 2 q[1] = -4e-11: inside the clamp band
        ow = w_from_q(QCurve(2, np.array([1.0, 0.625 + 2e-11, 0.25])))
        assert ow.w[2] == 0.0
        total = math.fsum(math.comb(2, k) * ow.w[k] for k in range(3))
        assert abs(total - 1.0) < 1e-12

    def test_negative_beyond_band_is_an_error(self):
        with pytest.raises(ValidationError):
            w_from_q(QCurve(2, np.array([1.0, 0.625 + 1e-8, 0.25])))

    def test_normalization_forced_by_recursion(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            q = q_from_alpha(SymmetricModel(n, random_alpha(rng, n))).q
            ow = w_from_q(QCurve(n, q.copy()))  # float path
            total = math.fsum(math.comb(n, k) * ow.w[k] for k in range(n + 1))
            assert abs(total - 1.0) < 1e-12


class TestRoundTrip:
    def test_exact_channel_roundtrip_is_bit_identical(self):
        rng = np.random.default_rng(104)
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 50, 64):
            m = SymmetricModel(n, random_alpha(rng, n))
            back = alpha_from_w(w_from_q(q_from_alpha(m)))
            assert np.array_equal(back.alpha, m.alpha)

    def test_float_only_roundtrip_small_n(self):
        # without the rational channel the inversion loses ~2^n digits,
        # so only small n is expected to stay within 1e-9
        rng = np.random.default_rng(105)
        for _ in range(40):
            n = int(rng.integers(1, 15))
            m = SymmetricModel(n, random_alpha(rng, n))
            q = q_from_alpha(m).q
            back = alpha_from_w(w_from_q(QCurve(n, q.copy())))
            assert np.max(np.abs(back.alpha - m.alpha)) < 1e-9

    def test_alpha_w_bijection(self):
        rng = np.random.default_rng(106)
        for n in (1, 4, 9, 30):
            m = SymmetricModel(n, random_alpha(rng, n))
            back = alpha_from_w(w_from_alpha(m))
            assert np.max(np.abs(back.alpha - m.alpha)) < 1e-12

    def test_uniform_outcome_weights_n3(self):
        ow = OutcomeWeights(3, np.full(4, 0.125))
        assert_allclose(alpha_from_w(ow).alpha, [1 / 8, 3 / 8, 3 / 8, 1 / 8], rtol=1e-15)

    def test_iid_weights_product_form(self):
        for n, p in ((6, 0.2), (18, 0.35), (30, 0.07)):
            ow = w_from_alpha(iid_model(n, p))
            k = np.arange(n + 1)
            assert np.max(np.abs(ow.w - p**k * (1 - p) ** (n - k))) < 1e-12


class TestMarginalBruteforce:
    def test_empty_group(self):
        assert marginal_zero_bruteforce(point_mass(4, 2), 0) == 1.0

    def test_single_positive_pair(self):
        assert abs(marginal_zero_bruteforce(single_positive_pair(), 1) - 0.5) < 1e-15

    def test_iid_n8(self):
        m = iid_model(8, 0.1)
        assert abs(marginal_zero_bruteforce(m, 3) - 0.729) < 1e-12

    def test_size_guard(self):
        with pytest.raises(ValidationError):
            marginal_zero_bruteforce(point_mass(17, 0), 1)
        with pytest.raises(ValidationError):
            marginal_zero_bruteforce(point_mass(4, 0), 5)


class TestSampling:
    def test_point_masses(self):
        zeros = sample_outcome(point_mass(5, 0), 1)
        ones = sample_outcome(point_mass(5, 5), 1)
        assert zeros.nnz == 0 and zeros.n == 5
        assert ones.nnz == 5

    def test_determinism_and_stream_separation(self):
        m = iid_model(20, 0.3)
        a = sample_outcome(m, substream(9, 4, 2)).statuses
        b = sample_outcome(m, substream(9, 4, 2)).statuses
        c = sample_outcome(m, substream(9, 4, 3)).statuses
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_count_law(self):
        # nnz frequencies track alpha within 4 standard errors per cell
        alpha = np.zeros(7)
        alpha[0], alpha[1], alpha[4] = 0.3, 0.2, 0.5
        m = SymmetricModel(6, alpha)
        rng = substream(30)
        draws = 20000
        counts = np.zeros(7)
        for _ in range(draws):
            counts[sample_outcome(m, rng).nnz] += 1
        for k in (0, 1, 4):
            se = math.sqrt(alpha[k] * (1 - alpha[k]) / draws)
            assert abs(counts[k] / draws - alpha[k]) < 4 * se
        assert counts[2] == counts[3] == counts[5] == counts[6] == 0

    def test_positions_uniform_over_subsets(self):
        # conditional on nnz = 2, every 2-subset of 6 has probability 1/15
        m = point_mass(6, 2)
        rng = substream(31)
        draws = 60000
        counts = {}
        for _ in range(draws):
            key = tuple(np.flatnonzero(sample_outcome(m, rng).statuses))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 15
        p0 = 1 / 15
        se = math.sqrt(p0 * (1 - p0) / draws)
        for c in counts.values():
            assert abs(c / draws - p0) < 4 * se

    def test_substream_validation(self):
        with pytest.raises(ValidationError):
            substream(-1)
        with pytest.raises(ValidationError):
            substream(0, lane=2**64)

    @pytest.mark.parametrize("label", ["lane", "draw"])
    def test_stream_labels_are_non_boolean_integers(self, label):
        for bad in (2.0, "2", True):
            with pytest.raises(ValidationError, match=f"^{label} must be a uint64"):
                substream(0, **{label: bad})
        same = [substream(0, **{label: v}).random() for v in (np.uint64(2), 2)]
        assert same[0] == same[1]

    def test_labels_above_2_63_do_not_collide(self):
        # labels >= 2**63 once passed through float64: 2**64 - 1 ran as stream (0, 0)
        labels = [(0, 0), (2**63 + 5, 2**63 - 1), (2**64 - 1, 2**64 - 1), (2**64 - 2, 0)]
        draws = {substream(11, lane, draw).random() for lane, draw in labels}
        assert len(draws) == len(labels)


class TestValidationAndTypes:
    def test_alpha_must_normalize(self):
        with pytest.raises(ValidationError):
            SymmetricModel(2, np.array([0.5, 0.5, 0.5]))

    def test_alpha_bounds(self):
        with pytest.raises(ValidationError):
            SymmetricModel(2, np.array([-0.1, 1.1, 0.0]))

    def test_alpha_length(self):
        with pytest.raises(ValidationError):
            SymmetricModel(3, np.array([1.0, 0.0]))

    def test_q_head_must_be_one(self):
        with pytest.raises(ValidationError):
            QCurve(2, np.array([0.999, 0.5, 0.1]))

    def test_q_must_be_nonincreasing(self):
        with pytest.raises(ValidationError):
            QCurve(2, np.array([1.0, 0.4, 0.6]))

    def test_q_entries_lie_in_unit_interval(self):
        with pytest.raises(ValidationError, match=re.escape("q entries must lie in [0, 1]")):
            QCurve(2, [1.0, 1.5, 0.5])

    def test_nested_arrays_numpy_cannot_shape(self):
        with pytest.raises(ValidationError, match="alpha must be an array of numbers"):
            check_real_vector("alpha", [np.zeros((2, 2)), np.zeros((2, 3))])

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            OutcomeWeights(2, np.array([0.5, 0.3, -0.1]))

    def test_outcome_vector_binary(self):
        with pytest.raises(ValidationError):
            OutcomeVector(np.array([0, 1, 2]))
        v = OutcomeVector(np.array([0, 1, 1, 0]))
        assert v.nnz == 2 and v.n == 4

    def test_vectors_are_frozen(self):
        m = point_mass(3, 1)
        with pytest.raises(ValueError):
            m.alpha[0] = 0.5

    def test_serialization_roundtrip(self):
        m = iid_model(6, 0.125)
        again = SymmetricModel.from_dict(m.to_dict())
        assert again.n == 6
        assert np.array_equal(again.alpha, m.alpha)

    def test_from_dict_rejects_bad_documents(self):
        with pytest.raises(ValidationError):
            SymmetricModel.from_dict({"alpha": [1.0]})


def beta_binomial_alpha(n, a, b):
    """alpha[k] = C(n,k) B(k+a, n-k+b) / B(a, b), built in log space."""
    lg = math.lgamma
    log_beta_ab = lg(a) + lg(b) - lg(a + b)
    la = np.array(
        [
            lg(n + 1) - lg(k + 1) - lg(n - k + 1)
            + lg(k + a) + lg(n - k + b) - lg(n + a + b) - log_beta_ab
            for k in range(n + 1)
        ]
    )
    alpha = np.exp(la)
    return alpha / math.fsum(alpha.tolist())


def reference_float_q(m):
    """q[h] = fsum_k alpha[k] * (C(n-h,k) / C(n,k)), each ratio a correctly
    rounded big-integer quotient: the float path before the ratio
    recurrence, kept as an oracle."""
    n = m.n
    cn = [math.comb(n, k) for k in range(n + 1)]
    q = np.empty(n + 1)
    q[0] = 1.0
    for h in range(1, n + 1):
        q[h] = math.fsum(
            float(m.alpha[k]) * (math.comb(n - h, k) / cn[k]) for k in range(n - h + 1)
        )
    return np.minimum(q, 1.0)


class TestFloatQFromAlpha:
    """n > 100: the O(n^2) ratio recurrence against the comb-quotient sum."""

    @pytest.mark.parametrize("n", [101, 150, 200, 500])
    @pytest.mark.parametrize("family", ["iid", "beta-binomial"])
    def test_matches_comb_quotient_reference(self, n, family):
        if family == "iid":
            m = iid_model(n, 0.02)
        else:
            m = SymmetricModel(n, beta_binomial_alpha(n, 0.3, 15.0))
        qc = q_from_alpha(m)
        assert qc._exact is None
        assert_allclose(qc.q, reference_float_q(m), rtol=1e-13, atol=0)
        assert np.all(np.diff(qc.q) <= 0.0)
        assert qc.q[n] == m.alpha[0]
        assert qc.q[0] == 1.0

    def test_nonincreasing_for_random_models(self):
        rng = np.random.default_rng(107)
        for n in (101, 137, 260):
            m = SymmetricModel(n, random_alpha(rng, n))
            qc = q_from_alpha(m)
            assert np.all(np.diff(qc.q) <= 0.0)
            assert qc.q[n] == m.alpha[0]


class TestLargeNConversions:
    """n = 1100: C(n, k) exceeds the float range near k = n/2."""

    N = 1100

    def test_representable_results_compute(self):
        m = iid_model(self.N, 0.01)
        ow = w_from_alpha(m)
        k = np.flatnonzero(m.alpha > 1e-250)
        assert_allclose(ow.w[k], [m.alpha[i] / math.comb(self.N, int(i)) for i in k], rtol=1e-15)
        back = alpha_from_w(ow)
        assert np.max(np.abs(back.alpha - m.alpha)) < 1e-15
        assert OutcomeWeights(self.N, ow.w).n == self.N
        for k_pos in (0, self.N):
            ow = w_from_q(q_from_alpha(point_mass(self.N, k_pos)))
            assert ow.w[k_pos] == 1.0 and np.count_nonzero(ow.w) == 1

    def test_unrepresentable_results_raise_validation_error(self):
        uniform = SymmetricModel(self.N, np.full(self.N + 1, 1.0 / (self.N + 1)))
        with pytest.raises(ValidationError, match="underflows") as err:
            w_from_alpha(uniform)
        assert "\n" not in str(err.value)
        with pytest.raises(ValidationError, match="float range") as err:
            w_from_q(q_from_alpha(iid_model(self.N, 0.01)))
        assert "\n" not in str(err.value)
        w = np.zeros(self.N + 1)
        w[self.N // 2] = 1.0
        with pytest.raises(ValidationError, match="float range"):
            OutcomeWeights(self.N, w)


def scaled(x, num, den=1):
    """x * num / den rounded once from the exact rational: the float path of
    alpha_from_w, w_from_alpha and the outcome-mass check before every input
    was read as exact rationals, kept as their reference."""
    x = float(x)
    if x == 0.0:
        return 0.0
    p, d = x.as_integer_ratio()
    return (p * num) / (d * den)


def representable_dirichlet(n, seed):
    """Random alpha on the counts k with C(n, k) < 2**900, so that no mass
    of w = alpha / C(n, k) is lost to underflow."""
    support = [k for k in range(n + 1) if math.comb(n, k) < 2**900]
    a = np.zeros(n + 1)
    a[support] = np.random.default_rng(seed).dirichlet(np.full(len(support), 0.3))
    return a / math.fsum(a.tolist())


class TestOneRoundingFromExactRationals:
    """Without a channel, the binomial conversions read the floats as the
    exact rationals they are; each entry must equal `scaled` bit for bit,
    and the exact result is passed on as the result's channel."""

    @pytest.mark.parametrize("n", [101, 150, 500, 1100])
    def test_float_only_alpha_and_w(self, n):
        m = SymmetricModel(n, representable_dirichlet(n, n))
        ow = w_from_alpha(m)
        want = [scaled(a, 1, math.comb(n, k)) for k, a in enumerate(m.alpha.tolist())]
        assert ow.w.tobytes() == np.array(want).tobytes()
        exact_alpha = tuple(map(Fraction, m.alpha.tolist()))
        assert ow._exact == tuple(a / math.comb(n, k) for k, a in enumerate(exact_alpha))
        back = alpha_from_w(ow)
        assert back.alpha.tobytes() == m.alpha.tobytes()
        assert back._exact == exact_alpha
        want = [scaled(x, math.comb(n, k)) for k, x in enumerate(ow.w.tolist())]
        assert _outcome_mass(n, ow.w) == math.fsum(want)

    @pytest.mark.parametrize("n", [5, 80, 100])
    def test_float_only_outcome_weights(self, n):
        w = w_from_alpha(SymmetricModel(n, random_alpha(np.random.default_rng(n), n))).w
        back = alpha_from_w(OutcomeWeights(n, w))
        want = [scaled(x, math.comb(n, k)) for k, x in enumerate(w.tolist())]
        assert back.alpha.tobytes() == np.array(want).tobytes()
        assert back._exact == tuple(math.comb(n, k) * Fraction(x) for k, x in enumerate(w.tolist()))

    @pytest.mark.parametrize("n", [101, 500, 1100])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_prevalence_without_channel(self, p, n):
        m = iid_model(n, p)
        assert m.alpha.tolist() == point_mass(n, n if p == 1.0 else 0).alpha.tolist()
        assert m._exact is None

    def test_mass_beyond_float_range_is_one_line(self):
        w = np.zeros(1101)
        w[550] = 1.0
        with pytest.raises(ValidationError, match="float range") as err:
            OutcomeWeights(1100, w)
        assert "\n" not in str(err.value)


class TestIntegerSizes:
    def test_numpy_sizes_are_stored_as_python_ints(self):
        from poolpart import CostVector

        m = iid_model(np.int64(5), 0.25)
        assert type(m.n) is int and m._exact is not None
        back = SymmetricModel.from_dict(json.loads(json.dumps(m.to_dict())))
        assert back.alpha.tobytes() == m.alpha.tobytes()
        for v in (
            QCurve(np.int64(1), [1.0, 0.5]),
            OutcomeWeights(np.int64(1), [0.5, 0.5]),
            CostVector(np.int64(2), [np.nan, 1.0, 2.0]),
        ):
            assert type(v.n) is int


def _real_entry_points():
    cohort = [np.array([0, 1, 0, 0]), np.array([1, 1, 0, 0])]
    return {
        "iid_model": lambda v: iid_model(3, v).alpha.tolist(),
        "dorfman_infinite_size": dorfman_infinite_size,
        "fit_iid": lambda v: fit_iid(cohort, laplace=v).alpha.tolist(),
        "fit_symmetric": lambda v: fit_symmetric(cohort, laplace=v).alpha.tolist(),
        "efficiency": lambda v: efficiency(8, v),
        "TrialSummary": lambda v: TrialSummary(5, v, v, v, v).to_dict(),
    }


class TestRealScalars:
    """Prevalence, laplace and expected_tests are read by one rule,
    model.check_real: a non-boolean real number."""

    @pytest.mark.parametrize(
        "entry, value",
        [
            pytest.param(entry, value, id=f"{entry}-{kind}")
            for entry, kind, value in [
                ("iid_model", "str", "0.1"),
                ("iid_model", "bool", True),
                ("iid_model", "numpy-bool", np.bool_(True)),
                ("iid_model", "complex", 0.1j),
                ("iid_model", "none", None),
                ("dorfman_infinite_size", "str", "0.1"),
                ("dorfman_infinite_size", "none", None),
                ("fit_iid", "str", "1"),
                ("fit_iid", "bool", True),
                ("fit_symmetric", "str", "1"),
                ("fit_symmetric", "bool", True),
                ("efficiency", "str", "2"),
                ("efficiency", "bool", True),
                ("TrialSummary", "str", "0.1"),
                ("TrialSummary", "bool", True),
            ]
        ],
    )
    def test_non_real_is_rejected(self, entry, value):
        with pytest.raises(ValidationError, match="must be a real number, got "):
            _real_entry_points()[entry](value)

    @pytest.mark.parametrize(
        "entry", ["iid_model", "fit_iid", "fit_symmetric", "efficiency", "TrialSummary"]
    )
    @pytest.mark.parametrize(
        "value", [np.float32(0.25), np.float64(0.25), Fraction(1, 4), np.int64(1)],
        ids=["float32", "float64", "fraction", "int64"],
    )
    def test_numpy_and_rational_scalars_read_as_floats(self, entry, value):
        call = _real_entry_points()[entry]
        assert call(value) == call(float(value))

    def test_dorfman_reads_numpy_floats(self):
        call = _real_entry_points()["dorfman_infinite_size"]
        assert call(np.float32(0.01624)) == call(float(np.float32(0.01624)))

    @pytest.mark.parametrize("entry", list(_real_entry_points()))
    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), Fraction(10**400)], ids=["int", "negative-int", "fraction"]
    )
    def test_beyond_float_range_is_rejected(self, entry, value):
        # float() raises OverflowError on these
        with pytest.raises(ValidationError, match="leaves the float range: "):
            _real_entry_points()[entry](value)


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{call}-{value!r}")
        for call, values in [
            ("efficiency", [True, -8, "8", 8.5]),
            ("expected_tests_group", [2.5, True, "2"]),
            ("marginal_zero_bruteforce", [2.5, True, "2"]),
        ]
        for value in values
    ],
)
def test_integer_scalars_are_read_by_check_int(call, value):
    from poolpart import expected_tests_group

    m = iid_model(4, 0.1)
    calls = {
        "efficiency": lambda n: efficiency(n, 2.0),
        "expected_tests_group": lambda h: expected_tests_group(q_from_alpha(m), h),
        "marginal_zero_bruteforce": lambda h: marginal_zero_bruteforce(m, h),
    }
    with pytest.raises(ValidationError, match="must be an integer >= "):
        calls[call](value)


def _vector_constructors():
    """Each public type that holds a numeric vector: a function of that
    vector returning the stored copy, and a valid vector with 1 at index 1,
    where the bad entries go (a CostVector's c[0] is padding)."""
    from poolpart import CostVector, EmpiricalCounts, ValueTable

    return {
        "SymmetricModel": (lambda v: SymmetricModel(2, v).alpha, [0, 1, 0]),
        "QCurve": (lambda v: QCurve(2, v).q, [1, 1, 1]),
        "OutcomeWeights": (lambda v: OutcomeWeights(1, v).w, [0, 1]),
        "CostVector": (lambda v: CostVector(2, v).c, [0, 1, 2]),
        "ValueTable": (lambda v: ValueTable(v, [0, 1, 1]).values, [0, 1, 2]),
        "EmpiricalCounts": (lambda v: EmpiricalCounts(2, v, 4).histogram, [2, 1, 1]),
    }


def _at_1(v, x):
    return [v[0], x, *v[2:]]


BAD_VECTORS = {
    "str": lambda v: _at_1(v, "1"),
    "bool": lambda v: _at_1(v, True),
    "complex": lambda v: _at_1(v, 1 + 0j),
    "none": lambda v: _at_1(v, None),
    "ragged": lambda v: _at_1(v, [1]),
    "0-d": lambda v: np.array(1.0),
    "2-d": lambda v: [v, v],
    "nan": lambda v: _at_1(v, math.nan),
    "inf": lambda v: _at_1(v, math.inf),
    "int-beyond-float-range": lambda v: _at_1(v, 10**400),
    "empty": lambda v: [],
}


class TestVectorValues:
    """Every public numeric vector is read by model.check_real_vector or
    model.check_int_vector: strings, booleans, complex numbers, None and
    nesting are never numbers."""

    @pytest.mark.parametrize("kind", list(BAD_VECTORS))
    @pytest.mark.parametrize("make", list(_vector_constructors()))
    def test_bad_vector_is_rejected(self, make, kind):
        build, valid = _vector_constructors()[make]
        with pytest.raises(ValidationError):
            build(BAD_VECTORS[kind](valid))

    @pytest.mark.parametrize(
        "make, dtype",
        [
            (make, dtype)
            for make in _vector_constructors()
            for dtype in ("float32", "float64", "int64", "uint8", "fraction")
            if (make, dtype) != ("EmpiricalCounts", "fraction")  # an integer vector
        ],
    )
    def test_numeric_dtypes_are_read(self, make, dtype):
        build, valid = _vector_constructors()[make]
        v = [Fraction(x) for x in valid] if dtype == "fraction" else np.array(valid, dtype=dtype)
        got, want = build(v), build(valid)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got[1] == 1 and not got.flags.writeable


class TestPopulationSizeCheck:
    @pytest.mark.parametrize("bad", [0, -3, 2.5, "4", True])
    def test_same_message_for_every_representation(self, bad):
        from poolpart import CostVector

        for make in (
            lambda: SymmetricModel(bad, np.array([1.0])),
            lambda: QCurve(bad, np.array([1.0])),
            lambda: OutcomeWeights(bad, np.array([1.0])),
            lambda: CostVector(bad, np.array([np.nan, 1.0])),
            lambda: iid_model(bad, 0.1),
        ):
            with pytest.raises(ValidationError) as err:
                make()
            assert str(err.value) == f"population size must be an integer >= 1, got {bad!r}"

    @pytest.mark.parametrize("big", [2**60 - 1, 2**63, 10**20])
    def test_sizes_no_vector_can_hold(self, big):
        # rejected before any array is built: numpy cannot shape a float64
        # vector of big + 1 entries
        from poolpart import CostVector

        for make in (
            lambda: SymmetricModel(big, np.array([1.0])),
            lambda: QCurve(big, np.array([1.0])),
            lambda: CostVector(big, np.array([np.nan, 1.0])),
            lambda: iid_model(big, 0.1),
            lambda: iid_model(big, 0.0),
        ):
            with pytest.raises(ValidationError) as err:
                make()
            assert str(err.value) == f"population size must be below {2**60 - 1}, got {big}"


def integer_q(m):
    """q[h] = sum_k A_k C(n-k, h) / (D C(n, h)) as an exact (numerator,
    denominator) pair per h >= 1, where A_k / D are the alpha floats over
    the lcm D of their denominators and C(n-k, h) is a running column."""
    n = m.n
    ratios = [a.as_integer_ratio() for a in m.alpha.tolist()]
    den = math.lcm(*(d for _, d in ratios))
    num = [a * (den // d) for a, d in ratios]
    col = [1] * (n + 1)  # C(n-k, 0)
    out = []
    for h in range(1, n + 1):
        # C(n-k, h) = C(n-k, h-1) (n-k-h+1) / h; it is 0 for k > n - h
        col = [c * (n - k - h + 1) // h for k, c in enumerate(col[: n - h + 1])]
        out.append((sum(a * c for a, c in zip(num, col) if a), den * col[0]))
    return out


class TestFloatQAgainstIntegerOracle:
    """The float path's documented bound, relative error below
    (2h + 2) * 2**-53, against the exact sum of the same alpha floats."""

    @pytest.mark.parametrize("n", [200, 500, 1000])
    @pytest.mark.parametrize("family", ["iid", "beta-binomial"])
    def test_within_documented_bound(self, family, n):
        if family == "iid":
            m = iid_model(n, 0.02)
        else:
            m = SymmetricModel(n, beta_binomial_alpha(n, 0.3, 15.0))
        qc = q_from_alpha(m)
        assert qc._exact is None and qc.q[0] == 1.0
        for h, (num, den) in enumerate(integer_q(m), start=1):
            if num == 0:
                assert qc.q[h] == 0.0
                continue
            a, b = float(qc.q[h]).as_integer_ratio()
            # |a/b - num/den| <= (2h + 2) 2**-53 num/den, on integers
            assert abs(a * den - num * b) * 2**53 <= (2 * h + 2) * num * b


def fraction_w_from_q(qx, n):
    """The exact q -> w recursion on Fractions, as w_from_q ran it before
    the integer-numerator form: kept as the oracle for its channel."""
    wx = [qx[n]]
    for k in range(1, n + 1):
        acc = qx[n - k]
        for i in range(k):
            if wx[i]:
                acc -= math.comb(k, i) * wx[i]
        wx.append(acc)
    return wx


@functools.lru_cache(maxsize=None)
def exact_model_and_q(family, n):
    """Model and exact q curve, shared by the oracle and round-trip tests
    (the IID curve at n = 100 takes about 0.5 s to build)."""
    if family == "iid":
        m = iid_model(n, 0.02)
    elif family == "beta-binomial":
        m = SymmetricModel(n, beta_binomial_alpha(n, 0.3, 15.0))
    else:
        m = SymmetricModel(n, random_alpha(np.random.default_rng(1000 + n), n))
    qc = q_from_alpha(m)
    assert qc._exact is not None
    return m, qc


class TestExactWFromQOracle:
    """The integer-numerator inversion against the Fraction recursion."""

    def assert_matches_reference(self, qc):
        ref = fraction_w_from_q(qc._exact, qc.n)
        ow = w_from_q(qc)
        assert ow.w.tobytes() == np.array([float(x) for x in ref]).tobytes()
        assert ow._exact == tuple(ref)
        assert all(type(x) is Fraction for x in ow._exact)
        return ow

    @pytest.mark.parametrize("n", [1, 2, 13, 48, 80, 100])
    @pytest.mark.parametrize("family", ["iid", "beta-binomial", "random"])
    def test_models(self, family, n):
        self.assert_matches_reference(exact_model_and_q(family, n)[1])

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 30])
    @pytest.mark.parametrize("family", ["iid", "beta-binomial", "random"])
    def test_float_only_curves_invert_their_dyadic_values(self, family, n):
        # a float q is read as the exact rationals its entries are; the
        # Fraction recursion's floats then go through the documented clamp,
        # renormalization and rejection rules (which 3 of these 15 reach)
        qc = QCurve(n, exact_model_and_q(family, n)[1].q.copy())
        ref = fraction_w_from_q([Fraction(float(x)) for x in qc.q], n)
        want = np.array([float(x) for x in ref])
        if want.min() < -1e-9:
            k = int(np.argmax(want < -1e-9))
            with pytest.raises(ValidationError, match=re.escape(f"w[{k}] = {float(want[k])!r} <")):
                w_from_q(qc)
            return
        clamped = want.min() < 0.0
        want = np.maximum(want, 0.0)
        total = math.fsum(float(math.comb(n, k) * Fraction(x)) for k, x in enumerate(want))
        if abs(total - 1.0) > 1e-9:
            with pytest.raises(ValidationError, match=f"^q does not normalize: .* = {total!r} "):
                w_from_q(qc)
            return
        renormalized = abs(total - 1.0) > 1e-12
        if renormalized:
            want = want / total
        ow = w_from_q(qc)
        assert ow.w.tobytes() == want.tobytes()
        if clamped or renormalized:  # the floats are no longer the channel's rounding
            assert ow._exact is None
            return
        assert ow._exact == tuple(ref)
        back = q_from_alpha(alpha_from_w(ow))
        assert back.q.tobytes() == qc.q.tobytes()

    def test_non_dyadic_denominators(self):
        # w with thirds and sevenths; q[h] = sum_k C(n-h,k) w[k]
        n = 4
        wx = [Fraction(1, 3), Fraction(1, 21), Fraction(1, 42), Fraction(1, 63), Fraction(0)]
        wx[4] = 1 - sum(math.comb(n, k) * wx[k] for k in range(n))
        qx = tuple(sum(math.comb(n - h, k) * wx[k] for k in range(n - h + 1)) for h in range(n + 1))
        den = math.lcm(*(x.denominator for x in qx))
        assert den & (den - 1) != 0  # not a power of two
        qc = QCurve(n, np.array([float(x) for x in qx]), _exact=qx)
        ow = self.assert_matches_reference(qc)
        assert ow._exact == tuple(wx)

    def test_negative_w_raises_the_reference_message(self):
        qx = (Fraction(1), Fraction(9, 10), Fraction(1, 5))
        ref = fraction_w_from_q(qx, 2)
        assert ref[2] == Fraction(-3, 5)
        qc = QCurve(2, np.array([float(x) for x in qx]), _exact=qx)
        with pytest.raises(ValidationError) as err:
            w_from_q(qc)
        assert str(err.value) == (
            f"q is not a valid symmetric representation: reconstructed w[2] = "
            f"{float(ref[2])!r} < -1e-09 (1 entry below tolerance)"
        )

    def test_clamped_negative_drops_the_channel(self):
        # w[2] = 1 + q[2] - 2 q[1] = -1e-10 exactly: inside the clamp band
        qx = (Fraction(1), Fraction(5, 8) + Fraction(1, 2 * 10**10), Fraction(1, 4))
        assert fraction_w_from_q(qx, 2)[2] == Fraction(-1, 10**10)
        ow = w_from_q(QCurve(2, np.array([float(x) for x in qx]), _exact=qx))
        assert ow.w[2] == 0.0 and ow._exact is None


class TestFloatOnlyNegativeW:
    def test_error_at_n101_says_rounding_may_be_at_fault(self):
        # a valid q: the float recursion's 2**n amplification makes w < 0
        with pytest.raises(ValidationError, match="^q is not a valid symmetric") as err:
            w_from_q(q_from_alpha(iid_model(101, 0.02)))
        msg = str(err.value)
        assert "\n" not in msg
        assert "np.float64" not in msg
        assert "2**101" in msg and "may be rounding" in msg
        v = float(msg.split(" = ", 1)[1].split(" ", 1)[0])
        assert -1e-6 < v < -1e-9

    def test_small_n_error_does_not_blame_rounding(self):
        with pytest.raises(ValidationError) as err:
            w_from_q(QCurve(2, np.array([1.0, 0.9, 0.2])))
        assert "rounding" not in str(err.value)


class TestExactQChannelIdentities:
    """The values of the exact q channel, entry for entry, which any other
    form of the exact sum must keep."""

    @pytest.mark.parametrize("n", [1, 13, 48, 80, 100])
    def test_iid_channel_is_the_binomial_closed_form(self, n):
        # exact_model_and_q's IID model has p = 0.02: q[h] = (1 - p)**h
        assert exact_model_and_q("iid", n)[1]._exact == tuple(
            (1 - Fraction(0.02)) ** h for h in range(n + 1)
        )

    @pytest.mark.parametrize("n", [1, 13, 48, 80, 100])
    @pytest.mark.parametrize("family", ["beta-binomial", "random"])
    def test_channel_less_alpha_sums_its_floats(self, family, n):
        m, qc = exact_model_and_q(family, n)
        assert m._exact is None
        assert qc._exact[1:] == tuple(Fraction(num, den) for num, den in integer_q(m))
        # q[0]'s channel is the sum of the alpha floats, which is not 1,
        # while the float q[0] is set to 1.0
        total = sum(map(Fraction, m.alpha.tolist()))
        assert qc._exact[0] == total and total != 1 and qc.q[0] == 1.0


class TestRoundTripAtPlanSweepSizes:
    @pytest.mark.parametrize("n", [80, 100])
    @pytest.mark.parametrize("family", ["iid", "beta-binomial"])
    def test_exact_roundtrip_is_bit_identical(self, family, n):
        m, qc = exact_model_and_q(family, n)
        back = alpha_from_w(w_from_q(qc))
        assert back.alpha.tobytes() == m.alpha.tobytes()


class TestExactRoundTripsAtEveryN:
    """Each conversion passes on the exact value it computed, so the round
    trips close bit for bit on both sides of the exact q limit (n = 100)."""

    @pytest.mark.parametrize("n", [101, 150, 500, 1100])
    @pytest.mark.parametrize("p", [0.005, 0.02])
    def test_iid_alpha_w_alpha(self, p, n):
        m = iid_model(n, p)
        assert m._exact is None
        ow = w_from_alpha(m)
        assert alpha_from_w(ow).alpha.tobytes() == m.alpha.tobytes()
        assert ow._exact is not None

    def test_q_above_the_limit_ignores_a_carried_channel(self):
        # the exact q sum is a cost decision on n alone
        m = iid_model(150, 0.02)
        back = alpha_from_w(w_from_alpha(m))
        assert back._exact is not None
        qc = q_from_alpha(back)
        assert qc._exact is None and qc.q.tobytes() == q_from_alpha(m).q.tobytes()

    def test_float_only_q_w_alpha_q(self):
        # a fixed grid of Dirichlet count laws; a float-only q that inverts
        # to a valid w (clamping and renormalizing none here) comes back as is
        rng = np.random.default_rng(1600)
        valid = 0
        for _ in range(120):
            n = int(rng.integers(1, 40))
            qc = QCurve(n, q_from_alpha(SymmetricModel(n, rng.dirichlet(np.full(n + 1, 0.5)))).q)
            try:
                ow = w_from_q(qc)
            except ValidationError:
                continue
            valid += 1
            assert ow._exact is not None
            assert q_from_alpha(alpha_from_w(ow)).q.tobytes() == qc.q.tobytes()
        assert valid > 90


ORACLE_SIZES = [1, 2, 5, 13, 32, 48, 80, 100]


class TestRecursionInvertsHypergeometricQ:
    """The paper's recursion w[k] = q[n-k] - sum_{i<k} C(k,i) w[i] has one
    solution, and for q[h] = sum_k alpha[k] C(n-k,h) / C(n,h) it is
    w[k] = alpha[k] / C(n,k): w_from_q(q_from_alpha(m)) is w_from_alpha(m),
    channel for channel and float for float."""

    @staticmethod
    def assert_inverts(m, qc):
        ow, want = w_from_q(qc), w_from_alpha(m)
        assert ow._exact == want._exact
        assert ow.w.tobytes() == want.w.tobytes()

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    @pytest.mark.parametrize("family", ["iid", "beta-binomial", "random"])
    def test_families(self, family, n):
        self.assert_inverts(*exact_model_and_q(family, n))

    # p = 0.3 stops at n = 48: its exact q at n = 80 and 100 takes about 1 s
    @pytest.mark.parametrize(
        "p, n",
        [(p, n) for p in (0.0, 1.0) for n in ORACLE_SIZES] + [(0.3, n) for n in ORACLE_SIZES[:6]],
    )
    def test_iid_prevalences(self, p, n):
        m = iid_model(n, p)
        self.assert_inverts(m, q_from_alpha(m))


class TestStatusMatrix:
    def test_two_dimensional_statuses(self):
        grid = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ValidationError, match="statuses must be a nonempty 1-d vector"):
            binary_vector(grid)
        with pytest.raises(ValidationError, match="each batch must be a 1-d status vector"):
            status_matrix([grid])

    def test_stacks_arrays_and_statuses(self):
        data = status_matrix([np.array([0, 1, 1]), OutcomeVector(np.array([1, 0, 0]))], 3)
        assert data.dtype == np.uint8
        assert data.tolist() == [[0, 1, 1], [1, 0, 0]]

    def test_heterogeneous_sizes(self):
        with pytest.raises(ValidationError, match="heterogeneous batch sizes: 3 then 2"):
            status_matrix([np.array([0, 1, 1]), np.array([0, 1])])

    def test_target_size(self):
        with pytest.raises(ValidationError, match="batch size 2 does not match target size 3"):
            status_matrix([np.array([0, 1, 1]), np.array([0, 1])], 3)
        with pytest.raises(ValidationError, match="batch size 3 does not match target size 4"):
            status_matrix([np.array([0, 1, 1])], 4)
