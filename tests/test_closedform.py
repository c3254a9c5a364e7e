"""Closed-form moments, steering values, and thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import (
    collective_steering_value,
    cross_correlation,
    derived_from_ratios,
    moment_set,
    single_steering_value,
    steering_collective,
    steering_single,
    threshold_r,
)
from steerkit.closedform import (
    LARGE_R,
    SERIES_CROSSOVER,
    amplified_noise_factor,
    coherence_factor,
    decay_filter_ratio,
    gain_filter_ratio,
)
from steerkit.errors import GainNotPositive, InvalidParams
from steerkit.model import DerivedQuantities

E2 = math.e ** 2


def zero_damping_reference(r: float, n0: float) -> float:
    return (n0 + 0.5) / (2.0 * (n0 + 1.0) * math.expm1(2.0 * r) + 1.0)


class TestSmallPulseLimits:
    def test_moments_at_zero_pulse_area(self):
        dq = derived_from_ratios(0.0, 0.1)
        ms = moment_set(dq, n0=3.0, n=50.0)
        assert ms.var_Xm_out == pytest.approx(3.5, rel=1e-14)
        assert ms.var_X1_out == pytest.approx(0.5, rel=1e-14)
        assert ms.cov_Xm_PW == 0.0
        assert ms.cov_Xm_P1 == 0.0

    def test_witness_at_zero_pulse_area(self):
        assert collective_steering_value(0.0, 0.1, 3.0, 50.0) == 3.5
        assert single_steering_value(0.0, 0.1, 3.0, 50.0, 0.55) == 3.5

    def test_series_and_direct_agree_at_crossover(self):
        r_lo = SERIES_CROSSOVER * (1.0 - 1e-9)
        r_hi = SERIES_CROSSOVER * (1.0 + 1e-9)
        for fn in (gain_filter_ratio, decay_filter_ratio,
                   amplified_noise_factor, coherence_factor):
            assert fn(r_lo) == pytest.approx(fn(r_hi), rel=1e-10)

    def test_moment_set_continuous_at_crossover(self):
        lo = derived_from_ratios(SERIES_CROSSOVER * (1 - 1e-9), 0.1)
        hi = derived_from_ratios(SERIES_CROSSOVER * (1 + 1e-9), 0.1)
        m_lo = moment_set(lo, 1.0, 10.0).as_dict()
        m_hi = moment_set(hi, 1.0, 10.0).as_dict()
        for key in m_lo:
            assert m_lo[key] == pytest.approx(m_hi[key], rel=1e-7, abs=1e-10)


class TestMoments:
    def test_undamped_mirror_variance(self):
        dq = derived_from_ratios(1.0, 0.0)
        ms = moment_set(dq, 0.0, 0.0)
        assert ms.var_Xm_out == pytest.approx(E2 - 0.5, rel=1e-14)

    def test_damped_moments_match_oracle(self, oracle_cache):
        # independent check by moment propagation of the reduced dynamics
        dq = derived_from_ratios(1.0, 0.1)
        ms = moment_set(dq, 0.0, 100.0)
        oc = oracle_cache.covariance(1.0, 0.1, 0.0, 100.0)
        assert ms.var_Xm_out == pytest.approx(oc.variance("A_m_out"), rel=1e-6)
        assert ms.var_X1_out == pytest.approx(oc.variance("A_1_out"), rel=1e-6)
        assert ms.var_XW_out == pytest.approx(oc.variance("W_out"), rel=1e-6)
        assert ms.cov_Xm_PW == pytest.approx(
            oc.covariance(("A_m_out", "X"), ("W_out", "P")), rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.01, 3.0), x=st.floats(0.0, 0.3),
           n0=st.floats(0.0, 50.0), n=st.floats(0.0, 500.0),
           bump=st.floats(0.01, 5.0))
    def test_variances_nondecreasing_in_occupations(self, r, x, n0, n, bump):
        dq = derived_from_ratios(r, x)
        base = moment_set(dq, n0, n)
        hot_mirror = moment_set(dq, n0 + bump, n)
        hot_bath = moment_set(dq, n0, n + bump)
        for field in ("var_Xm_out", "var_X1_out", "var_X2_out", "var_XW_out"):
            assert getattr(hot_mirror, field) >= getattr(base, field) - 1e-12
            assert getattr(hot_bath, field) >= getattr(base, field) - 1e-12

    def test_mirror_variance_never_below_vacuum(self):
        for r in (0.0, 0.3, 1.0, 3.0):
            for x in (0.0, 0.1, 0.5):
                dq = derived_from_ratios(r, x)
                assert moment_set(dq, 0.0, 0.0).var_Xm_out >= 0.5


class TestCrossCorrelation:
    def test_zero_at_zero_pulse_area(self):
        dq = derived_from_ratios(0.0, 0.1)
        assert cross_correlation(dq, 5.0, 100.0) == 0.0

    def test_equal_coupling_undamped_value(self):
        dq = derived_from_ratios(1.0, 0.0)
        assert cross_correlation(dq, 0.0, 0.0) == pytest.approx(
            0.5 * (E2 - 1.0), rel=1e-14)

    def test_damping_noise_feeds_coherence(self):
        # the bath acts constructively: damped value exceeds undamped
        for r in (0.3, 1.0, 2.0):
            undamped = cross_correlation(derived_from_ratios(r, 0.0), 0.0, 0.0)
            damped = cross_correlation(derived_from_ratios(r, 0.1), 0.0, 0.0)
            assert damped > undamped

    def test_matches_monte_carlo_estimate(self, oracle_cache):
        # deterministic-oracle check here; the stochastic one runs in the
        # acceptance suite with full trajectory counts
        from steerkit.dynamics import mode_cross_correlation
        dq = derived_from_ratios(1.0, 0.1, G1_over_G2=2.0)
        oc = oracle_cache.covariance(1.0, 0.1, 0.0, 5.0, ratio=2.0)
        value, _ = mode_cross_correlation(oc, "A_1_out", "A_2_out")
        assert abs(value) == pytest.approx(
            cross_correlation(dq, 0.0, 5.0), rel=1e-6)


class TestCollectiveWitness:
    def test_undamped_ground_state_value(self):
        got = collective_steering_value(1.0, 0.0, 0.0, 0.0)
        assert got == pytest.approx(1.0 / (2.0 * (2.0 * E2 - 1.0)), rel=1e-13)

    def test_undamped_thermal_value(self):
        got = collective_steering_value(1.0, 0.0, 5.0, 0.0)
        assert got == pytest.approx(5.5 / (12.0 * (E2 - 1.0) + 1.0), rel=1e-13)

    def test_matches_conditional_variance_of_moment_set(self):
        # the expanded-numerator path is the same rational function
        for r in (0.2, 1.0, 2.5):
            for x in (0.01, 0.1, 0.4):
                dq = derived_from_ratios(r, x)
                ms = moment_set(dq, 1.5, 20.0)
                naive = ms.var_Xm_out - ms.cov_Xm_PW ** 2 / ms.var_XW_out
                assert steering_collective(dq, 1.5, 20.0) == pytest.approx(
                    naive, rel=1e-9)

    def test_matches_oracle_with_damping(self, oracle_cache):
        from steerkit.steering import steering_product
        dq = derived_from_ratios(1.0, 0.1)
        oc = oracle_cache.covariance(1.0, 0.1, 0.0, 100.0)
        report = steering_product(oc, "A_m_out", "W_out")
        assert steering_collective(dq, 0.0, 100.0) == pytest.approx(
            report.E_value, rel=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(r=st.floats(0.01, 5.0), n0=st.floats(0.0, 1000.0))
    def test_undamped_identity(self, r, n0):
        got = collective_steering_value(r, 0.0, n0, 0.0)
        assert got == pytest.approx(zero_damping_reference(r, n0), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(r=st.floats(0.01, 10.0), dr=st.floats(0.01, 2.0),
           n0=st.floats(0.0, 100.0))
    def test_undamped_witness_strictly_decreasing(self, r, dr, n0):
        a = collective_steering_value(r, 0.0, n0, 0.0)
        b = collective_steering_value(r + dr, 0.0, n0, 0.0)
        assert b < a

    def test_perfect_state_limit(self):
        assert collective_steering_value(40.0, 0.0, 100.0, 0.0) < 1e-30

    def test_large_pulse_plateau_with_damping(self):
        x, n = 0.3, 2.0
        plateau = x * x * (0.5 + x * (n + 1.0)) / (1.0 + x) ** 2
        assert collective_steering_value(400.0, x, 0.0, n) == pytest.approx(
            plateau, rel=1e-12)
        assert collective_steering_value(30.0, x, 0.0, n) == pytest.approx(
            plateau, rel=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParams):
            collective_steering_value(-1.0, 0.1, 0.0, 0.0)
        with pytest.raises(InvalidParams):
            collective_steering_value(1.0, -0.1, 0.0, 0.0)
        bad = DerivedQuantities(G1=0.4, G2=0.4, G=-0.2, delta=0.0,
                                phi=0.0, r=1.0)
        with pytest.raises(GainNotPositive):
            steering_collective(bad, 0.0, 0.0)


class TestArrayWitness:
    """The array witness against the float witness, cell by cell."""

    @pytest.mark.parametrize("branch, rs", [
        ("zero", [0.0]),
        ("series", np.geomspace(1e-12, SERIES_CROSSOVER * (1 - 1e-9), 9)),
        ("direct", np.concatenate([
            SERIES_CROSSOVER * (1 + np.geomspace(1e-9, 1.0, 4)),
            np.geomspace(1e-3, LARGE_R, 12)])),
        ("asymptote", LARGE_R * np.array([1 + 1e-12, 1.01, 1.5, 3.0])),
    ])
    def test_matches_float_witness(self, branch, rs):
        xs = np.array([0.0, 0.05, 0.3, 1.5])
        r, x = np.meshgrid(np.asarray(rs, dtype=float), xs)
        for n0, n in ((0.0, 0.0), (0.5, 5.0), (5.0, 100.0)):
            got = collective_steering_value(r, x, n0, n)
            assert got.shape == r.shape
            ref = np.array([collective_steering_value(float(a), float(b),
                                                      n0, n)
                            for a, b in zip(r.ravel(), x.ravel())])
            np.testing.assert_allclose(got, ref.reshape(r.shape), rtol=1e-13,
                                       atol=0.0, err_msg=branch)

    def test_array_occupations_broadcast_against_r(self):
        r = np.full(3, 0.7)
        n = np.array([0.0, 5.0, 50.0])
        got = collective_steering_value(r, 0.1, 1.0, n)
        ref = [collective_steering_value(0.7, 0.1, 1.0, float(v)) for v in n]
        assert got == pytest.approx(ref, rel=1e-13)

    def test_out_of_domain_cells_are_nan(self):
        r = np.array([1.0, -1.0, 1.0, 1.0, 1.0, math.nan, 0.0, 400.0])
        x = np.array([0.1, 0.1, -0.1, 0.1, 0.1, 0.1, 0.1, -0.1])
        n0 = np.array([1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
        n = np.array([1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0])
        got = collective_steering_value(r, x, n0, n)
        assert np.isfinite(got[0])
        assert np.isnan(got[1:]).all()
        for cell in zip(r[1:], x[1:], n0[1:], n[1:]):
            with pytest.raises(InvalidParams):
                collective_steering_value(*map(float, cell))


class TestWitnessesBelowLargeR:
    """Both witnesses stay finite up to ``LARGE_R``, where ``e^{2r} - 1``
    times the occupation terms would overflow, and meet the asymptotes
    that take over above it."""

    RS = np.append(np.linspace(300.0, LARGE_R, 51), 349.99)

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.5])
    @pytest.mark.parametrize("n0", [0.0, 5.0])
    @pytest.mark.parametrize("n", [0.0, 100.0])
    def test_finite_and_joining_the_asymptote(self, x, n0, n):
        above = math.nextafter(LARGE_R, math.inf)
        cases = [([collective_steering_value(float(r), x, n0, n)
                   for r in self.RS],
                  collective_steering_value(above, x, n0, n)),
                 (collective_steering_value(self.RS, x, n0, n),
                  collective_steering_value(above, x, n0, n))]
        for f in (0.5, 1.0):
            cases.append(([single_steering_value(float(r), x, n0, n, f)
                           for r in self.RS],
                          single_steering_value(above, x, n0, n, f)))
        for values, asymptote in cases:
            assert np.isfinite(values).all()
            np.testing.assert_allclose(values, asymptote, rtol=1e-13,
                                       atol=1e-250)


class TestSingleModeWitness:
    def test_equal_couplings_block_single_mode_steering_exactly(self):
        for r in (0.1, 0.5, 1.0, 2.0, 3.0):
            assert single_steering_value(r, 0.0, 0.0, 0.0, 0.5) == 0.5

    def test_uncoupled_party_cannot_steer(self):
        for r, n0 in ((0.5, 0.0), (1.0, 2.0)):
            expect = 0.5 + (n0 + 1.0) * math.expm1(2 * r) + n0
            assert single_steering_value(r, 0.0, n0, 0.0, 0.0) \
                == pytest.approx(expect, rel=1e-13)

    def test_unbalanced_couplings_allow_single_mode_steering(self):
        # G1 = 2 G2, undamped, ground state, r = 1
        u = E2 - 1.0
        expect = (u + 1.5) / (4.0 * u + 3.0)
        got = single_steering_value(1.0, 0.0, 0.0, 0.0, 2.0 / 3.0)
        assert got == pytest.approx(expect, rel=1e-13)
        assert got < 0.5

    def test_unbalanced_value_matches_oracle(self, oracle_cache):
        from steerkit.steering import steering_product
        oc = oracle_cache.covariance(1.0, 0.0, 0.0, 0.0, ratio=2.0)
        report = steering_product(oc, "A_m_out", "A_1_out")
        got = single_steering_value(1.0, 0.0, 0.0, 0.0, 2.0 / 3.0)
        assert got == pytest.approx(report.E_value, rel=1e-6)

    def test_swap_symmetry_is_exact(self):
        dq = derived_from_ratios(1.3, 0.07, G1_over_G2=2.0)
        dq_swapped = derived_from_ratios(1.3, 0.07, G1_over_G2=0.5)
        assert steering_single(dq, 1.0, 3.0, 1) \
            == steering_single(dq_swapped, 1.0, 3.0, 2)
        assert steering_single(dq, 1.0, 3.0, 2) \
            == steering_single(dq_swapped, 1.0, 3.0, 1)

    def test_weak_damping_limit_matches_closed_expression(self):
        # explicit weak-damping form, with G1 <-> G2 exchange convention
        def weak(r, n0, f1, f2):
            u = (n0 + 1.0) * math.expm1(2.0 * r)
            return 0.5 + ((f2 - f1) * u + n0) / (2.0 * f1 * u + 1.0)

        for r in (0.3, 1.0, 2.0):
            for n0 in (0.0, 2.0):
                for f1 in (0.3, 0.5, 0.7):
                    got = single_steering_value(r, 1e-9, n0, 0.0, f1)
                    assert got == pytest.approx(weak(r, n0, f1, 1.0 - f1),
                                                rel=1e-6)

    def test_mode_index_dispatch(self):
        dq = derived_from_ratios(1.0, 0.0, G1_over_G2=3.0)
        assert steering_single(dq, 0.0, 0.0, 1) \
            == single_steering_value(1.0, 0.0, 0.0, 0.0, 0.75)
        with pytest.raises(InvalidParams):
            steering_single(dq, 0.0, 0.0, 3)


class TestPulseAreaThreshold:
    def test_ground_state_needs_no_pulse_area(self):
        assert threshold_r(0.0) == 0.0

    def test_matches_bisection_on_witness(self):
        # independent oracle: bisect the undamped witness against 1/2
        n0 = 5.0
        lo, hi = 1e-12, 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if collective_steering_value(mid, 0.0, n0, 0.0) > 0.5:
                lo = mid
            else:
                hi = mid
        assert threshold_r(n0) == pytest.approx(0.5 * (lo + hi), abs=1e-12)
        assert threshold_r(n0) == pytest.approx(0.5 * math.log(11.0 / 6.0),
                                                rel=1e-12)

    def test_witness_is_half_at_threshold(self):
        for n0 in (0.5, 5.0, 50.0, 1e4):
            got = collective_steering_value(threshold_r(n0), 0.0, n0, 0.0)
            assert got == pytest.approx(0.5, abs=1e-9)

    def test_hot_mirror_limit(self):
        assert threshold_r(1e6) == pytest.approx(0.5 * math.log(2.0),
                                                 abs=1e-6)

    def test_rejects_negative_occupation(self):
        with pytest.raises(InvalidParams):
            threshold_r(-1.0)
