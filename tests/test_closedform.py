"""Closed-form moments, steering values, and thresholds."""

import ast
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    block,
    block_reference,
    collective_witness_reference,
    cross_correlation,
    moment_set,
    single_witness_reference,
)
from steerkit import (
    collective_steering_value,
    output_block,
    single_steering_value,
    threshold_r,
)
from steerkit import closedform
from steerkit.closedform import (
    SINH_SERIES_R,
    _gain_fractions,
    coherence_factor,
    gain_filter_ratio,
)
from steerkit.errors import DegenerateVariance, InvalidParams, NoThreshold
from steerkit.steering import N_CAP, noise_threshold

E2 = math.e ** 2


def zero_damping_reference(r: float, n0: float) -> float:
    return (n0 + 0.5) / (2.0 * (n0 + 1.0) * math.expm1(2.0 * r) + 1.0)


def coherence_reference(r: float) -> mpmath.mpf:
    """``coherence_factor`` in 50-digit mpmath, as ``(sinh u - u) / (1 -
    e^{-u})`` with ``u = 2r``.  Below u = 1 ``sinh u - u`` is its Taylor
    sum: at 50 digits the difference cancels to 0 near r = 1e-150."""
    with mpmath.workdps(50):
        u = 2 * mpmath.mpf(r)
        if u < 1:
            term = excess = u ** 3 / 6
            k = 2
            while term > excess * mpmath.mpf(10) ** -50:
                term *= u * u / ((2 * k) * (2 * k + 1))
                excess += term
                k += 1
        else:
            excess = mpmath.sinh(u) - u
        return excess / -mpmath.expm1(-u)


class TestSmallPulseLimits:
    def test_moments_at_zero_pulse_area(self):
        ms = moment_set(0.0, 0.1, n0=3.0, n=50.0)
        assert ms["var_Xm_out"] == pytest.approx(3.5, rel=1e-14)
        assert ms["var_X1_out"] == pytest.approx(0.5, rel=1e-14)
        assert ms["cov_Xm_PW"] == 0.0
        assert ms["cov_Xm_P1"] == 0.0

    def test_witness_at_zero_pulse_area(self):
        assert collective_steering_value(0.0, 0.1, 3.0, 50.0) == 3.5
        assert single_steering_value(0.0, 0.1, 3.0, 50.0, 0.55) == 3.5

    def test_series_and_direct_agree_at_crossover(self):
        # the one crossover, r = SINH_SERIES_R: the float below it takes
        # the series and SINH_SERIES_R itself the direct form
        r_lo = math.nextafter(SINH_SERIES_R, 0.0)
        assert coherence_factor(r_lo) == pytest.approx(
            coherence_factor(SINH_SERIES_R), rel=4e-15, abs=0.0)

    def test_coherence_factor_raises_no_runtime_warning(self):
        # r = 0 divides 0 by 0 before its value 0 is put in, sinh overflows
        # past r ~ 355 and r = inf subtracts inf from inf: none of them
        # warns, whatever the caller's numpy error state
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            values = [coherence_factor(r) for r in (0.0, 1.0, 400.0, math.inf)]
            array = coherence_factor(np.array([0.0, 1.0, 400.0]))
        assert values[0] == 0.0 and values[2] == math.inf
        assert math.isnan(values[3])
        assert array.tolist() == [0.0, float(values[1]), math.inf]

    def test_moment_set_continuous_at_crossover(self):
        lo = SINH_SERIES_R * (1 - 1e-9)
        hi = SINH_SERIES_R * (1 + 1e-9)
        m_lo = moment_set(lo, 0.1, 1.0, 10.0)
        m_hi = moment_set(hi, 0.1, 1.0, 10.0)
        for key in m_lo:
            assert m_lo[key] == pytest.approx(m_hi[key], rel=1e-7, abs=1e-10)


class TestSmallPulseAccuracy:
    """The factors of r that the moments share, against mpmath."""

    def test_coherence_factor_is_within_a_few_ulps(self):
        # log-uniform over r, and densely around the crossover, where the
        # direct form's sinh u - u still cancels about sevenfold
        rng = np.random.default_rng(1)
        rs = np.exp(rng.uniform(math.log(1e-150), math.log(350.0), 2000))
        rs = np.concatenate([rs, SINH_SERIES_R + np.linspace(-0.1, 0.2, 301)])
        for r in rs.tolist():
            ref = float(coherence_reference(r))
            assert abs(coherence_factor(r) - ref) <= 4e-15 * ref, r

    def test_gain_filter_ratio_is_within_2_ulps(self):
        assert gain_filter_ratio(0.0) == 2.0
        rng = np.random.default_rng(2)
        rs = np.exp(rng.uniform(math.log(1e-300), math.log(1e4), 2000))
        for r in [*rs.tolist(), 350.0, math.nextafter(350.0, 1e4)]:
            with mpmath.workdps(50):
                u = 2 * mpmath.mpf(r)
                ref = float(2 * u / -mpmath.expm1(-u))
            assert abs(gain_filter_ratio(r) - ref) <= 2 * math.ulp(ref), r

    @pytest.mark.parametrize("r", [1e-6, 0.1, 0.5, 3.0, 40.0])
    def test_amplified_noise_is_twice_the_coherence_factor(self, r):
        # e^{2r} + 1 - gain_filter_ratio(r), the amplified noise of the
        # cavity output variances, is 2 coherence_factor(r) identically
        with mpmath.workdps(60):
            u = 2 * mpmath.mpf(r)
            e = mpmath.exp(u)
            amplified = e + 1 - 2 * u * e / (e - 1)
            twice = 2 * e * (mpmath.sinh(u) - u) / (e - 1)
            assert abs(amplified - twice) <= mpmath.mpf(10) ** -40 * twice

    def test_mirror_field_moments_are_within_a_few_ulps(self):
        # <X_m, P_j> = -sqrt(G_j/G) e^r sqrt(u) (n0 + 1 + x (n + 1) (1 -
        # 2r/u)), u = e^{2r} - 1: at small r the bracket's 1 - 2r/u cancels
        # unless it is summed as a series, worst at a hot bath and strong
        # damping; log-uniform r, gains split log-uniformly in [0.1, 10]
        rng = np.random.default_rng(4)
        size = 3000
        points = zip(
            np.exp(rng.uniform(math.log(1e-12), math.log(12.0), size)),
            rng.uniform(0.0, 3.0, size), rng.uniform(0.0, 20.0, size),
            10.0 ** rng.uniform(-2.0, 6.0, size),
            np.exp(rng.uniform(math.log(0.1), math.log(10.0), size)))
        for r, x, n0, n, ratio in [(1e-8, 3.0, 0.0, 1e6, 1.0),
                                   *(map(float, p) for p in points)]:
            S = output_block(r, x, n0, n, G1_over_G2=ratio)
            with mpmath.workdps(60):
                R, X, N0, N, Q = map(mpmath.mpf, (r, x, n0, n, ratio))
                u = mpmath.expm1(2 * R)
                scale = -mpmath.exp(R) * mpmath.sqrt(u) \
                    * (N0 + 1 + X * (N + 1) * (1 - 2 * R / u))
                refs = [float(mpmath.sqrt((1 + X) * f / (1 + Q)) * scale)
                        for f in (Q, 1)]
            for got, ref in zip((S[0, 3], S[0, 5]), refs):
                assert abs(got - ref) <= 2e-15 * abs(ref), (r, x, n0, n,
                                                            ratio)

    @pytest.mark.parametrize("r", [1.5e-4, 3e-4, 1e-3])
    def test_small_pulse_cross_correlation(self, r):
        # a warm bath at strong damping, where the coherence term is as
        # large as the gain term; equal gains give G1/G = G2/G = 2
        with mpmath.workdps(50):
            ref = 2 * (mpmath.expm1(2 * mpmath.mpf(r))
                       + 2 * 1001 * 3 * coherence_reference(r))
        assert output_block(r, 3.0, 0.0, 1000.0)[2, 4] == pytest.approx(
            float(ref), rel=1e-13, abs=0.0)


class TestMoments:
    def test_undamped_mirror_variance(self):
        ms = moment_set(1.0, 0.0, 0.0, 0.0)
        assert ms["var_Xm_out"] == pytest.approx(E2 - 0.5, rel=1e-14)

    def test_damped_moments_match_oracle(self, oracle_cache):
        # independent check by moment propagation of the reduced dynamics
        ms = moment_set(1.0, 0.1, 0.0, 100.0)
        oc = oracle_cache.covariance(1.0, 0.1, 0.0, 100.0)
        for key, label in (("var_Xm_out", "A_m_out"),
                           ("var_X1_out", "A_1_out"), ("var_XW_out", "W_out")):
            assert ms[key] == pytest.approx(oc.variance(label), rel=1e-6)
        assert ms["cov_Xm_PW"] == pytest.approx(
            oc.covariance(("A_m_out", "X"), ("W_out", "P")), rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.01, 3.0), x=st.floats(0.0, 0.3),
           n0=st.floats(0.0, 50.0), n=st.floats(0.0, 500.0),
           bump=st.floats(0.01, 5.0))
    def test_variances_nondecreasing_in_occupations(self, r, x, n0, n, bump):
        base = moment_set(r, x, n0, n)
        hot_mirror = moment_set(r, x, n0 + bump, n)
        hot_bath = moment_set(r, x, n0, n + bump)
        for field in ("var_Xm_out", "var_X1_out", "var_X2_out", "var_XW_out"):
            assert hot_mirror[field] >= base[field] - 1e-12
            assert hot_bath[field] >= base[field] - 1e-12

    def test_mirror_variance_never_below_vacuum(self):
        for r in (0.0, 0.3, 1.0, 3.0):
            for x in (0.0, 0.1, 0.5):
                assert moment_set(r, x, 0.0, 0.0)["var_Xm_out"] >= 0.5

    @pytest.mark.parametrize("fn", [moment_set, cross_correlation])
    @pytest.mark.parametrize("ratio", [-1.0, math.nan])
    def test_rejects_a_gain_split_that_is_not_positive(self, fn, ratio):
        with pytest.raises(InvalidParams,
                           match=f"G1_over_G2 must be >= 0, got {ratio!r}"):
            fn(1.0, 0.1, 0.0, 0.0, G1_over_G2=ratio)

    def test_moment_set_accepts_a_zero_gain_split(self):
        # G1/G2 = 0 is g1 = 0, the mirror image of G1/G2 = inf (g2 = 0):
        # cavity 1's moments at 0 are cavity 2's at inf
        zero, inf = (moment_set(1.0, 0.1, 0.5, 5.0, G1_over_G2=ratio)
                     for ratio in (0.0, math.inf))
        swap = str.maketrans("12", "21")
        assert zero == {key.translate(swap): value
                        for key, value in inf.items()}
        assert zero["var_X1_out"] == 0.5

    def test_cross_correlation_accepts_a_zero_gain_split(self):
        # with one coupling zero the two cavities share no coherence
        for ratio in (0.0, math.inf):
            assert cross_correlation(1.0, 0.1, 0.5, 5.0,
                                     G1_over_G2=ratio) == 0.0

    @pytest.mark.parametrize("fn", [moment_set, cross_correlation])
    @pytest.mark.parametrize("r, n0", [(354.9, 0.0), (400.0, 0.0),
                                       (1e6, 0.0), (352.0, 2000.0)])
    def test_refuses_moments_past_the_float_range(self, fn, r, n0):
        # e^{2r} itself overflows past r ~ 354.9; at n0 = 2000 the products
        # with it do so a little earlier
        with pytest.raises(InvalidParams, match=f"r = {r!r}"):
            fn(r, 0.1, n0, 0.0)

    def test_moments_below_the_float_range_are_finite(self):
        values = moment_set(350.0, 0.1, 0.0, 0.0).values()
        assert all(math.isfinite(v) for v in values)
        assert math.isfinite(cross_correlation(354.8, 0.1, 0.0, 0.0))

    def test_gain_filter_ratio_is_finite_past_large_r(self):
        # 4 r e^{2r} leaves the float range near r = 351.27, which refused
        # every moment past it; 4 r / (1 - e^{-2r}) is 4 r exactly once
        # e^{-2r} is below half an ulp of 1, and finite through r = 354.8,
        # where the block still is
        rs = np.append(np.linspace(340.0, 354.8, 149), [351.27, 352.0])
        assert all(gain_filter_ratio(r) == 4.0 * r for r in rs.tolist())
        assert (gain_filter_ratio(rs) == 4.0 * rs).all()
        assert np.isfinite(output_block(354.8, 0.1, 0.0, 0.0)).all()


class TestCrossCorrelation:
    def test_zero_at_zero_pulse_area(self):
        assert cross_correlation(0.0, 0.1, 5.0, 100.0) == 0.0

    def test_equal_coupling_undamped_value(self):
        assert cross_correlation(1.0, 0.0, 0.0, 0.0) == pytest.approx(
            0.5 * (E2 - 1.0), rel=1e-14)

    def test_damping_noise_feeds_coherence(self):
        # the bath acts constructively: damped value exceeds undamped
        for r in (0.3, 1.0, 2.0):
            undamped = cross_correlation(r, 0.0, 0.0, 0.0)
            damped = cross_correlation(r, 0.1, 0.0, 0.0)
            assert damped > undamped

    def test_matches_monte_carlo_estimate(self, oracle_cache):
        # deterministic-oracle check here; the stochastic one runs in the
        # acceptance suite with full trajectory counts
        from steerkit.dynamics import mode_cross_correlation
        oc = oracle_cache.covariance(1.0, 0.1, 0.0, 5.0, ratio=2.0)
        value, _ = mode_cross_correlation(oc, "A_1_out", "A_2_out")
        assert abs(value) == pytest.approx(
            cross_correlation(1.0, 0.1, 0.0, 5.0, G1_over_G2=2.0), rel=1e-6)


# the points of ROADMAP item 12, and the top of validate-oracle's r range
# with unequal gains: (r, gamma/G, n0, n, G1/G2)
BLOCK_POINTS = [(1.0, 0.1, 0.0, 0.0, 1.0), (0.5, 0.3, 0.5, 5.0, 1.5),
                (3.0, 0.1, 1.0, 10.0, 0.7), (6.0, 2.0, 0.0, 0.0, 1.0),
                (0.05, 0.1, 0.0, 100.0, 2.0), (9.9, 0.1, 0.0, 0.0, 2.0)]


class TestOutputBlock:
    @pytest.mark.parametrize("r, x, n0, n, ratio", BLOCK_POINTS)
    def test_every_entry_matches_the_oracle(self, oracle_cache, r, x, n0, n,
                                            ratio):
        # relative to sqrt(S_ii S_jj), the scale of entry (i, j), so the
        # structural zeros are compared too
        S = output_block(r, x, n0, n, G1_over_G2=ratio)
        oc = block(oracle_cache.covariance(r, x, n0, n, ratio),
                   ("A_m_out", "A_1_out", "A_2_out"))
        scale = np.sqrt(np.outer(np.diag(S), np.diag(S)))
        assert (np.abs(S - oc.sigma) <= 1e-13 * scale).all()

    def test_layout_and_symmetry(self):
        S = output_block(1.0, 0.1, 0.5, 5.0, G1_over_G2=1.5)
        assert (S == S.T).all()
        assert S[0, 0] == S[1, 1] and S[2, 2] == S[3, 3] and S[4, 4] == S[5, 5]
        assert S[0, 3] == S[1, 2] < 0.0 and S[0, 5] == S[1, 4] < 0.0
        assert S[2, 4] == S[3, 5] == cross_correlation(1.0, 0.1, 0.5, 5.0,
                                                       G1_over_G2=1.5)
        zeros = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 5),
                 (3, 4), (4, 5)]
        assert [S[ij] for ij in zeros] == [0.0] * len(zeros)

    @pytest.mark.parametrize("args", [(-0.1, 0.1, 0.0, 0.0),
                                      (1.0, math.nan, 0.0, 0.0),
                                      (1.0, 0.1, -1.0, 0.0),
                                      (1.0, 0.1, 0.0, -1.0)])
    def test_refuses_knobs_outside_the_domain(self, args):
        with pytest.raises(InvalidParams, match="must be >= 0"):
            output_block(*args)

    @settings(max_examples=300, deadline=None)
    @given(r=st.floats(0.0, 340.0), x=st.floats(0.0, 3.0),
           n0=st.floats(0.0, 20.0), n=st.floats(0.0, 1000.0),
           ratio=st.floats(0.1, 10.0))
    def test_is_physical(self, r, x, n0, n, ratio):
        # S + i Omega / 2 >= 0, the uncertainty principle of the three
        # modes; a pure cavity input sits on the bound, so rounding may put
        # the least eigenvalue a few ulps of max|S| below 0
        S = output_block(r, x, n0, n, G1_over_G2=ratio)
        omega = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
        least = np.linalg.eigvalsh(S + 0.5j * omega)[0]
        assert least >= -1e-12 * np.abs(S).max()


def float_call_error(r, x, n0, n, *, ratio=None, f=None, witness=False):
    """The typed error and message a float call of ``output_block`` (with
    ``ratio``), ``_w_moments`` (none of the keywords),
    ``collective_steering_value`` (``witness``) or ``single_steering_value``
    (with ``f``) raises at a NaN cell of its array call."""
    for name, v in (("pulse area r", r), ("gamma_over_G", x), ("n0", n0),
                    ("n", n)):
        if not v >= 0.0:
            return InvalidParams, f"{name} must be >= 0, got {v!r}"
    if ratio is not None and not ratio >= 0.0:
        return InvalidParams, f"G1_over_G2 must be >= 0, got {ratio!r}"
    if witness:
        return DegenerateVariance, (f"a term leaves the float range at (r, "
                                    f"gamma_over_G, n0, n) = "
                                    f"{(r, x, n0, n)!r}")
    if f is None:
        return InvalidParams, (f"closed-form moments overflow at pulse area "
                               f"r = {r!r}")
    if not 0.0 <= f <= 1.0 + x:
        return InvalidParams, f"Gj_over_G = {f!r} outside [0, 1 + gamma/G]"
    return DegenerateVariance, (f"a term leaves the float range at (r, "
                                f"gamma_over_G, n0, n, Gj_over_G) = "
                                f"{(r, x, n0, n, f)!r}")


def accuracy_draws(size: int = 3000):
    """``(r, gamma/G, n0, n, G1/G2)`` columns: r log-uniform in [1e-8,
    10^2.5], the knobs drawn from the levels of the witness scans."""
    rng = np.random.default_rng(20131219)
    return (np.exp(rng.uniform(math.log(1e-8), 2.5 * math.log(10.0), size)),
            rng.choice([0.0, 0.1, 1.0, 3.0], size),
            rng.choice([0.0, 1.0, 20.0], size),
            rng.choice([0.0, 10.0, 1e3, 1e6], size),
            rng.choice([0.5, 1.0, 2.0], size))


KNOB = st.floats(0.2, 5.0) | st.floats(-1.0, 0.0) | st.just(math.nan)

# values that are neither a real number nor an array of a real dtype
NOT_REAL = ["1.0", np.str_("1.0"), None, 1j, np.array("1.0"), ["1.0"],
            (0.5, "1.0"), [None], np.array([1j]), [0.5, None], [[0.5], 1.0]]
NOT_REAL_IDS = ["str", "np-str", "None", "complex", "0-d-str", "str-list",
                "str-tuple", "None-list", "complex-array", "mixed-list",
                "ragged"]


class TestArrayForms:
    """``output_block``, ``_w_moments`` and both witnesses take arrays, and
    a float call is one cell of the array expression."""

    @settings(max_examples=150, deadline=None)
    @given(rs=st.lists(st.floats(0.0, 360.0)
                       | st.sampled_from([0.0, 0.25, 0.5, 354.8, 355.0,
                                          -0.5, math.nan]),
                       min_size=1, max_size=6),
           knobs=st.lists(st.tuples(KNOB, KNOB, KNOB | st.just(1e300), KNOB,
                                    st.floats(-0.5, 6.0)),
                          min_size=1, max_size=4))
    def test_array_cells_are_float_calls(self, rs, knobs):
        # r as a row, the knobs as columns; every cell's float.hex is its
        # float call's, and a NaN cell is a float call that raises the
        # package's refusal of its arguments, whose type and text the
        # reference derives
        r = np.array(rs)
        x, n0, n, ratio, f = (np.array(col)[:, None] for col in zip(*knobs))
        S = output_block(r, x, n0, n, G1_over_G2=ratio)
        W = np.stack(closedform._w_moments(r, x, n0, n), axis=-1)
        C = collective_steering_value(r, x, n0, n)
        E = single_steering_value(r, x, n0, n, f)
        assert S.shape == (len(knobs), len(rs), 6, 6)
        assert W.shape[:-1] == C.shape == E.shape == (len(knobs), len(rs))
        hexes = np.vectorize(float.hex, otypes=[object])
        for (i, j), cell in np.ndenumerate(E):
            rj = rs[j]
            xi, n0i, ni, qi, fi = knobs[i]
            args = rj, xi, n0i, ni
            for got, call, refusal, kwargs in (
                    (S[i, j], lambda: output_block(*args, G1_over_G2=qi),
                     lambda: closedform._refusal(args + (qi,),
                                                 closedform._MOMENTS),
                     {"ratio": qi}),
                    (W[i, j], lambda: closedform._w_moments(*args),
                     lambda: closedform._refusal(args, closedform._MOMENTS),
                     {}),
                    (np.array(C[i, j]),
                     lambda: collective_steering_value(*args),
                     lambda: closedform._refusal(args, closedform._WITNESS),
                     {"witness": True}),
                    (np.array(cell), lambda: single_steering_value(*args, fi),
                     lambda: closedform._refusal(args + (fi,),
                                                 closedform._SINGLE),
                     {"f": fi})):
                if np.isnan(got).any():
                    assert np.isnan(got).all()
                    error, message = float_call_error(*args, **kwargs)
                    assert type(refusal()) is error
                    assert str(refusal()) == message
                    with pytest.raises(error) as info:
                        call()
                    assert str(info.value) == message
                else:
                    expect = np.array(call(), dtype=float)
                    assert (hexes(expect) == hexes(got)).all()

    @pytest.mark.parametrize("seq", [list, tuple])
    def test_lists_and_tuples_are_array_calls(self, seq):
        # a list or a tuple makes the ndarray call, NaN cells included
        rs, xs = [-1.0, 0.0, 0.3, 1.0, 400.0], [0.05, 0.1, -0.2, 1.0]
        def threshold(x):
            res = noise_threshold(x, 0.0)
            return np.stack((res.value, *res.bracket))

        hexes = np.vectorize(float.hex, otypes=[object])
        for call, values in (
                (lambda r: output_block(r, 0.1, 0.5, 5.0), rs),
                (lambda r: collective_steering_value(r, 0.1, 0.5, 5.0), rs),
                (lambda r: single_steering_value(r, 0.1, 0.5, 5.0, 0.4), rs),
                (lambda r: closedform.max_occupation(r, 0.1, 0.0), rs),
                (lambda x: closedform.max_occupation(1.0, x, 0.0), xs),
                (threshold, xs)):
            expect = call(np.array(values))
            assert np.isnan(expect).any()
            assert (hexes(call(seq(values))) == hexes(expect)).all()

    @pytest.mark.parametrize("seq", [list, tuple])
    def test_the_factors_of_r_take_lists_and_tuples(self, seq):
        # gain_filter_ratio and coherence_factor make the ndarray call of a
        # list or a tuple, bit for bit
        rs = [0.0, 1e-8, 0.3, 0.5, 1.0, 400.0]
        hexes = np.vectorize(float.hex, otypes=[object])
        for factor in (closedform.gain_filter_ratio,
                       closedform.coherence_factor):
            with np.errstate(all="ignore"):  # r = 0 divides 0 by 0
                expect, got = factor(np.array(rs)), factor(seq(rs))
            assert (hexes(got) == hexes(expect)).all()

    @pytest.mark.parametrize("value", NOT_REAL, ids=NOT_REAL_IDS)
    def test_takes_real_numbers_and_arrays_only(self, value):
        # a numeric string was parsed as its number, and None, a complex,
        # a list of them or a ragged list ended in an untyped TypeError or
        # ValueError
        knobs = {"gamma_over_G": 0.1, "n0": 0.5, "n": 5.0}
        for call, args in (
                (output_block, {**knobs, "G1_over_G2": 1.5}),
                (lambda r, gamma_over_G, n0, n: closedform._w_moments(
                    r, gamma_over_G, n0, n), knobs),
                (collective_steering_value, knobs),
                (single_steering_value, {**knobs, "Gj_over_G": 0.4}),
                (closedform.max_occupation, {"gamma_over_G": 0.1, "n0": 0.0}),
                (gain_filter_ratio, {}), (coherence_factor, {})):
            for name in ("r", *args):
                with pytest.raises(InvalidParams) as exc:
                    call(**{"r": 1.0, **args, name: value})
                assert str(exc.value) == (f"{name} must be a float or an "
                                          f"array of floats, got {value!r}")

    def test_views_and_float_knobs(self):
        # a broadcast view of r is evaluated once per distinct r, and float
        # knobs with an array r fill r's shape
        r = np.array([0.0, 0.3, 0.7, 2.0])
        grid = np.broadcast_to(r, (3, 4))
        x = np.array([[0.0], [0.1], [3.0]])
        S = output_block(grid, x, 0.5, 5.0, G1_over_G2=1.5)
        assert S.shape == (3, 4, 6, 6) and S.flags.writeable
        assert (S == output_block(r, x, 0.5, 5.0, G1_over_G2=1.5)).all()
        assert (S[1] == output_block(r, 0.1, 0.5, 5.0, G1_over_G2=1.5)).all()
        for got, row in zip(closedform._w_moments(grid, 0.1, 0.5, 5.0),
                            closedform._w_moments(r, 0.1, 0.5, 5.0)):
            assert got.shape == (3, 4) and (got == row).all()
        assert (single_steering_value(grid, 0.1, 0.5, 5.0, 0.4)
                == single_steering_value(r, 0.1, 0.5, 5.0, 0.4)).all()

    def test_as_accurate_as_the_float_form(self):
        # 3000 draws against 60-digit mpmath (tests/_reference.py); each
        # bound is the former float-only form's worst on these draws,
        # rounded up at its second digit
        bounds = {"S00": 2.5e-16, "S22": 8.8e-16, "S03": 6.6e-16,
                  "S24": 8.8e-16, "var_XW_out": 7.7e-15, "cov_Xm_PW": 2.1e-15}
        r, x, n0, n, ratio = accuracy_draws()
        S = output_block(r, x, n0, n, G1_over_G2=ratio)
        got = {"S00": S[:, 0, 0], "S22": S[:, 2, 2], "S03": S[:, 0, 3],
               "S24": S[:, 2, 4]}
        got["var_XW_out"], got["cov_Xm_PW"] = closedform._w_moments(
            r, x, n0, n)
        worst = dict.fromkeys(bounds, 0.0)
        for i, point in enumerate(zip(*(a.tolist() for a in
                                        (r, x, n0, n, ratio)))):
            for key, ref in block_reference(*point).items():
                if ref != 0.0:
                    worst[key] = max(worst[key],
                                     abs(got[key][i] - ref) / abs(ref))
        assert all(worst[key] <= bounds[key] for key in bounds), worst


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
                ms = moment_set(r, x, 1.5, 20.0)
                naive = ms["var_Xm_out"] \
                    - ms["cov_Xm_PW"] ** 2 / ms["var_XW_out"]
                assert collective_steering_value(r, x, 1.5, 20.0) \
                    == pytest.approx(naive, rel=1e-9)

    def test_matches_oracle_with_damping(self, oracle_cache):
        from steerkit.steering import steering_product
        oc = oracle_cache.covariance(1.0, 0.1, 0.0, 100.0)
        assert collective_steering_value(1.0, 0.1, 0.0, 100.0) \
            == pytest.approx(steering_product(oc, "A_m_out", "W_out"),
                             rel=1e-6)

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
        # gamma/G = -1 puts 1 + gamma/G = 0 in a float division: a NaN cell
        # of an array call, and the domain's error from a float call
        assert np.isnan(collective_steering_value(np.array([1.0, 2.0]), -1.0,
                                                  0.0, 0.0)).all()
        with pytest.raises(InvalidParams, match="gamma_over_G must be >= 0"):
            collective_steering_value(1.0, -1.0, 0.0, 0.0)


# the knobs of the scans against the mpmath witnesses
SCAN_KNOBS = [(x, n0, n) for x in (0.0, 0.1, 1.0, 3.0)
              for n0 in (0.0, 1.0, 20.0) for n in (0.0, 10.0, 1e3, 1e6)]


def _scan_rs(lo: float, hi: float, seed: int, edges=()) -> np.ndarray:
    """Eight pulse areas log-uniform in [lo, hi], the ends, and each edge
    with the floats on either side of it."""
    rng = np.random.default_rng(seed)
    rs = [lo, hi, *np.exp(rng.uniform(math.log(lo), math.log(hi), 8))]
    for e in edges:
        rs += [math.nextafter(e, 0.0), e, math.nextafter(e, math.inf)]
    return np.unique(rs)


# pulse-area ranges with the edges where the witnesses once changed form (a
# scaled band above r = 100, a plateau above 350) or change series today
# (r = 0.25 and 0.5, see SINH_SERIES_R); past r ~ 372 e^{-2r} underflows
WITNESS_RANGES = [
    ("zero", np.array([0.0])),
    ("small", _scan_rs(1e-8, 1e-4, 1)),
    ("middle", _scan_rs(1e-4, 100.0, 2, edges=(0.25, 0.5, 100.0))),
    ("large", _scan_rs(100.0, 400.0, 3, edges=(100.0, 350.0, 372.0))),
]


class TestArrayWitness:
    """The array witness against mpmath and against its own float call,
    cell by cell."""

    @pytest.mark.parametrize("branch, rs", WITNESS_RANGES)
    def test_matches_the_mpmath_witness(self, branch, rs):
        # within 1e-14 relative; at gamma = 0 E falls like e^{-2r} and
        # leaves the float range past r = 350
        for x, n0, n in SCAN_KNOBS:
            r = rs[rs <= 350.0] if x == 0.0 else rs
            got = collective_steering_value(r, x, n0, n)
            ref = np.array([n0 + 0.5 if v == 0.0 else
                            collective_witness_reference(v, x, n0, n)
                            for v in r.tolist()])
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0,
                                       err_msg=f"{branch} {(x, n0, n)}")

    @pytest.mark.parametrize("r, x, n0", [
        (3e-3, 3.0, 0.0), (3e-3, 1.0, 0.0), (1e-3, 3.0, 0.0), (1e-4, 3.0, 0.0),
        (6.509695400000001e-08, 3.0, 1.0)], ids=[
        "0.003-3.0", "0.003-1.0", "0.001-3.0", "0.0001-3.0",
        "6.5097e-08-3.0-1.0"])
    def test_hot_bath_small_pulse_corner(self, r, x, n0):
        # where the former expanded numerator lost up to 11 digits (2.3e-11
        # relative at r = 3e-3, gamma/G = 3, n = 10^6), and the largest
        # error found in the present form (5.33e-15, at n0 = 1)
        assert collective_steering_value(r, x, n0, 1e6) == pytest.approx(
            collective_witness_reference(r, x, n0, 1e6), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("x, n0, n", [(0.3, 0.0, 2.0), (3.0, 20.0, 1e6),
                                          (1e-3, 1.0, 10.0), (0.0, 5.0, 3.0)])
    def test_plateau_at_the_largest_pulse_areas(self, x, n0, n):
        # past r ~ 372 e^{-2r} is 0 and E is the plateau x^2 b / (1 + x)^2
        # to rounding (undamped, 0 but for e^{-744} = 5e-324 at r = 372);
        # r = inf is evaluated at r = 1e3
        plateau = x * x * (0.5 + x * (n + 1.0)) / ((1.0 + x) * (1.0 + x))
        rs = np.array([372.0, 1e4, math.inf])
        for got in (collective_steering_value(rs, x, n0, n),
                    [collective_steering_value(r, x, n0, n)
                     for r in rs.tolist()]):
            np.testing.assert_allclose(got, plateau, rtol=4e-16, atol=5e-324)

    @settings(max_examples=150, deadline=None)
    @given(rs=st.lists(st.sampled_from([0.0])
                       | st.floats(1e-12, 1e-4, exclude_max=True)
                       | st.floats(1e-4, 100.0)
                       | st.floats(100.0, 350.0, exclude_min=True)
                       | st.floats(350.0, 1e3, exclude_min=True),
                       min_size=1, max_size=8),
           knobs=st.lists(st.tuples(*[st.floats(-0.5, 60.0)
                                      | st.just(math.nan)] * 3),
                          min_size=1, max_size=6))
    def test_axes_evaluation_is_the_meshgrid_evaluation(self, rs, knobs):
        # r as a row and (gamma/G, n0, n) as columns give every cell the
        # bits of the call at full shape, in both orientations, and so do
        # broadcast views of full shape; a view of r with float knobs
        # fills its shape; a scalar r gives its column, and a float call
        # its cell or its error
        r = np.array(rs)
        x, n0, n = (np.array(col)[:, None] for col in zip(*knobs))
        got = collective_steering_value(r, x, n0, n)
        r2, x2 = np.meshgrid(r, x)
        full = collective_steering_value(
            r2, x2, *(np.broadcast_to(v, r2.shape).copy() for v in (n0, n)))

        def same(a, b):
            nan = np.isnan(a)
            assert a.shape == b.shape
            assert (nan == np.isnan(b)).all()
            assert (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all()

        same(got, full)
        same(collective_steering_value(r[:, None], x.T, n0.T, n.T), full.T)
        same(collective_steering_value(
            *(np.broadcast_to(v, full.shape) for v in (r, x, n0, n))), full)
        rows = collective_steering_value(np.broadcast_to(r, full.shape),
                                         0.1, 0.5, 2.0)
        assert rows.flags.writeable
        same(rows, np.broadcast_to(
            collective_steering_value(r, 0.1, 0.5, 2.0), full.shape))
        for j, rj in enumerate(rs):
            same(collective_steering_value(rj, x, n0, n), full[:, j:j + 1])
            for i, cell in enumerate(knobs):
                if np.isnan(full[i, j]):
                    with pytest.raises((InvalidParams, DegenerateVariance)):
                        collective_steering_value(rj, *cell)
                else:
                    same(np.array(collective_steering_value(rj, *cell)),
                         full[i, j])

    def test_array_occupations_broadcast_against_r(self):
        r = np.full(3, 0.7)
        n = np.array([0.0, 5.0, 50.0])
        got = collective_steering_value(r, 0.1, 1.0, n)
        ref = [collective_witness_reference(0.7, 0.1, 1.0, float(v))
               for v in n]
        assert got == pytest.approx(ref, rel=1e-14)

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

    def test_float_and_array_calls_round_alike(self):
        # one arithmetic path: a float call is one cell of the array
        # expression, and a scalar gamma/G rounds as an array of them does
        rng = np.random.default_rng(20131219)
        groups, size = 100, 100
        r = np.exp(rng.uniform(math.log(1e-8), math.log(500.0),
                               (groups, size)))
        x = rng.uniform(0.0, 2.0, groups)
        n0 = rng.uniform(0.0, 3.0, (groups, size))
        n = rng.uniform(0.0, 50.0, (groups, size))
        grid = collective_steering_value(
            r, np.broadcast_to(x[:, None], r.shape).copy(), n0, n)
        for g in range(groups):
            row = collective_steering_value(r[g], float(x[g]), n0[g], n[g])
            floats = [collective_steering_value(a, float(x[g]), b, c)
                      for a, b, c in zip(r[g].tolist(), n0[g].tolist(),
                                         n[g].tolist())]
            assert row.tolist() == floats == grid[g].tolist()

    def test_float_cell_past_the_float_range_is_a_typed_error(self):
        # (1 + x)^2 is not a float at x = 1e200: the cell is NaN, and the
        # float call says why
        r = np.array([0.0, 1.0, 400.0])
        for x in (1e200, np.full(3, 1e200)):
            got = collective_steering_value(r, x, 0.0, 0.0)
            assert got[0] == 0.5 and np.isnan(got[1:]).all()
        for cell in ((1.0, 1e200, 0.0, 0.0), (400.0, 1e200, 0.0, 0.0),
                     (1.0, 0.1, 0.0, 1e307)):
            with pytest.raises(DegenerateVariance,
                               match="leaves the float range"):
                collective_steering_value(*cell)


class TestWitnessesBelowLargeR:
    """Both witnesses stay finite up to r = 350, where the moments' ``e^{2r}
    - 1`` times the occupation terms nears the end of the float range, and
    join their value just above it."""

    RS = np.append(np.linspace(300.0, 350.0, 51), 349.99)

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.5])
    @pytest.mark.parametrize("n0", [0.0, 5.0])
    @pytest.mark.parametrize("n", [0.0, 100.0])
    def test_finite_and_joining_the_asymptote(self, x, n0, n):
        above = math.nextafter(350.0, math.inf)
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
        got = single_steering_value(1.0, 0.0, 0.0, 0.0, 2.0 / 3.0)
        assert got == pytest.approx(
            steering_product(oc, "A_m_out", "A_1_out"), rel=1e-6)

    def test_swap_symmetry_is_exact(self):
        f1, f2 = _gain_fractions(0.07, 2.0)
        f1_swapped, f2_swapped = _gain_fractions(0.07, 0.5)
        assert single_steering_value(1.3, 0.07, 1.0, 3.0, f1) \
            == single_steering_value(1.3, 0.07, 1.0, 3.0, f2_swapped)
        assert single_steering_value(1.3, 0.07, 1.0, 3.0, f2) \
            == single_steering_value(1.3, 0.07, 1.0, 3.0, f1_swapped)

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

    @pytest.mark.parametrize("branch, rs", WITNESS_RANGES[1:])
    def test_matches_the_mpmath_witness(self, branch, rs):
        # within 1e-14 relative, at gain splits G1/G2 of 1/2, 1 and 2
        for x, n0, n in SCAN_KNOBS:
            for ratio in (0.5, 1.0, 2.0):
                f, _ = _gain_fractions(x, ratio)
                for r in rs.tolist():
                    assert single_steering_value(r, x, n0, n, f) \
                        == pytest.approx(single_witness_reference(
                            r, x, n0, n, f), rel=1e-14, abs=0.0), \
                        (branch, r, x, n0, n, ratio)

    @pytest.mark.parametrize("r", [1e-8, 1e-6, 1e-4])
    def test_hot_bath_small_pulse_corner(self, r):
        # where the former expanded numerator lost up to 9 digits (3.2e-9
        # relative at r = 1e-8, gamma/G = 3, equal gains)
        f, _ = _gain_fractions(3.0, 1.0)
        assert single_steering_value(r, 3.0, 0.0, 1e6, f) == pytest.approx(
            single_witness_reference(r, 3.0, 0.0, 1e6, f), rel=1e-14,
            abs=0.0)

    def test_unmeasured_gain_gives_the_mirror_variance(self):
        # Gj_over_G = 0 is var_Xm_out where that is a float, and a typed
        # error where it is not (var_Xj_out / e^{2r} underflows to 0)
        for r in (1e-8, 1.0, 300.0):
            assert single_steering_value(r, 0.1, 1.0, 5.0, 0.0) \
                == pytest.approx(float(output_block(r, 0.1, 1.0, 5.0)[0, 0]),
                                 rel=1e-15)
        for r in (355.0, 400.0, math.inf):
            with pytest.raises(DegenerateVariance,
                               match="leaves the float range"):
                single_steering_value(r, 0.1, 1.0, 5.0, 0.0)

    def test_mode_index_dispatch(self):
        f1, _ = _gain_fractions(0.0, 3.0)
        assert single_steering_value(1.0, 0.0, 0.0, 0.0, f1) \
            == single_steering_value(1.0, 0.0, 0.0, 0.0, 0.75)


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
        with pytest.raises(InvalidParams, match=r"n0 must be >= 0, got -1\.0"):
            threshold_r(-1.0)

    @pytest.mark.parametrize("n0", [[0.1], (0.1,), np.array([0.1]),
                                    np.array(0.1), "0.1", None, 1 + 2j],
                             ids=["list", "tuple", "array", "0-d", "str",
                                  "None", "complex"])
    def test_takes_a_float_only(self, n0):
        # an array call or a non-number is a typed refusal, not a TypeError
        # of the arithmetic
        with pytest.raises(InvalidParams, match="n0 must be a float"):
            threshold_r(n0)

    @pytest.mark.parametrize("n0", [0.0, 5e-324, 0.3, 5.0, 1e300])
    def test_real_numbers_keep_the_float_bits(self, n0):
        want = (0.5 * math.log1p(n0 / (n0 + 1.0))).hex()
        assert threshold_r(n0).hex() == want
        assert float(threshold_r(np.float64(n0))).hex() == want
        if n0 == int(n0):
            assert threshold_r(int(n0)).hex() == want



def n_inf(x: float) -> float:
    """The plateau's bath bound: x^2 (1/2 + x (n + 1)) / (1 + x)^2 = 1/2."""
    return (1.0 + 2.0 * x) / (2.0 * x ** 3) - 1.0


class TestMaxOccupation:
    # At r >= 1 the float witness is good to a few ulps at the occupations
    # the bound reaches; below, those occupations grow like 1/r^2 and the
    # witness's own rounding takes over (the bound itself stays within
    # 2 ulps of E = 1/2 in 80-digit arithmetic).
    RS = (1.0, 2.0, 3.0, 10.0, 50.0, 150.0, 349.0, 400.0)
    ULPS = 8 * np.spacing(0.5)

    @pytest.mark.parametrize("x", [0.02, 0.1, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("n0", [0.0, 0.01, 1.0])
    def test_witness_is_half_at_the_bound(self, x, n0):
        for r in self.RS:
            n = closedform.max_occupation(r, x, n0)
            if n >= 0.0:
                assert abs(collective_steering_value(r, x, n0, n) - 0.5) \
                    <= self.ULPS

    @pytest.mark.parametrize("x", [0.02, 0.1, 0.7])
    def test_array_bound_matches_the_float_bound(self, x):
        rs = np.array(self.RS)
        n = closedform.max_occupation(rs, x, 0.0)
        assert n.shape == rs.shape
        for r, n_r in zip(self.RS, n.tolist()):
            assert n_r == pytest.approx(closedform.max_occupation(r, x, 0.0),
                                        rel=1e-13)
        assert np.all(np.abs(collective_steering_value(rs, x, 0.0, n) - 0.5)
                      <= self.ULPS)

    def test_float_pulse_area_with_array_knobs(self):
        # an ndarray damping ratio or mirror occupation takes the array
        # path, as in collective_steering_value; each cell is its float call
        xs, n0s = np.array([0.1, 0.2]), np.array([0.0, 0.5])
        n = closedform.max_occupation(1.0, xs, 0.0)
        assert n.tolist() == closedform.max_occupation(
            np.array([1.0, 1.0]), xs, 0.0).tolist()
        assert n.tolist() == pytest.approx([2173.43, 316.15], abs=5e-3)
        assert n.tolist() == [closedform.max_occupation(1.0, x, 0.0)
                              for x in xs.tolist()]
        assert closedform.max_occupation(1.0, 0.1, n0s).tolist() \
            == [closedform.max_occupation(1.0, 0.1, n0) for n0 in n0s.tolist()]

    def test_steering_holds_below_the_bound_only(self):
        for r, x, n0 in [(0.5, 0.1, 0.0), (2.0, 0.3, 0.5), (8.0, 0.05, 0.2)]:
            n = closedform.max_occupation(r, x, n0)
            assert collective_steering_value(r, x, n0, n * (1 - 1e-9)) < 0.5
            assert collective_steering_value(r, x, n0, n * (1 + 1e-9)) > 0.5

    def test_falls_toward_the_plateau_bound(self):
        # strictly falling until it meets n_inf to rounding, past r ~ 18
        rs = np.linspace(0.5, 12.0, 60)
        n = closedform.max_occupation(rs, 0.1, 0.0)
        assert np.all(np.diff(n) < 0.0)
        assert n_inf(0.1) == pytest.approx(599.0, rel=1e-14)
        assert closedform.max_occupation(10.0, 0.1, 0.0) - 599.0 \
            == pytest.approx(4.947e-4, rel=1e-3)
        for r in (40.0, 350.0, 500.0):
            assert closedform.max_occupation(r, 0.1, 0.0) \
                == pytest.approx(599.0, rel=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           r1=st.floats(0.0, 60.0, exclude_min=True),
           r2=st.floats(0.0, 60.0, exclude_min=True))
    def test_ground_state_bound_never_rises_in_r(self, x, r1, r2):
        # noise_threshold reads the bound over (0, r_max] at r_max alone.
        # On the plateau near gamma/G = 1, (b - 1/2)/x carries b's rounding
        # into n: up to 10 ulps over 20000 random damping ratios, each at
        # 600 pulse areas; 16 are allowed.
        r1, r2 = sorted((r1, r2))
        n1 = closedform.max_occupation(r1, x, 0.0)
        n2 = closedform.max_occupation(r2, x, 0.0)
        assert n2 <= n1 or n2 - n1 <= 16 * np.spacing(n1)

    def test_plateau_bound_vanishes_at_criterion_14s_root(self):
        roots = np.roots([2.0, 0.0, -2.0, -1.0])
        x_star = float(max(roots[np.abs(roots.imag) < 1e-12].real))
        assert x_star == pytest.approx(1.1915, abs=1e-4)
        assert n_inf(x_star) == pytest.approx(0.0, abs=1e-14)
        assert closedform.max_occupation(400.0, x_star, 0.0) \
            == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("n0", [0.5, 5.0])
    def test_warm_mirror_bound_is_negative_near_r_zero(self, n0):
        # E starts at n0 + 1/2 > 1/2: no occupation steers at small r, and
        # the all-pulse-area threshold does not exist
        assert closedform.max_occupation(1e-3, 0.1, n0) < 0.0
        with pytest.raises(NoThreshold):
            noise_threshold(0.1, n0)

    def test_weak_damping_bound_passes_the_search_cap(self):
        n = closedform.max_occupation(np.logspace(-3, 1, 50), 1e-4, 0.0)
        assert n.min() > N_CAP
        with pytest.raises(NoThreshold):
            noise_threshold(1e-4, 0.0)

    @pytest.mark.parametrize("r_max", [1e308, 1.7976931348623157e308])
    def test_bound_at_the_largest_pulse_areas(self, r_max):
        # r e^{-r} underflows to 0 there instead of meeting an inf
        assert closedform.max_occupation(r_max, 0.1, 0.0) \
            == pytest.approx(599.0, rel=1e-14)
        assert noise_threshold(0.1, 0.0, r_max) == noise_threshold(0.1, 0.0)

    def test_damping_past_the_float_range_is_nan(self):
        assert math.isnan(closedform.max_occupation(1.0, 1e200, 0.0))

    @pytest.mark.parametrize("r, x, n0", [(0.0, 0.1, 0.0), (-1.0, 0.1, 0.0),
                                          (1.0, 0.0, 0.0), (1.0, 0.1, -1.0),
                                          (math.nan, 0.1, 0.0)])
    def test_out_of_domain(self, r, x, n0):
        with pytest.raises(InvalidParams):
            closedform.max_occupation(r, x, n0)
        cell = closedform.max_occupation(np.array([r, 1.0]), x, n0)
        assert math.isnan(cell[0])


def test_closed_form_imports_nothing_from_the_model():
    # the closed form takes the dimensionless knobs, not model objects
    tree = ast.parse(Path(closedform.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [
                f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        assert not any("model" in m.split(".") for m in modules), modules
