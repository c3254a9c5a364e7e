"""Witness extraction from covariances, optimization, monogamy, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import _reference
from _reference import (
    inferred_variance,
    monogamy_check,
    one_round_contour,
    optimal_gain,
    oracle_point,
    reduced_or_error,
    sup_threshold,
    threshold_search,
)
from conftest import deadline
from steerkit import (
    collective_steering_value,
    noise_threshold,
    r_crossing,
    single_steering_value,
    steering_product,
    steering_region,
    threshold_r,
)
from steerkit.dynamics import (
    A_1_OUT,
    A_2_OUT,
    A_M_OUT,
    W_OUT,
    OutputCovariance,
    output_covariances,
)
from steerkit.errors import DegenerateVariance, InvalidParams, NoThreshold
from steerkit import closedform, steering
from steerkit.closedform import SINH_SERIES_R, max_occupation
from steerkit.steering import (
    BISECTION_ROUNDS,
    N_CAP,
    PASS_ROUNDS,
    R_MAX,
    ThresholdResult,
)

E2 = math.e ** 2


def two_mode_squeezed(s: float) -> OutputCovariance:
    c = 0.5 * math.cosh(2.0 * s)
    q = 0.5 * math.sinh(2.0 * s)
    sigma = np.array([
        [c, 0.0, q, 0.0],
        [0.0, c, 0.0, -q],
        [q, 0.0, c, 0.0],
        [0.0, -q, 0.0, c],
    ])
    return OutputCovariance(("alice", "bob"), sigma)


# arguments that are not real numbers, which the float-only arguments of
# noise_threshold and r_crossing refuse, as threshold_r does
_NOT_FLOATS = [[0.1], (0.1,), np.array([0.1]), np.array(0.1), "0.1", None,
               1 + 2j]
_NOT_FLOAT_IDS = ["list", "tuple", "array", "0-d", "str", "None", "complex"]
# neither a real number nor an array, list or tuple of a real dtype
_NOT_REAL = ["0.1", None, 1j, ["0.1"], ("0", "1"), np.array(["0.1"]),
             [None], [0.1, 1j], [[0.1], 0.2]]
_NOT_REAL_IDS = ["str", "None", "complex", "str-list", "str-tuple",
                 "str-array", "None-list", "complex-list", "ragged"]


class TestInferredVariance:
    def test_uncorrelated_modes_gain_is_zero(self):
        oc = OutputCovariance(("alice", "bob"), np.diag([2.0, 2.0, 3.0, 3.0]))
        var = inferred_variance(oc, ("alice", "X"), ("bob", "X"))
        gain = optimal_gain(oc, ("alice", "X"), ("bob", "X"))
        assert var == 2.0 and gain == 0.0

    def test_epr_limit_of_two_mode_squeezing(self):
        for s in (0.5, 1.0, 2.0):
            oc = two_mode_squeezed(s)
            var = inferred_variance(oc, ("alice", "X"), ("bob", "X"))
            gain = optimal_gain(oc, ("alice", "X"), ("bob", "X"))
            assert var == pytest.approx(0.5 / math.cosh(2.0 * s), rel=1e-12)
            assert gain == pytest.approx(-math.tanh(2.0 * s), rel=1e-12)
        assert inferred_variance(two_mode_squeezed(8.0),
                                 ("alice", "X"), ("bob", "X")) < 1e-6

    def test_collective_inference_value(self, oracle_cache):
        oc = oracle_cache.covariance(1.0, 0.0, 0.0, 0.0)
        var = inferred_variance(oc, (A_M_OUT, "X"), (W_OUT, "P"))
        assert var == pytest.approx(1.0 / (2.0 * (2.0 * E2 - 1.0)), rel=1e-9)

    def test_gain_is_optimal_against_grid_search(self, oracle_cache):
        oc = oracle_cache.covariance(1.0, 0.1, 0.5, 5.0)
        var = inferred_variance(oc, (A_M_OUT, "X"), (W_OUT, "P"))
        gain = optimal_gain(oc, (A_M_OUT, "X"), (W_OUT, "P"))
        vs = np.zeros(oc.sigma.shape[0])
        vs[oc.index(A_M_OUT, "X")] = 1.0
        vp = np.zeros_like(vs)
        vp[oc.index(W_OUT, "P")] = 1.0
        for u in gain + np.linspace(-0.1, 0.1, 41):
            trial = (vs + u * vp) @ oc.sigma @ (vs + u * vp)
            assert trial >= var - 1e-10


def rotated_witness(oc: OutputCovariance, steered: str, party: str,
                    theta_s, theta_p):
    """E with the steered frame rotated by ``theta_s`` and the party frame
    by ``theta_p`` (broadcasting arrays): the steered quadrature at
    ``theta_s`` is inferred from the party's at ``theta_p + pi/2``, its
    conjugate at ``theta_s + pi/2`` from the party's at ``theta_p``."""
    idx = [oc.index(steered, "X"), oc.index(steered, "P"),
           oc.index(party, "X"), oc.index(party, "P")]
    sig = oc.sigma[np.ix_(idx, idx)]

    def inferred(ts, tp):
        vs = np.stack([np.cos(ts), np.sin(ts)], axis=-1)
        vp = np.stack([np.cos(tp), np.sin(tp)], axis=-1)
        var_s = np.einsum("...i,ij,...j", vs, sig[:2, :2], vs)
        var_p = np.einsum("...i,ij,...j", vp, sig[2:, 2:], vp)
        cov = np.einsum("...i,ij,...j", vs, sig[:2, 2:], vp)
        return np.maximum(var_s - cov * cov / var_p, 0.0)

    half = 0.5 * math.pi
    return np.sqrt(inferred(theta_s, theta_p + half)
                   * inferred(theta_s + half, theta_p))


class TestSteeringProduct:
    def test_vacuum_pair_is_not_steerable(self):
        oc = OutputCovariance(("alice", "bob"), 0.5 * np.eye(4))
        E = steering_product(oc, "alice", "bob")
        assert E == pytest.approx(0.5, rel=1e-12)
        assert not E < 0.5

    def test_zero_variance_party_rejected(self):
        # a party quadrature of either pairing; a steered one is no error
        for zero in (2, 3):
            sigma = np.eye(4)
            sigma[zero, zero] = 0.0
            oc = OutputCovariance(("alice", "bob"), sigma)
            with pytest.raises(DegenerateVariance, match="'bob'"):
                steering_product(oc, "alice", "bob")
            assert steering_product(oc, "bob", "alice") == 0.0

    def test_matches_closed_form_with_damping(self, oracle_cache):
        oc = oracle_cache.covariance(1.0, 0.1, 0.0, 0.0)
        E = steering_product(oc, A_M_OUT, W_OUT)
        assert E == pytest.approx(
            collective_steering_value(1.0, 0.1, 0.0, 0.0), rel=1e-6)
        assert E < 0.5

    def test_balanced_couplings_never_steer_via_one_mode(self, oracle_cache):
        for r in (0.25, 1.0, 2.0):
            oc = oracle_cache.covariance(r, 0.1, 0.0, 0.0)
            assert steering_product(oc, A_M_OUT, A_1_OUT) >= 0.5 - 1e-9

    def test_angle_optimization_cannot_beat_fixed_quadratures(self,
                                                              oracle_cache):
        # the X-against-P pairing is already optimal for every covariance
        # this model generates, including skewed gain splits with rotation
        # (a 64 x 64 scan of both frames, then Nelder-Mead from its best
        # cell; the scan starts at the fixed pairing's angles (0, 0))
        grid = np.linspace(0.0, math.pi, 64, endpoint=False)
        ts, tp = np.meshgrid(grid, grid, indexing="ij")
        for (r, x, n0, n, ratio) in ((1.0, 0.1, 0.5, 5.0, 2.0),
                                     (0.5, 0.0, 0.0, 0.0, 1.0),
                                     (2.0, 0.05, 5.0, 100.0, 2.0)):
            oc = oracle_cache.covariance(r, x, n0, n, ratio=ratio)
            for party in (W_OUT, A_1_OUT):
                fixed = steering_product(oc, A_M_OUT, party)
                scan = rotated_witness(oc, A_M_OUT, party, ts, tp)
                assert scan[0, 0] == pytest.approx(fixed, rel=1e-12)
                best = np.unravel_index(np.argmin(scan), scan.shape)
                opt = minimize(
                    lambda a: float(rotated_witness(oc, A_M_OUT, party,
                                                    a[0], a[1])),
                    [grid[best[0]], grid[best[1]]], method="Nelder-Mead",
                    options={"xatol": 1e-10, "fatol": 1e-14})
                assert opt.fun == pytest.approx(fixed, abs=1e-8)

    # E recorded with float.hex: reading the witness from covariance
    # entries must keep every bit, from both engines, at the float floor
    # (r = 15) and with the roles reversed
    @pytest.mark.parametrize("point, steered, party, bits", [
        ((1.0, 0.1, 0.0, 0.0, 1.0, "reduced"), A_M_OUT, W_OUT,
         "0x1.b633f4bee3401p-6"),
        ((1.0, 0.1, 0.0, 0.0, 1.0, "reduced"), W_OUT, A_M_OUT,
         "0x1.03ec3a06b0d01p-5"),
        ((1.3, 0.1, 0.5, 5.0, 1.5, "reduced"), A_M_OUT, A_1_OUT,
         "0x1.7c8f532070590p-1"),
        ((2.0, 0.05, 5.0, 100.0, 1.5, "reduced"), A_M_OUT, W_OUT,
         "0x1.58b1b3345e001p-5"),
        ((1.0, 0.1, 0.5, 5.0, 1.5, "full"), A_M_OUT, W_OUT,
         "0x1.663cb66e90080p-4"),
        ((1.0, 0.0, 0.0, 0.0, 1.0, "full"), A_M_OUT, A_1_OUT,
         "0x1.20994cfb68e9bp-1"),
        ((15.0, 0.1, 0.0, 0.0, 1.0, "reduced"), A_M_OUT, W_OUT,
         "0x1.0000000000001p-8"),
    ])
    def test_witness_bits(self, oracle_cache, point, steered, party, bits):
        oc = oracle_cache.covariance(*point)
        assert steering_product(oc, steered, party).hex() == bits


    @settings(max_examples=60, deadline=None)
    @given(rs=st.lists(st.floats(0.0, 360.0), min_size=1, max_size=4),
           x=st.sampled_from([0.0, 0.1, 0.3]), ratio=st.floats(0.2, 5.0),
           engine=st.sampled_from(["reduced", "full"]),
           roles=st.sampled_from([(A_M_OUT, W_OUT), (W_OUT, A_M_OUT),
                                  (A_M_OUT, A_1_OUT)]))
    @example(rs=[0.0, 1.0, 354.8, 360.0], x=0.1, ratio=1.5,
             engine="reduced", roles=(A_M_OUT, W_OUT))
    def test_stack_cells_are_the_float_calls(self, rs, x, ratio, engine,
                                             roles):
        # each cell of the stacked read keeps every bit of the one-point
        # float call; a refused point's slice and cell read NaN, also
        # where r = 0 makes no reduced parameters and its error goes in
        # in its place
        rps = [reduced_or_error(r, x, G1_over_G2=ratio, n0=0.5, n=5.0)
               for r in rs]
        stack, failures = output_covariances(rps, engine=engine)
        E = steering_product(stack, *roles)
        assert E.shape == (len(rs),)
        for i, rp in enumerate(rps):
            if i in failures:
                assert math.isnan(E[i])
                continue
            one = steering_product(oracle_point(rp, engine=engine), *roles)
            assert float(E[i]).hex() == one.hex()

    def test_nan_and_degenerate_slices_read_nan(self):
        # a fine slice, a NaN one, and two whose party P has a variance
        # below 1e-15; the stacked read warns of nothing
        sigma = np.stack([np.eye(4), np.full((4, 4), math.nan), np.eye(4),
                          np.eye(4)])
        sigma[2, 3, 3], sigma[3, 3, 3] = 1e-16, 0.0
        E = steering_product(OutputCovariance(("alice", "bob"), sigma),
                             "alice", "bob")
        one = [OutputCovariance(("alice", "bob"), s) for s in sigma]
        assert E[0] == steering_product(one[0], "alice", "bob") == 1.0
        assert np.isnan(E[1:]).all()
        assert math.isnan(steering_product(one[1], "alice", "bob"))
        for oc, var in ((one[2], "1e-16"), (one[3], "0.0")):
            with pytest.raises(DegenerateVariance) as exc:
                steering_product(oc, "alice", "bob")
            assert str(exc.value) == \
                f"party quadrature ('bob', 'P') has variance {var}"


class TestMonogamy:
    def test_balanced_couplings_leave_both_parties_blocked(self, oracle_cache):
        oc = oracle_cache.covariance(1.0, 0.0, 0.0, 0.0)
        report = monogamy_check(oc, A_M_OUT, (A_1_OUT, A_2_OUT))
        assert report.E_values[0] >= 0.5 - 1e-10
        assert report.E_values[1] >= 0.5 - 1e-10
        assert report.is_consistent

    def test_unbalanced_coupling_steers_through_one_party_only(self,
                                                               oracle_cache):
        oc = oracle_cache.covariance(1.0, 0.0, 0.0, 0.0, ratio=2.0)
        report = monogamy_check(oc, A_M_OUT, (A_1_OUT, A_2_OUT))
        assert report.E_values[0] < 0.5
        assert report.E_values[1] > 0.5
        assert report.is_consistent

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
    def test_analytic_tie_is_consistent(self, oracle_cache, r):
        # G1 = G2, no damping, zero occupations: both single-party witnesses
        # equal 1/2 exactly; rounding must not make both "steer"
        oc = oracle_cache.covariance(r, 0.0, 0.0, 0.0)
        report = monogamy_check(oc, A_M_OUT, (A_1_OUT, A_2_OUT))
        assert report.E_values == pytest.approx((0.5, 0.5), abs=1e-9)
        assert report.is_consistent

    def test_both_parties_below_half_is_flagged(self):
        # a corrupted covariance in which both cavity outputs infer the
        # mirror to conditional variance 0.45: E = 0.45 for each party
        c = math.sqrt(0.55)
        sigma = np.eye(6)
        for j in (2, 4):  # A_1_out, A_2_out
            sigma[0, j + 1] = sigma[j + 1, 0] = c  # X_m with P_j
            sigma[1, j] = sigma[j, 1] = c          # P_m with X_j
        oc = OutputCovariance((A_M_OUT, A_1_OUT, A_2_OUT), sigma)
        report = monogamy_check(oc, A_M_OUT, (A_1_OUT, A_2_OUT))
        assert report.E_values == pytest.approx((0.45, 0.45), abs=1e-12)
        assert 0.0 < report.margin < 1e-12
        assert not report.is_consistent

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(0.01, 5.0), x=st.floats(0.0, 0.5),
           n0=st.floats(0.0, 100.0), n=st.floats(0.0, 1000.0),
           f1_frac=st.floats(0.0, 1.0))
    def test_never_violated_across_model_family(self, r, x, n0, n, f1_frac):
        f1 = (1.0 + x) * f1_frac
        f2 = (1.0 + x) - f1
        e1 = single_steering_value(r, x, n0, n, f1)
        e2 = single_steering_value(r, x, n0, n, f2)
        assert not (e1 < 0.5 and e2 < 0.5)

    def test_never_violated_on_dense_grid(self):
        rng = np.random.default_rng(20240809)
        for _ in range(10_000):
            r = rng.uniform(0.01, 4.0)
            x = rng.uniform(0.0, 0.5)
            n0 = rng.uniform(0.0, 50.0)
            n = rng.uniform(0.0, 500.0)
            f1 = rng.uniform(0.0, 1.0 + x)
            e1 = single_steering_value(r, x, n0, n, f1)
            e2 = single_steering_value(r, x, n0, n, (1.0 + x) - f1)
            assert not (e1 < 0.5 and e2 < 0.5)


class TestNoiseThreshold:
    def test_moderate_damping_threshold_location(self):
        res = noise_threshold(0.1, 0.0)
        assert 500.0 <= res.value <= 700.0
        assert res.bracket[1] - res.bracket[0] <= 0.5

    def test_threshold_decreases_with_damping(self):
        values = [noise_threshold(x, 0.0).value for x in (0.05, 0.1, 0.2)]
        assert values[0] > values[1] > values[2]

    def test_weak_damping_escapes_the_cap(self):
        with pytest.raises(NoThreshold):
            noise_threshold(1e-4, 0.0)
        # n* = 1.2e6, just past the cap
        assert max_occupation(R_MAX, 0.0075, 0.0) > N_CAP
        with pytest.raises(NoThreshold):
            noise_threshold(0.0075, 0.0)

    @pytest.mark.parametrize("r_max", [SINH_SERIES_R, R_MAX])
    def test_builds_no_small_r_series_above_its_end(self, monkeypatch, r_max):
        # max_occupation reads the branch from its own r, so n* at an r_max
        # past the series' end never sums it
        calls, series = [], closedform._sinh_series
        monkeypatch.setattr(closedform, "_sinh_series",
                            lambda y2: calls.append(y2) or series(y2))
        noise_threshold(np.array([0.05, 0.1, 0.3]), 0.0, r_max)
        assert not calls
        max_occupation(np.array([0.3, 1.0]), 0.1, 0.0)
        assert calls  # below the end it does

    @pytest.mark.parametrize("x, bracket", [
        (0.0098, (541653.0, 541653.5)), (0.008, (992187.0, 992187.5))])
    def test_thresholds_between_2_to_the_19_and_the_cap(self, x, bracket):
        # the cap is read on n* itself, not on the doubling's next step
        assert 2.0 ** 19 < max_occupation(R_MAX, x, 0.0) < N_CAP
        assert noise_threshold(x, 0.0) \
            == ThresholdResult(0.5 * sum(bracket), bracket)

    def test_warm_mirror_has_no_all_pulse_threshold(self):
        # with n0 > 0 the witness starts above 1/2, so no bath occupation
        # can keep steering alive over the whole pulse-area range
        with pytest.raises(NoThreshold):
            noise_threshold(0.1, 5.0)
        # however small n0 is: the sup's scan starts at r = 1e-3 and misses
        # the rise to n0 + 1/2 closer to r = 0, so the search on the sup
        # alone finds a threshold at n0 = 1e-3
        for n0 in (1e-3, 1e-9):
            assert collective_steering_value(1e-12, 0.3, n0, 5.0) > 0.5
            with pytest.raises(NoThreshold):
                noise_threshold(0.3, n0)

    @pytest.mark.parametrize("x, r_max", [
        (0.1, 10.0), (0.05, 6.0), (0.3, 50.0), (0.0049, 10.0), (0.9, 0.3),
        (0.0098, 10.0), (0.008, 10.0)])
    @pytest.mark.parametrize("tol", [0.5, 1e-9])
    def test_same_result_as_the_search_on_the_sup(self, x, r_max, tol):
        # the closed-form bound answers the doubling and bisection steps
        # exactly as the sup over r does, down to a 1e-9 bracket
        n0 = 0.0
        try:
            got = noise_threshold(x, n0, r_max, tol)
        except NoThreshold:
            got = None
        assert got == sup_threshold(x, n0, r_max, tol)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParams):
            noise_threshold(0.0, 0.0)
        with pytest.raises(InvalidParams):
            noise_threshold(1.5, 0.0)


# bounds n* of the bracket property: 0, integers, powers of two, dyadic
# fractions and any float below the cap
N_STARS = st.one_of(
    st.just(0.0), st.integers(0, int(N_CAP) - 1).map(float),
    st.integers(-1074, 19).map(lambda j: 2.0 ** j),
    st.builds(lambda k, j: k * 2.0 ** -j, st.integers(0, 2 ** 40),
              st.integers(0, 60)).filter(lambda n: n < N_CAP),
    st.floats(0.0, N_CAP, exclude_max=True))
TOLS = st.one_of(
    st.sampled_from([0.5, 1e-9, 1e-300, 5e-324, 1e6]),
    st.integers(-1074, 25).map(lambda j: 2.0 ** j), st.floats(1e-6, 10.0))


class TestClosedFormBracket:
    """``noise_threshold``'s bracket, written down from n*, is the search's
    bracket bit for bit, and an array call is its float calls."""

    @settings(max_examples=2000, deadline=None)
    @given(n_star=N_STARS, tol=TOLS)
    @example(n_star=0.0, tol=5e-324)
    @example(n_star=N_CAP - 0.5, tol=5e-324)
    @example(n_star=599.0004947, tol=0.5)
    def test_bracket_is_the_search_bracket(self, n_star, tol):
        bound = lambda r, x, n0: np.full(np.shape(x), n_star)  # noqa: E731
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(steering, "max_occupation", bound)
            res = noise_threshold(0.1, 0.0, R_MAX, tol)
        lo, hi = threshold_search(n_star, tol)
        assert [v.hex() for v in (res.value, *res.bracket)] \
            == [v.hex() for v in (0.5 * (lo + hi), lo, hi)]

    @pytest.mark.parametrize("n0, r_max, tol", [
        (0.0, R_MAX, 0.5), (0.0, 0.3, 1e-9), (0.0, 50.0, 5e-324),
        (0.5, R_MAX, 0.5), (-1.0, R_MAX, 0.5), (math.nan, R_MAX, 0.5),
        (0.0, 0.0, 0.5), (0.0, math.inf, 0.5), (0.0, R_MAX, 0.0),
        (0.0, R_MAX, math.nan)])
    def test_array_call_is_its_float_calls(self, n0, r_max, tol):
        x = np.concatenate((np.logspace(-4, math.log10(1.5), 22),
                            [0.0, -1.0, 1.0, math.nan, 0.0075, 0.0098]))
        res = noise_threshold(x.reshape(-1, 4), n0, r_max, tol)
        cells = np.stack((res.value, *res.bracket), -1).reshape(-1, 3)
        nan = np.flatnonzero(np.isnan(cells[:, 0]))
        refusals = dict(zip(nan.tolist(), steering._threshold_refusal(
            x[nan], n0, r_max, tol)[1]))
        for i, v in enumerate(x.tolist()):
            try:
                got = noise_threshold(v, n0, r_max, tol)
            except (InvalidParams, NoThreshold) as exc:
                assert np.isnan(cells[i]).all()
                assert (type(refusals[i]), str(refusals[i])) \
                    == (type(exc), str(exc))
            else:
                assert i not in refusals
                assert cells[i].tolist() == [got.value, *got.bracket]


class TestSearchTermination:
    """The noise-threshold search ends, or refuses, for any tolerance."""

    @pytest.mark.parametrize("tol", [1e-300, 5e-324])
    def test_tolerance_below_float_spacing_ends_at_adjacent_floats(self, tol):
        with deadline(20):
            res = noise_threshold(0.1, 0.0, 10.0, tol)
        lo, hi = res.bracket
        assert lo <= res.value <= hi
        assert hi - lo <= 2.0 * np.spacing(hi)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_non_positive_tolerance_rejected(self, tol):
        with deadline(20):
            with pytest.raises(InvalidParams):
                noise_threshold(0.1, 0.0, 10.0, tol)

    @pytest.mark.parametrize("r_max", [0.0, -1.0, math.inf])
    def test_empty_pulse_area_range_rejected(self, r_max):
        with pytest.raises(InvalidParams):
            noise_threshold(0.1, 0.0, r_max)

    @pytest.mark.parametrize("name", ["n0", "r_max", "tol"])
    @pytest.mark.parametrize("value", _NOT_FLOATS, ids=_NOT_FLOAT_IDS)
    def test_takes_floats_only_but_for_gamma_over_G(self, name, value):
        # as threshold_r: a typed refusal, not a TypeError or ValueError of
        # the arithmetic
        args = {"n0": 0.0, "r_max": R_MAX, "tol": 0.5, name: value}
        with pytest.raises(InvalidParams) as exc:
            noise_threshold(0.1, **args)
        assert str(exc.value) == f"{name} must be a float, got {value!r}"

    @pytest.mark.parametrize("value", _NOT_REAL, ids=_NOT_REAL_IDS)
    def test_takes_real_gamma_over_G_only(self, value):
        # a numeric string, or a list of them, was parsed as its numbers,
        # and a ragged list ended in numpy's ValueError
        with pytest.raises(InvalidParams) as exc:
            noise_threshold(value, 0.0)
        assert str(exc.value) == ("gamma_over_G must be a float or an array "
                                  f"of floats, got {value!r}")


class TestPulseAreaCrossing:
    @pytest.mark.parametrize("name", ["gamma_over_G", "n0", "n"])
    @pytest.mark.parametrize("value", _NOT_FLOATS, ids=_NOT_FLOAT_IDS)
    def test_takes_floats_only(self, name, value):
        args = {"gamma_over_G": 0.1, "n0": 5.0, "n": 5.0, name: value}
        with pytest.raises(InvalidParams) as exc:
            r_crossing(**args)
        assert str(exc.value) == f"{name} must be a float, got {value!r}"

    def test_undamped_crossing_matches_analytic_threshold(self):
        for n0 in (0.5, 5.0, 50.0):
            r = r_crossing(0.0, n0, 0.0)
            assert r == pytest.approx(threshold_r(n0), abs=1e-9)

    def test_undamped_crossing_is_the_analytic_threshold(self):
        # the contour bisection runs to adjacent floats, so even a crossing
        # at r ~ 5e-7 is exact to the witness's rounding
        for n0 in np.geomspace(1e-6, 50.0).tolist():
            r = r_crossing(0.0, n0, 0.0)
            assert r == pytest.approx(threshold_r(n0), rel=1e-9, abs=0.0)

    def test_noise_delays_the_crossing(self):
        assert r_crossing(0.1, 5.0, 5.0) > threshold_r(5.0)

    def test_witness_is_half_at_the_crossing(self):
        r = r_crossing(0.1, 5.0, 5.0)
        assert collective_steering_value(r, 0.1, 5.0, 5.0) \
            == pytest.approx(0.5, abs=1e-7)

    def test_crossing_is_the_first_on_the_grid(self):
        rs = np.linspace(0.0, R_MAX, 4097)
        rng = np.random.default_rng(20)
        for _ in range(100):
            x = float(rng.uniform(0.0, 1.5))
            n0 = float(5.0 * (1.0 - rng.uniform()))  # in (0, 5]
            n = float(rng.uniform(0.0, 50.0))
            grid = collective_steering_value(rs, np.full(rs.shape, x), n0, n)
            try:
                r = r_crossing(x, n0, n)
            except NoThreshold:
                assert (grid > 0.5).all()
                continue
            E = collective_steering_value(np.array([r]), np.array([x]), n0, n)
            assert abs(float(E[0]) - 0.5) <= 1e-12
            assert (grid[rs < r] > 0.5).all()


class TestSteeringRegion:
    def test_undamped_row_reduces_to_closed_identity(self):
        rs = np.linspace(0.0, 3.0, 31)
        region = steering_region(rs, [0.0, 0.1], 0.0, 0.0)
        expect = [(0.5 if r == 0 else
                   0.5 / (2.0 * math.expm1(2.0 * r) + 1.0)) for r in rs]
        assert region.E[0] == pytest.approx(expect, rel=1e-12)

    def test_witness_depends_only_on_total_gain_split_free(self, oracle_cache):
        # the collective witness ignores how the gain splits between modes
        a = oracle_cache.covariance(1.0, 0.1, 0.0, 5.0, ratio=1.0)
        b = oracle_cache.covariance(1.0, 0.1, 0.0, 5.0, ratio=2.0)
        ea = steering_product(a, A_M_OUT, W_OUT)
        eb = steering_product(b, A_M_OUT, W_OUT)
        assert ea == pytest.approx(eb, rel=1e-8)

    def test_contour_points_sit_on_the_boundary(self):
        rs = np.linspace(0.01, 1.0, 41)
        region = steering_region(rs, [0.0, 0.1, 0.2], 5.0, 5.0)
        assert region.contour
        for r, x in region.contour:
            assert collective_steering_value(r, x, 5.0, 5.0) \
                == pytest.approx(0.5, abs=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(n0=st.floats(0.05, 5.0), n=st.floats(0.0, 50.0),
           r_top=st.floats(0.5, 4.0), r_points=st.integers(9, 40),
           x_top=st.floats(0.05, 1.5), x_points=st.integers(2, 12))
    def test_bisected_contour_points_end_at_adjacent_floats(
            self, n0, n, r_top, r_points, x_top, x_points):
        # every contour point off the grid is the midpoint of a bracket of
        # adjacent floats across which E - 1/2 changes sign: it is nonzero
        # at one end, and of the other sign or zero (a midpoint where E is
        # 1/2 exactly closes the bracket from above) at the other.  The
        # crossings lie above r_th(0.05) = 0.024, so 60 rounds get there.
        # E is evaluated as the bisection does, with gamma/G per cell: a
        # scalar gamma/G squares 1 + x with pow, which can round otherwise.
        rs = np.linspace(0.0, r_top, r_points)
        region = steering_region(rs, np.linspace(0.0, x_top, x_points), n0, n)
        grid = set(rs.tolist())
        for r, x in region.contour:
            if r in grid:
                continue
            brackets = [(np.nextafter(r, -np.inf), r),
                        (r, np.nextafter(r, np.inf))]
            ends = [collective_steering_value(np.array(b), np.full(2, x),
                                              n0, n) - 0.5
                    for b in brackets]
            assert any(lo * hi <= 0.0 and (lo, hi) != (0.0, 0.0)
                       for lo, hi in ends)

    def test_small_damping_region_is_steerable(self):
        region = steering_region(np.linspace(0.1, 3.0, 30), [0.01, 0.05],
                                 0.0, 0.0)
        assert (region.E < 0.5).all()

    def test_rejects_bad_grids(self):
        with pytest.raises(InvalidParams):
            steering_region([], [0.1], 0.0, 0.0)
        # cells outside the domain are NaN, as in the array witness
        region = steering_region([0.1], [-0.2], 0.0, 0.0)
        assert np.isnan(region.E).all() and not region.contour

    @pytest.mark.parametrize("rs", [np.linspace(3.0, 0.0, 31),
                                    [0.0, 1.0, 1.0, 2.0],
                                    [0.0, math.nan, 1.0], [math.nan]],
                             ids=["descending", "repeated", "nan", "lone-nan"])
    def test_rejects_an_r_grid_not_strictly_increasing(self, rs):
        # a descending grid read every bracket as converged and returned
        # each cell's midpoint (r = 0.15 here, not 0.1750 and 0.1730)
        with pytest.raises(InvalidParams, match="increase strictly"):
            steering_region(rs, [0.1, 0.2], 0.5, 5.0)

    @pytest.mark.parametrize("rs, xs", [
        ([[0.0, 1.0], [2.0, 3.0]], [0.1]),
        ([0.0, 1.0], [[0.1], [0.2]]),
    ], ids=["2-D r", "2-D gamma"])
    def test_rejects_a_grid_that_is_not_1d(self, rs, xs):
        # a 2-D r grid ended in numpy's broadcast ValueError, a 2-D gamma/G
        # grid in "too many values to unpack"
        with pytest.raises(InvalidParams, match="1-D"):
            steering_region(rs, xs, 0.5, 5.0)

    @pytest.mark.parametrize("value", _NOT_REAL, ids=_NOT_REAL_IDS)
    @pytest.mark.parametrize("name", ["r_grid", "gamma_over_G_grid"])
    def test_takes_real_grids_only(self, name, value):
        # a grid of numeric strings was parsed as its numbers, and a
        # ragged one ended in numpy's ValueError
        grids = {"r_grid": [0.0, 1.0], "gamma_over_G_grid": [0.1], name: value}
        with pytest.raises(InvalidParams) as exc:
            steering_region(**grids, n0=0.0, n=0.0)
        assert str(exc.value) == (f"{name} must be a float or an array of "
                                  f"floats, got {value!r}")


# the map of many crossings: 21 contour points, each bracket down to
# adjacent floats after 58 rounds
MANY_CROSSINGS = (np.linspace(0.0, 500.0, 70), np.linspace(0.0, 1.5, 70),
                  1.0, 10.0)


class TestContourBisection:
    def _passes(self, monkeypatch, module, region, *args) -> int:
        calls = []
        cells = module._collective_cells

        def counted(*a):
            calls.append(1)
            return cells(*a)

        monkeypatch.setattr(module, "_collective_cells", counted)
        region(*args)
        return len(calls)

    def test_three_rounds_per_witness_pass(self, monkeypatch):
        one_round = self._passes(monkeypatch, _reference, one_round_contour,
                                 *MANY_CROSSINGS)
        passes = self._passes(monkeypatch, steering, steering_region,
                              *MANY_CROSSINGS)
        assert one_round == 58
        assert passes <= math.ceil(BISECTION_ROUNDS / PASS_ROUNDS) == 20

    def test_the_cap_is_a_whole_number_of_passes(self):
        # the bisection runs BISECTION_ROUNDS // PASS_ROUNDS full passes
        assert BISECTION_ROUNDS % PASS_ROUNDS == 0

    @pytest.mark.parametrize("cap, passes", [(6, 2), (9, 3)])
    def test_a_binding_cap_ends_after_whole_passes(self, monkeypatch, cap,
                                                    passes):
        # no bracket of the map is down to adjacent floats after 6 or 9
        # rounds, so the cap ends the bisection
        monkeypatch.setattr(steering, "BISECTION_ROUNDS", cap)
        monkeypatch.setattr(_reference, "BISECTION_ROUNDS", cap)
        assert self._passes(monkeypatch, steering, steering_region,
                            *MANY_CROSSINGS) == passes
        assert steering_region(*MANY_CROSSINGS).contour \
            == one_round_contour(*MANY_CROSSINGS)

    @settings(max_examples=200, deadline=None)
    @given(log_r=st.booleans(), r_lo=st.floats(-1.0, 0.0),
           r_top=st.one_of(st.floats(0.5, 10.0),
                           st.floats(90.0, 120.0),
                           st.floats(0.9 * 350.0, 800.0)),
           r_points=st.integers(2, 40), x_lo=st.floats(-0.3, 0.0),
           x_top=st.floats(0.0, 1.5), x_points=st.integers(1, 8),
           n0=st.one_of(st.just(1e-12), st.floats(1e-12, 5.0),
                        st.floats(-0.5, 0.0)),
           n=st.one_of(st.floats(0.0, 50.0), st.floats(-1.0, 0.0)))
    # the cap binds where a bracket is wider than 2**8 times the crossing:
    # n0 = 1e-12 at gamma = 0 crosses near r = 5e-13, inside (0, 0.025),
    # and n0 = 1e-3 near r = 5e-4, inside (1e-7, 800)
    @example(log_r=False, r_lo=0.0, r_top=1.0, r_points=41, x_lo=0.0,
             x_top=0.5, x_points=5, n0=1e-12, n=0.0)
    @example(log_r=True, r_lo=0.0, r_top=800.0, r_points=2, x_lo=0.0,
             x_top=0.2, x_points=3, n0=1e-3, n=1.0)
    @example(log_r=False, r_lo=0.0, r_top=500.0, r_points=70, x_lo=0.0,
             x_top=1.5, x_points=70, n0=1.0, n=10.0)  # MANY_CROSSINGS
    @example(log_r=True, r_lo=0.0, r_top=800.0, r_points=61, x_lo=0.0,
             x_top=1.5, x_points=4, n0=1e-5, n=5.0)  # brackets in every band
    def test_contour_is_that_of_one_round_per_pass(
            self, log_r, r_lo, r_top, r_points, x_lo, x_top, x_points, n0,
            n):
        rs = (np.geomspace(1e-7, r_top, r_points) if log_r
              else np.linspace(r_lo, r_top, r_points))
        xs = np.linspace(x_lo, x_top, x_points)
        assert steering_region(rs, xs, n0, n).contour \
            == one_round_contour(rs, xs, n0, n)
