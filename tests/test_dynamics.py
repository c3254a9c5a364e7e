"""Model builders, kernels, deterministic propagation, collective modes."""

import cmath
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp, trapezoid
from scipy.linalg import expm

from _reference import (
    block,
    collective_output_kernels,
    diffusion,
    object_full_model,
    object_oracle_sweep,
    object_output_covariances,
    object_output_kernels,
    object_propagate_output_covariance,
    object_reduced_model,
    oracle_point,
    reduced_or_error,
    symplectic_eigenvalues,
)
from steerkit import (
    LinearModel,
    ReducedParams,
    TemporalKernel,
    build_full_model,
    build_reduced_model,
    derived_quantities,
    monte_carlo_output_covariance,
    propagate_output_covariance,
    reduced_from_ratios,
)
from steerkit import cli, dynamics
from steerkit.dynamics import (
    A_1_OUT,
    A_2_OUT,
    A_M_OUT,
    B_TILDE,
    DEFAULT_OUTPUT_MODES,
    U_OUT,
    U_TILDE_IN,
    W_OUT,
    KernelTerm,
    OutputCovariance,
    mirror_output_phase,
    output_covariances,
    output_kernels,
    _collective_rows,
    _collective_weights,
    _full_system,
    _kernel_terms,
    _reduced_system,
    _Stack,
    _step_maps,
)
from steerkit.errors import (
    GainNotPositive,
    IntegratorFailure,
    InvalidParams,
    MissingModes,
    SteerkitError,
)

E2 = math.e ** 2


def lyapunov_endpoint(A, V, S0, t):
    """Constant-coefficient moment solution, independent of the integrator.

    Shifts by the particular solution of the algebraic Lyapunov equation and
    propagates the remainder with one matrix exponential:
    ``S(t) = e^{At} (S0 - Sp) e^{A^T t} + Sp`` with ``A Sp + Sp A^T = -V``.
    """
    from scipy.linalg import solve_continuous_lyapunov

    Sp = solve_continuous_lyapunov(A, -V)
    F = expm(A * t)
    return F @ (S0 - Sp) @ F.T + Sp


def time_dependent_reference(model, kernels, tau, phase):
    """The moment equation in its original time-dependent form.

    Filter accumulators integrate ``amp * e^{s t}`` times the system mode
    or noise channel directly, so ``M(t)`` and ``B(t)`` depend on time, and
    ``dS/dt = M S + S M^T + B Sigma B^T`` is integrated by DOP853 at rtol
    1e-12.  Returns the covariance over the rotated terminal mirror and the
    filters, in the layout of ``propagate_output_covariance``.
    """
    n_sys = 2 * model.dimension
    n = n_sys + 2 * len(kernels)
    sys_index = {lab: i for i, lab in enumerate(model.mode_labels)}
    chan_index = {name: i for i, name in enumerate(model.channels)}
    conj = np.diag([1.0, -1.0])

    def matrices(t):
        M = np.zeros((n, n))
        B = np.zeros((n, 2 * len(chan_index)))
        M[:n_sys, :n_sys] = np.reshape(model.drift, (n_sys, n_sys))
        B[:n_sys] = np.reshape(model.noise_input, (n_sys, -1))
        for k, kern in enumerate(kernels):
            row = n_sys + 2 * k
            for term in kern.terms:
                c = term.amplitude * cmath.exp(kern.rate * t)
                blk = np.array([[c.real, -c.imag], [c.imag, c.real]])
                if term.dagger:
                    blk = blk @ conj
                if term.kind == "system":
                    col = 2 * sys_index[term.target]
                    M[row:row + 2, col:col + 2] += blk
                else:
                    col = 2 * chan_index[term.target]
                    B[row:row + 2, col:col + 2] += blk
        return M, B

    sig = np.repeat([occ + 0.5 for occ in model.occupations], 2)

    def rhs(t, y):
        S = y.reshape(n, n)
        M, B = matrices(t)
        return (M @ S + S @ M.T + (B * sig) @ B.T).ravel()

    S0 = np.zeros((n, n))
    for i, occ in enumerate(model.initial_occupations):
        S0[2 * i, 2 * i] = S0[2 * i + 1, 2 * i + 1] = occ + 0.5
    sol = solve_ivp(rhs, (0.0, tau), S0.ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-12)
    assert sol.success, sol.message
    S = sol.y[:, -1].reshape(n, n)
    c, s = math.cos(phase), math.sin(phase)
    R = np.eye(n)
    m = n_sys - 2  # the mirror is the last system mode
    R[m:m + 2, m:m + 2] = [[c, s], [-s, c]]
    S = R @ S @ R.T
    idx = [m, m + 1] + list(range(n_sys, n))
    return S[np.ix_(idx, idx)]


class TestKernels:
    def test_every_standard_kernel_has_unit_norm(self):
        # independent quadrature check of the defining envelopes
        rp = reduced_from_ratios(1.3, 0.1, G1_over_G2=2.0)
        ts = np.linspace(0.0, rp.tau, 20001)
        for full in (False, True):
            for kern in output_kernels(rp, full=full):
                env2 = np.abs(kern.terms[0].amplitude
                              * np.exp(kern.rate * ts)) ** 2
                norm = math.sqrt(trapezoid(env2, ts))
                assert norm == pytest.approx(1.0, abs=1e-8), kern.label

    def test_output_kernels_grow(self):
        rp = reduced_from_ratios(1.0, 0.0)
        for full in (False, True):
            for kern in output_kernels(rp, full=full):
                assert kern.rate.real > 0.0, kern.label


class TestModelBuilders:
    def test_uncoupled_full_model_is_block_diagonal(self):
        rp_args = dict(kappa=10.0, Delta=3.0, gamma=0.5, n0=0.0, n=0.0,
                       tau=1.0)
        from steerkit.model import ReducedParams
        model = build_full_model(ReducedParams(g1=0.0, g2=0.0, **rp_args))
        off = np.reshape(model.drift, (6, 6))
        off[:2, :2] = 0.0
        off[2:4, 2:4] = 0.0
        off[4:, 4:] = 0.0
        assert np.all(off == 0.0)

    def test_uncoupled_outputs_stay_vacuum(self):
        # weakly coupled limit: outputs indistinguishable from vacuum
        rp = reduced_from_ratios(1.0, 0.0, kappa=20.0)
        from steerkit.model import ReducedParams
        weak = ReducedParams(g1=1e-4 * rp.g1, g2=1e-4 * rp.g2,
                             kappa=rp.kappa, Delta=rp.Delta, gamma=0.0,
                             n0=0.0, n=0.0, tau=rp.tau)
        model = build_full_model(weak)
        oc = propagate_output_covariance(
            model, output_kernels(weak, full=True), weak.tau)
        assert oc.variance(A_1_OUT) == pytest.approx(0.5, abs=1e-6)
        assert oc.variance(A_2_OUT, "P") == pytest.approx(0.5, abs=1e-6)

    def test_drift_spectrum_separates_fast_and_slow_scales(self):
        # one slow amplified direction near +G, fast decay near -kappa
        rp = reduced_from_ratios(1.0, 0.01, kappa=400.0)
        dq = derived_quantities(rp)
        ev = np.linalg.eigvals(np.reshape(build_full_model(rp).drift, (6, 6)))
        slow = ev[np.argmax(ev.real)]
        assert slow.real == pytest.approx(dq.G, rel=0.05)
        fast = ev[np.argmin(ev.real)]
        assert fast.real == pytest.approx(-rp.kappa, rel=0.05)
        assert abs(abs(fast.imag) - rp.Delta) / rp.Delta < 0.05

    def test_single_pump_growth_against_block_exponential(self):
        # one cavity, no detuning, no mirror damping: closed Lyapunov form
        from steerkit.model import ReducedParams
        rp = ReducedParams(g1=1.0, g2=0.0, kappa=30.0, Delta=0.0, gamma=0.0,
                           n0=0.5, n=0.0, tau=3.0)
        model = build_full_model(rp)
        S0 = np.diag([0.5, 0.5, 0.5, 0.5, 1.0, 1.0])
        ref = lyapunov_endpoint(np.reshape(model.drift, (6, 6)),
                                diffusion(model), S0, rp.tau)
        oc = propagate_output_covariance(
            model, output_kernels(rp, full=True), rp.tau)
        assert oc.variance(A_M_OUT) == pytest.approx(ref[4, 4], rel=1e-8)

    def test_reduced_noise_intensities(self):
        rp = reduced_from_ratios(1.0, 0.1, n0=2.0, n=7.0)
        model = build_reduced_model(rp)
        assert model.channels == ("a1_in", "a2_in", "b_in")
        assert model.occupations == (0.0, 0.0, 7.0)
        dq = derived_quantities(rp)
        D = diffusion(model)
        expect = dq.G1 + dq.G2 + 2.0 * rp.gamma * (rp.n + 0.5)
        assert D[0, 0] == pytest.approx(expect, rel=1e-12)
        assert D[0, 1] == pytest.approx(0.0, abs=1e-12)


class TestReducedPropagation:
    def test_undamped_growth_matches_scalar_solution(self):
        rp = reduced_from_ratios(1.0, 0.0, n0=0.5)
        model = build_reduced_model(rp)
        oc = propagate_output_covariance(
            model, output_kernels(rp, full=False), rp.tau)
        assert oc.variance(A_M_OUT) == pytest.approx(1.5 * E2 - 0.5, rel=1e-9)

    def test_rotation_rate_leaves_variances_unchanged(self):
        base = reduced_from_ratios(1.0, 0.05, n0=1.0, n=3.0)
        skew = reduced_from_ratios(1.0, 0.05, G1_over_G2=2.0, n0=1.0, n=3.0)
        assert derived_quantities(skew).delta != 0.0
        oc_b = propagate_output_covariance(
            build_reduced_model(base), output_kernels(base, full=False),
            base.tau, terminal_phase=mirror_output_phase(base))
        oc_s = propagate_output_covariance(
            build_reduced_model(skew), output_kernels(skew, full=False),
            skew.tau, terminal_phase=mirror_output_phase(skew))
        assert oc_s.variance(A_M_OUT) == pytest.approx(
            oc_b.variance(A_M_OUT), rel=1e-9)
        assert oc_s.variance(A_M_OUT, "P") == pytest.approx(
            oc_s.variance(A_M_OUT), rel=1e-9)

    def test_damped_mirror_variance_matches_closed_form(self, oracle_cache):
        from steerkit import output_block
        oc = oracle_cache.covariance(1.0, 0.1, 0.0, 100.0)
        S = output_block(1.0, 0.1, 0.0, 100.0)
        assert oc.variance(A_M_OUT) == pytest.approx(S[0, 0], rel=1e-6)

    def test_short_pulse_returns_inputs(self):
        rp = reduced_from_ratios(1e-7, 0.1, n0=2.0, n=9.0)
        oc = propagate_output_covariance(
            build_reduced_model(rp), output_kernels(rp, full=False),
            rp.tau)
        assert oc.variance(A_M_OUT) == pytest.approx(2.5, abs=1e-5)
        assert oc.variance(A_1_OUT) == pytest.approx(0.5, abs=1e-5)
        assert oc.variance(B_TILDE) == pytest.approx(9.5, abs=1e-4)
        assert oc.covariance((A_M_OUT, "X"), (A_1_OUT, "P")) \
            == pytest.approx(0.0, abs=1e-3)

    def test_mirror_collective_covariance_value(self, oracle_cache):
        # dual-direction check of the undamped mirror-W cross covariance
        oc = oracle_cache.covariance(1.0, 0.0)
        expect = -math.e * math.sqrt(E2 - 1.0)
        assert oc.covariance((A_M_OUT, "X"), (W_OUT, "P")) == pytest.approx(
            expect, rel=1e-9)

    def test_cross_moments_are_xp_type_only(self, oracle_cache):
        oc = oracle_cache.covariance(1.0, 0.1, 0.5, 5.0, ratio=2.0)
        scale = oc.variance(A_M_OUT)
        for lab in (A_1_OUT, A_2_OUT, W_OUT):
            assert abs(oc.covariance((A_M_OUT, "X"), (lab, "X"))) < 1e-9 * scale
            assert abs(oc.covariance((A_M_OUT, "P"), (lab, "P"))) < 1e-9 * scale

    def test_invalid_arguments(self):
        rp = reduced_from_ratios(1.0, 0.1)
        model = build_reduced_model(rp)
        kernels = output_kernels(rp, full=False)
        with pytest.raises(InvalidParams):
            propagate_output_covariance(model, kernels, -1.0)
        with pytest.raises(InvalidParams):
            propagate_output_covariance(model, kernels + kernels, 1.0)

    @pytest.mark.parametrize("tau, trajectories, seed, error, match", [
        (800.0, 1000, 1, IntegratorFailure,
         r"end factor of kernel 'A_1_out' overflows at s\*tau = 800\+0j"),
        (math.inf, 1000, 1, InvalidParams, "tau must be finite, got inf"),
        (1.0, 1000.5, 1, InvalidParams,
         "trajectories must be an integer, got 1000.5"),
        (1.0, 1000, 1.5, InvalidParams, "seed must be an integer, got 1.5"),
        (1.0, 1000, "3", InvalidParams, "seed must be an integer, got '3'"),
        (1.0, 1000, True, InvalidParams,
         "seed must be an integer, got True"),
        (1.0, 1000, 2 ** 64, InvalidParams,
         r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"),
        (1.0, 1000, -1, InvalidParams,
         r"seed must be in \[0, 2\*\*64\), got -1"),
    ], ids=["end-factor-overflow", "infinite-tau", "fractional-trajectories",
            "seed-float", "seed-string", "seed-bool", "seed-2**64",
            "seed-negative"])
    def test_caller_inputs_raise_typed_errors(self, tau, trajectories, seed,
                                              error, match):
        # the one-point read and the sampler take any tau, trajectory count
        # and seed a caller passes; the sampler checks its count and seed
        # first, and takes only a seed that keys its streams as it is
        rp = reduced_from_ratios(1.0, 0.1)
        model = build_reduced_model(rp)
        kernels = output_kernels(rp, full=False)
        with pytest.raises(error, match=match):
            monte_carlo_output_covariance(model, kernels, tau, trajectories,
                                          seed=seed)
        if not match.startswith(("trajectories", "seed")):
            with pytest.raises(error, match=match):
                propagate_output_covariance(model, kernels, tau)


class TestAgainstTimeDependentForm:
    """The exact propagation against the retired time-dependent moment
    equation, integrated independently at rtol 1e-12."""

    @staticmethod
    def worst_scaled_error(rp, full):
        build = build_full_model if full else build_reduced_model
        model = build(rp)
        kernels = output_kernels(rp, full=full)
        phase = mirror_output_phase(rp)
        ref = time_dependent_reference(model, kernels, rp.tau, phase)
        got = propagate_output_covariance(model, kernels, rp.tau,
                                          terminal_phase=phase).sigma
        # each entry against its natural scale sqrt(S_ii S_jj)
        d = np.sqrt(np.diag(ref))
        return float((np.abs(got - ref) / np.outer(d, d)).max())

    @pytest.mark.parametrize("r", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("ratio", [1.0, 1.5])
    def test_reduced_model(self, r, ratio):
        rp = reduced_from_ratios(r, 0.1, G1_over_G2=ratio, n0=0.5, n=5.0)
        assert self.worst_scaled_error(rp, full=False) <= 1e-9

    @pytest.mark.parametrize("kappa_over_g", [5.0, 40.0])
    def test_full_model(self, kappa_over_g):
        x = 0.01
        rp = reduced_from_ratios(1.0, x, n0=0.5, n=5.0,
                                 kappa=(1.0 + x) * kappa_over_g ** 2)
        assert self.worst_scaled_error(rp, full=True) <= 1e-9


    def test_a_term_outside_the_model_is_refused(self):
        # the full model's kernels read cavity modes the reduced model lacks
        rp = reduced_from_ratios(1.5, 0.1)
        model = build_reduced_model(rp)
        with pytest.raises(MissingModes, match="system 'a_1' not in model"):
            propagate_output_covariance(model, output_kernels(rp, full=True),
                                        rp.tau)
        (bt,) = output_kernels(rp, full=False, which=(B_TILDE,))
        stray = TemporalKernel("stray", bt.rate, (KernelTerm(
            "noise", "c_in", False, 1.0 + 0.0j),))
        with pytest.raises(MissingModes, match="noise 'c_in' not in model"):
            propagate_output_covariance(model, [stray], rp.tau)


def one_point_stack(rp, full):
    """The ``_Stack`` of ``rp`` alone, with every standard kernel."""
    dq = derived_quantities(rp)
    system = _full_system(rp) if full else _reduced_system(rp, dq)
    return _Stack([(system, _kernel_terms(rp, dq, full, DEFAULT_OUTPUT_MODES),
                    rp.tau, 0.0)])


class TestStepMap:
    @pytest.mark.parametrize("full, h", [(False, 0.01), (False, 0.3),
                                         (False, 2.5), (True, 0.002),
                                         (True, 0.1)])
    def test_matches_van_loan_block_exponential(self, full, h):
        rp = reduced_from_ratios(1.0, 0.1, G1_over_G2=1.5, n0=0.5, n=5.0)
        st = one_point_stack(rp, full)
        A, V = st.drift[0], st.diffusion[0]
        n = A.shape[0]
        generator = np.block([[-A, V], [np.zeros((n, n)), A.T]])
        F = expm(generator * h)
        phi_ref = F[n:, n:].T
        q_ref = phi_ref @ F[:n, n:]
        phi, q, failures = _step_maps(st.drift, st.diffusion, [h])
        assert not failures
        assert np.abs(phi[0] - phi_ref).max() <= 1e-12 * np.abs(phi_ref).max()
        assert np.abs(q[0] - q_ref).max() <= 1e-12 * np.abs(q_ref).max()

    def test_stacked_steps_match_one_at_a_time(self):
        # one stack mixes 0, 3 and 7 doublings, and slices of equal counts
        # (0.3 and 0.31, 2.5 and 2.6) lie apart in it; each slice takes its
        # own and matches its one-slice map bit for bit
        rp = reduced_from_ratios(1.0, 0.1, G1_over_G2=1.5, n0=0.5, n=5.0)
        st = one_point_stack(rp, full=False)
        hs = [0.01, 0.3, 2.5, 40.0, 0.05, 0.31, 2.6]
        A = np.repeat(st.drift, len(hs), axis=0)
        V = np.repeat(st.diffusion, len(hs), axis=0)
        phi, q, failures = _step_maps(A, V, hs)
        assert not failures
        for i, h in enumerate(hs):
            phi1, q1, _ = _step_maps(st.drift, st.diffusion, [h])
            assert phi[i].tobytes() == phi1[0].tobytes()
            assert q[i].tobytes() == q1[0].tobytes()

    def test_overflow_is_reported(self):
        with np.errstate(all="ignore"):
            _, _, failures = _step_maps(np.array([[[800.0]]]),
                                        np.array([[[1.0]]]), [1.0])
        assert isinstance(failures[0], IntegratorFailure)

    def test_overflow_stays_in_its_slice(self):
        A = np.array([[[0.5]], [[800.0]], [[-0.3]]])
        V = np.ones_like(A)
        with np.errstate(all="ignore"):
            phi, q, failures = _step_maps(A, V, [1.0, 1.0, 1.0])
        assert list(failures) == [1]
        assert isinstance(failures[1], IntegratorFailure)
        assert "after 10 doublings" in str(failures[1])
        for i in (0, 2):
            phi1, q1, alone = _step_maps(A[i:i + 1], V[i:i + 1], [1.0])
            assert not alone
            assert phi[i].tobytes() == phi1[0].tobytes()
            assert q[i].tobytes() == q1[0].tobytes()


class TestSweeps:
    """``output_covariances`` propagates a sweep as one stack; every point
    must be bit for bit what it is alone."""

    @staticmethod
    def sweep(**kw):
        # r from 0.05 to 12 takes from 0 to 4 doublings on the reduced
        # model and from 8 to 16 on the full one
        return [reduced_from_ratios(r, x, G1_over_G2=1.5, n0=0.5, n=5.0,
                                    **kw)
                for r in (0.05, 0.4, 1.0, 3.0, 7.5, 12.0) for x in (0.0, 0.3)]

    @pytest.mark.parametrize("engine", ["reduced", "full"])
    def test_stack_matches_one_point_at_a_time(self, engine):
        sweep = self.sweep(**({"kappa": 1.3 * 40.0 ** 2}
                              if engine == "full" else {}))
        stack, failures = output_covariances(sweep, engine=engine)
        assert not failures
        assert stack.sigma.shape[0] == len(sweep)
        for rp, sigma in zip(sweep, stack.sigma):
            alone, failed = output_covariances([rp], engine=engine)
            assert not failed
            assert stack.mode_labels == alone.mode_labels
            assert sigma.tobytes() == alone.sigma[0].tobytes()

    def test_kernel_subset_keeps_its_entries(self):
        subset = (A_1_OUT, A_2_OUT, B_TILDE)
        sweep = self.sweep()
        full_set, _ = output_covariances(sweep)
        part, _ = output_covariances(sweep, which=subset)
        kept = (A_M_OUT,) + subset + (W_OUT, U_OUT)
        assert part.mode_labels == kept
        assert part.sigma.tobytes() == block(full_set, kept).sigma.tobytes()

    def test_failed_points_keep_their_errors(self):
        good = self.sweep()[6]
        bad_gain = ReducedParams(kappa=1.0, Delta=0.0, g1=0.1, g2=0.1,
                                 gamma=1.0, tau=1.0, n0=0.0, n=0.0)
        huge = reduced_from_ratios(360.0, 0.1)
        # from G tau ~ 9e307, 2 G tau is inf and expm1 returns inf
        # without raising: the normalization would read 0
        far = reduced_from_ratios(1e308, 0.1)
        stack, failures = output_covariances([good, bad_gain, huge, good,
                                              far])
        assert sorted(failures) == [1, 2, 4]
        for i, rp in ((1, bad_gain), (2, huge), (4, far)):
            with pytest.raises(type(failures[i])) as alone:
                oracle_point(rp)
            assert str(alone.value) == str(failures[i])
            assert np.isnan(stack.sigma[i]).all()
        assert isinstance(failures[1], GainNotPositive)
        assert isinstance(failures[2], IntegratorFailure)
        assert isinstance(failures[4], IntegratorFailure)
        assert str(failures[4]) == ("output kernel normalization overflows "
                                    "at G*tau = 1e+308")
        solo = oracle_point(good).sigma.tobytes()
        assert stack.sigma[0].tobytes() == stack.sigma[3].tobytes() == solo

    def test_no_point_propagated(self):
        # the labels and the NaN slices come without any point to build
        stack, failures = output_covariances([reduced_from_ratios(360.0, 0.1)])
        labels, _ = output_covariances([self.sweep()[0]])
        assert stack.mode_labels == labels.mode_labels
        assert np.isnan(stack.sigma).all() and list(failures) == [0]
        empty, failures = output_covariances([])
        assert empty.sigma.shape == (0,) + labels.sigma.shape[1:]
        assert failures == {}

    def test_a_mode_named_twice_is_the_call_s_error(self):
        with pytest.raises(InvalidParams, match="duplicate kernel labels"):
            output_covariances(self.sweep(), which=(A_1_OUT, A_1_OUT))


def errors(failures: dict) -> dict:
    return {i: (type(exc), str(exc)) for i, exc in failures.items()}


def model_numbers(model):
    """The numbers of a ``LinearModel``: its drift and noise input as
    matrix bytes, its labels and its occupations."""
    m = 2 * model.dimension
    return (np.reshape(model.drift, (m, m)).tobytes(),
            np.reshape(model.noise_input, (m, -1)).tobytes(),
            model.mode_labels, model.channels, model.occupations,
            model.initial_occupations)


def object_model_numbers(model):
    """``model_numbers`` of a ``_reference.ObjectLinearModel``."""
    return (model.drift.tobytes(), model.noise_input.tobytes(),
            model.mode_labels,
            tuple(ch.name for ch in model.noise_channels),
            tuple(ch.occupation for ch in model.noise_channels),
            model.initial_occupations)


def one_point(rp, full, which, build, kernels, propagate, numbers):
    """The model of ``rp`` and its one-point read from the model and its
    kernels, as bytes and labels (``numbers`` reads the model), or the type
    and text of their error."""
    try:
        model = build(rp)
        oc = propagate(model, kernels(rp, full=full, which=which), rp.tau,
                       terminal_phase=mirror_output_phase(rp))
    except SteerkitError as exc:
        return type(exc), str(exc)
    return numbers(model) + (oc.mode_labels, oc.sigma.tobytes())


# pulse areas up to the overflow edge, and the three refusals: r = 0 and
# r = -1 (no reduced parameters: tau must be > 0, r must be >= 0) and r =
# 360 (the kernel normalization overflows)
_PULSE_AREAS = st.one_of(st.floats(1e-6, 12.0), st.floats(340.0, 356.0),
               st.sampled_from([0.0, -1.0, 360.0]))
_KNOBS = st.fixed_dictionaries({
    "r": _PULSE_AREAS, "gamma_over_G": st.floats(0.0, 1.0),
    "G1_over_G2": st.floats(0.2, 5.0), "n0": st.floats(0.0, 10.0),
    "n": st.floats(0.0, 100.0), "Delta_over_kappa": st.sampled_from([0.0, 1.0]),
    "kappa": st.sampled_from([20.0, 2080.0])})


class TestObjectPath:
    """The stack built from per-point numbers against the one built from
    per-point model and kernel objects (``_reference``), byte for byte:
    slices, mode labels, and each failure's type and text."""

    @settings(max_examples=150, deadline=None)
    @given(engine=st.sampled_from(["reduced", "full"]),
           which=st.sampled_from([cli._ORACLE_MODES, DEFAULT_OUTPUT_MODES]),
           sweep=st.lists(_KNOBS, min_size=1, max_size=12))
    def test_sweep_is_the_object_sweep(self, engine, which, sweep):
        new, new_failures = cli._oracle_sweep(sweep, engine=engine,
                                              which=which)
        old, old_failures = object_oracle_sweep(sweep, engine=engine,
                                                which=which)
        assert new.mode_labels == old.mode_labels
        assert new.sigma.tobytes() == old.sigma.tobytes()
        assert errors(new_failures) == errors(old_failures)
        # the same points, each that makes no reduced parameters (r <= 0)
        # as its error
        rps = [reduced_or_error(**k) for k in sweep]
        new, new_failures = output_covariances(rps, engine=engine, which=which)
        old, old_failures = object_output_covariances(rps, engine=engine,
                                                      which=which)
        assert new.sigma.tobytes() == old.sigma.tobytes()
        assert errors(new_failures) == errors(old_failures)
        # and the first that makes reduced parameters through the one-point
        # objects
        full = engine == "full"
        for rp in [rp for rp in rps if isinstance(rp, ReducedParams)][:1]:
            assert one_point(
                rp, full, which, build_full_model if full
                else build_reduced_model, output_kernels,
                propagate_output_covariance, model_numbers) == one_point(
                rp, full, which, object_full_model if full
                else object_reduced_model, object_output_kernels,
                object_propagate_output_covariance, object_model_numbers)

    @pytest.mark.parametrize("full", [False, True])
    def test_a_model_of_matrices_is_the_model_of_lists(self, full):
        # a hand-built model with (2m, 2m) and (2m, 2c) arrays reads as the
        # builder's row-major lists, byte for byte
        rp = reduced_from_ratios(1.3, 0.1, G1_over_G2=1.5, n0=0.5, n=5.0)
        built = (build_full_model if full else build_reduced_model)(rp)
        m = 2 * built.dimension
        model = LinearModel(
            mode_labels=built.mode_labels,
            drift=np.array(built.drift).reshape(m, m),
            noise_input=np.array(built.noise_input).reshape(m, -1),
            channels=built.channels, occupations=built.occupations,
            initial_occupations=built.initial_occupations)
        kernels = output_kernels(rp, full=full)
        phase = mirror_output_phase(rp)
        lists, arrays = (propagate_output_covariance(
            mdl, kernels, rp.tau, terminal_phase=phase).sigma.tobytes()
            for mdl in (built, model))
        assert isinstance(built.drift, list)
        assert arrays == lists

    def test_one_derived_quantities_per_point(self, monkeypatch):
        calls = []
        derive = dynamics.derived_quantities

        def spy(rp):
            calls.append(rp)
            return derive(rp)

        monkeypatch.setattr(dynamics, "derived_quantities", spy)
        rps = [reduced_from_ratios(r, 0.1, n0=0.5) for r in (0.5, 2.0, 9.0)]
        for engine in ("reduced", "full"):
            calls.clear()
            output_covariances(rps, engine=engine)
            assert calls == rps


def test_import_leaves_scipy_unloaded():
    code = "import sys, steerkit; print(sorted(m for m in sys.modules " \
        "if m == 'scipy' or m.startswith('scipy.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestAdiabaticLimit:
    def test_full_model_approaches_reduced_at_high_kappa(self):
        rels = []
        for ratio in (10.0, 20.0):
            x = 0.01
            rp = reduced_from_ratios(1.0, x, kappa=(1.0 + x) * ratio ** 2)
            oc_full = propagate_output_covariance(
                build_full_model(rp), output_kernels(rp, full=True),
                rp.tau, terminal_phase=mirror_output_phase(rp))
            oc_red = propagate_output_covariance(
                build_reduced_model(rp), output_kernels(rp, full=False),
                rp.tau, terminal_phase=mirror_output_phase(rp))
            ref = oc_red.sigma
            mask = np.abs(ref) > 1e-6
            rels.append(np.max(np.abs(oc_full.sigma[mask] - ref[mask])
                               / np.abs(ref[mask])))
        assert rels[1] < rels[0]
        assert rels[1] < 0.05


class TestCollectiveModes:
    def test_two_path_consistency(self):
        # direct collective kernels against the covariance-level transform
        rp = reduced_from_ratios(1.0, 0.1, G1_over_G2=2.0, n0=0.5, n=5.0)
        direct = propagate_output_covariance(
            build_reduced_model(rp),
            output_kernels(rp, full=False) + collective_output_kernels(rp),
            rp.tau, terminal_phase=mirror_output_phase(rp))
        transformed = oracle_point(rp)
        for lab in (W_OUT, U_OUT):
            for quad in ("X", "P"):
                assert direct.variance(lab, quad) == pytest.approx(
                    transformed.variance(lab, quad), abs=1e-8, rel=1e-8)
        assert direct.covariance((W_OUT, "X"), (U_OUT, "X")) == pytest.approx(
            transformed.covariance((W_OUT, "X"), (U_OUT, "X")),
            abs=1e-8)

    def test_antisymmetric_mode_is_vacuum_without_damping(self, oracle_cache):
        oc = oracle_cache.covariance(1.0, 0.0, 0.0, 0.0)
        assert oc.variance(U_OUT) == pytest.approx(0.5, abs=1e-9)

    def test_antisymmetric_mode_is_conserved(self, oracle_cache):
        for (r, x, n0, n, ratio) in ((0.5, 0.1, 0.0, 5.0, 1.0),
                                     (1.0, 0.05, 0.5, 100.0, 2.0)):
            oc = oracle_cache.covariance(r, x, n0, n, ratio=ratio)
            assert oc.variance(U_OUT) == pytest.approx(
                oc.variance(U_TILDE_IN), abs=1e-8)

    def test_balanced_couplings_give_balanced_combination(self, oracle_cache):
        oc = oracle_cache.covariance(1.0, 0.0, 0.0, 0.0)
        manual = 0.5 * (oc.variance(A_1_OUT) + oc.variance(A_2_OUT)) \
            - oc.covariance((A_1_OUT, "X"), (A_2_OUT, "X"))
        assert oc.variance(U_OUT) == pytest.approx(manual, rel=1e-9)

    @pytest.mark.parametrize("quad", ["Y", "x", "p", "Q", "", None])
    def test_unknown_quadrature_rejected(self, quad):
        # any quad but "X" was read as P: index 3, the P variance and the
        # X-P entry, each a plausible wrong number
        oc = OutputCovariance((A_M_OUT, A_1_OUT),
                              np.arange(16.0).reshape(4, 4))
        message = f"quadrature must be 'X' or 'P', got {quad!r}"
        for call in (lambda: oc.index(A_1_OUT, quad),
                     lambda: oc.variance(A_M_OUT, quad),
                     lambda: oc.covariance((A_M_OUT, "X"), (A_1_OUT, quad))):
            with pytest.raises(InvalidParams) as exc:
                call()
            assert str(exc.value) == message
        assert [oc.index(A_1_OUT, q) for q in "XP"] == [2, 3]

    def test_missing_modes_rejected(self):
        oc = OutputCovariance((A_M_OUT,), np.eye(2))
        with pytest.raises(MissingModes):
            dq = derived_quantities(reduced_from_ratios(1.0, 0.1))
            _collective_rows(oc.mode_labels, _collective_weights(
                *np.array([[dq.G1, dq.G2, dq.G]]).T), (W_OUT, U_OUT))


class TestPhysicality:
    def test_canonical_blocks_stay_physical(self, oracle_cache):
        # the mirror with both cavity outputs forms a canonically commuting
        # triple whose symplectic spectrum obeys the uncertainty bound; the
        # W/U pair is canonical only without damping, so at x > 0 its bound
        # is a consistency check, not a physicality statement
        for (r, x, n0, n) in ((0.5, 0.0, 0.0, 0.0), (1.0, 0.1, 0.0, 0.0),
                              (2.0, 0.1, 5.0, 100.0)):
            oc = oracle_cache.covariance(r, x, n0, n)
            triple = block(oc, (A_M_OUT, A_1_OUT, A_2_OUT))
            assert symplectic_eigenvalues(triple).min() >= 0.5 - 1e-9
            pair = block(oc, (W_OUT, U_OUT))
            assert symplectic_eigenvalues(pair).min() >= 0.5 - 1e-9

    def test_symplectic_eigenvalues_reference_values(self):
        vacuum = OutputCovariance((A_M_OUT,), 0.5 * np.eye(2))
        assert symplectic_eigenvalues(vacuum) == pytest.approx([0.5])
        thermal = OutputCovariance((A_M_OUT, A_1_OUT),
                                   np.diag([1.5, 1.5, 0.5, 0.5]))
        assert symplectic_eigenvalues(thermal) == pytest.approx([0.5, 1.5])
        with pytest.raises(InvalidParams):
            OutputCovariance((A_M_OUT,), np.eye(3))
