"""Model builders, kernels, deterministic propagation, collective modes."""

import cmath
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp, trapezoid
from scipy.linalg import expm

from steerkit import (
    ReducedParams,
    TemporalKernel,
    build_full_model,
    build_reduced_model,
    derived_quantities,
    propagate_output_covariance,
    reduced_from_ratios,
)
from steerkit.dynamics import (
    A_1_OUT,
    A_2_OUT,
    A_M_OUT,
    B_TILDE,
    U_OUT,
    U_TILDE_IN,
    W_OUT,
    OutputCovariance,
    collective_output_kernels,
    mirror_output_phase,
    output_covariance,
    output_covariances,
    output_kernels,
    _collective_rows,
    _Stack,
    _step_maps,
)
from steerkit.errors import (
    GainNotPositive,
    IntegratorFailure,
    InvalidParams,
    MissingModes,
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
    chan_index = {ch.name: i for i, ch in enumerate(model.noise_channels)}
    conj = np.diag([1.0, -1.0])

    def matrices(t):
        M = np.zeros((n, n))
        B = np.zeros((n, 2 * len(chan_index)))
        M[:n_sys, :n_sys] = model.drift
        B[:n_sys] = model.noise_input
        for k, kern in enumerate(kernels):
            row = n_sys + 2 * k
            for term in kern.terms:
                c = term.amplitude * cmath.exp(term.rate * t)
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

    sig = model.noise_intensities

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
                term = kern.terms[0]
                env2 = np.abs(term.amplitude
                              * np.exp(term.rate * ts)) ** 2
                norm = math.sqrt(trapezoid(env2, ts))
                assert norm == pytest.approx(1.0, abs=1e-8), kern.label

    def test_output_kernels_grow(self):
        rp = reduced_from_ratios(1.0, 0.0)
        for full in (False, True):
            for kern in output_kernels(rp, full=full):
                assert kern.terms[0].rate.real > 0.0, kern.label


class TestModelBuilders:
    def test_uncoupled_full_model_is_block_diagonal(self):
        rp_args = dict(kappa=10.0, Delta=3.0, gamma=0.5, n0=0.0, n=0.0,
                       tau=1.0)
        from steerkit.model import ReducedParams
        model = build_full_model(ReducedParams(g1=0.0, g2=0.0, **rp_args))
        off = model.drift.copy()
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
        ev = np.linalg.eigvals(build_full_model(rp).drift)
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
        ref = lyapunov_endpoint(model.drift, model.diffusion, S0, rp.tau)
        oc = propagate_output_covariance(
            model, output_kernels(rp, full=True), rp.tau)
        assert oc.variance(A_M_OUT) == pytest.approx(ref[4, 4], rel=1e-8)

    def test_reduced_noise_intensities(self):
        rp = reduced_from_ratios(1.0, 0.1, n0=2.0, n=7.0)
        model = build_reduced_model(rp)
        assert [ch.occupation for ch in model.noise_channels] == [0.0, 0.0, 7.0]
        dq = derived_quantities(rp)
        D = model.diffusion
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
        from steerkit import moment_set
        oc = oracle_cache.covariance(1.0, 0.1, 0.0, 100.0)
        ms = moment_set(1.0, 0.1, 0.0, 100.0)
        assert oc.variance(A_M_OUT) == pytest.approx(ms.var_Xm_out, rel=1e-6)

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


    def test_kernel_with_two_rates(self):
        # a kernel mixing the cavity-output rate G + i delta with the bath
        # rate G - i delta needs two accumulator pairs
        rp = reduced_from_ratios(1.5, 0.1, G1_over_G2=1.5, n0=0.5, n=5.0)
        a1, bt = output_kernels(rp, full=False, which=(A_1_OUT, B_TILDE))
        assert a1.terms[0].rate != bt.terms[0].rate
        mixed = TemporalKernel("mixed", a1.terms + bt.terms)
        model = build_reduced_model(rp)
        kernels = [a1, mixed]
        phase = mirror_output_phase(rp)
        ref = time_dependent_reference(model, kernels, rp.tau, phase)
        got = propagate_output_covariance(model, kernels, rp.tau,
                                          terminal_phase=phase).sigma
        d = np.sqrt(np.diag(ref))
        assert (np.abs(got - ref) / np.outer(d, d)).max() <= 1e-9


class TestStepMap:
    @pytest.mark.parametrize("full, h", [(False, 0.01), (False, 0.3),
                                         (False, 2.5), (True, 0.002),
                                         (True, 0.1)])
    def test_matches_van_loan_block_exponential(self, full, h):
        rp = reduced_from_ratios(1.0, 0.1, G1_over_G2=1.5, n0=0.5, n=5.0)
        build = build_full_model if full else build_reduced_model
        st = _Stack([build(rp)], [output_kernels(rp, full=full)], [rp.tau],
                    [0.0])
        A, V = st.drift[0], st.diffusion[0]
        n = A.shape[0]
        block = np.block([[-A, V], [np.zeros((n, n)), A.T]])
        F = expm(block * h)
        phi_ref = F[n:, n:].T
        q_ref = phi_ref @ F[:n, n:]
        phi, q, failures = _step_maps(st.drift, st.diffusion, [h])
        assert not failures
        assert np.abs(phi[0] - phi_ref).max() <= 1e-12 * np.abs(phi_ref).max()
        assert np.abs(q[0] - q_ref).max() <= 1e-12 * np.abs(q_ref).max()

    def test_stacked_steps_match_one_at_a_time(self):
        # one stack mixes 0, 3 and 7 doublings; each slice takes its own
        # and matches its one-slice map bit for bit
        rp = reduced_from_ratios(1.0, 0.1, G1_over_G2=1.5, n0=0.5, n=5.0)
        st = _Stack([build_reduced_model(rp)], [output_kernels(rp, full=False)],
                    [rp.tau], [0.0])
        hs = [0.01, 0.3, 2.5, 40.0, 0.05]
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
        stacked = output_covariances(sweep, engine=engine)
        for rp, oc in zip(sweep, stacked):
            alone = output_covariance(rp, engine=engine)
            assert oc.mode_labels == alone.mode_labels
            assert oc.sigma.tobytes() == alone.sigma.tobytes()

    def test_kernel_subset_keeps_its_entries(self):
        subset = (A_1_OUT, A_2_OUT, B_TILDE)
        sweep = self.sweep()
        for full_set, part in zip(output_covariances(sweep),
                                  output_covariances(sweep, which=subset)):
            kept = (A_M_OUT,) + subset + (W_OUT, U_OUT)
            assert part.mode_labels == kept
            assert part.sigma.tobytes() == full_set.block(kept).sigma.tobytes()

    def test_failed_points_keep_their_errors(self):
        good = self.sweep()[6]
        bad_gain = ReducedParams(kappa=1.0, Delta=0.0, g1=0.1, g2=0.1,
                                 gamma=1.0, tau=1.0, n0=0.0, n=0.0)
        huge = reduced_from_ratios(360.0, 0.1)
        got = output_covariances([good, bad_gain, huge, good])
        for rp, res in zip((bad_gain, huge), got[1:3]):
            with pytest.raises(type(res)) as alone:
                output_covariance(rp)
            assert str(alone.value) == str(res)
        assert isinstance(got[1], GainNotPositive)
        assert isinstance(got[2], IntegratorFailure)
        solo = output_covariance(good).sigma.tobytes()
        assert got[0].sigma.tobytes() == got[3].sigma.tobytes() == solo


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
        transformed = output_covariance(rp)
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

    def test_missing_modes_rejected(self):
        oc = OutputCovariance((A_M_OUT,), np.eye(2))
        with pytest.raises(MissingModes):
            _collective_rows(oc.mode_labels, [derived_quantities(
                reduced_from_ratios(1.0, 0.1))], (W_OUT, U_OUT))


class TestPhysicality:
    def test_canonical_blocks_stay_physical(self, oracle_cache):
        # the mirror with both cavity outputs forms a canonically commuting
        # triple whose symplectic spectrum obeys the uncertainty bound; the
        # W/U pair is canonical only without damping, so at x > 0 its bound
        # is a consistency check, not a physicality statement
        for (r, x, n0, n) in ((0.5, 0.0, 0.0, 0.0), (1.0, 0.1, 0.0, 0.0),
                              (2.0, 0.1, 5.0, 100.0)):
            oc = oracle_cache.covariance(r, x, n0, n)
            triple = oc.block((A_M_OUT, A_1_OUT, A_2_OUT))
            assert triple.symplectic_eigenvalues().min() >= 0.5 - 1e-9
            pair = oc.block((W_OUT, U_OUT))
            assert pair.symplectic_eigenvalues().min() >= 0.5 - 1e-9

    def test_symplectic_eigenvalues_reference_values(self):
        vacuum = OutputCovariance((A_M_OUT,), 0.5 * np.eye(2))
        assert vacuum.symplectic_eigenvalues() == pytest.approx([0.5])
        thermal = OutputCovariance((A_M_OUT, A_1_OUT),
                                   np.diag([1.5, 1.5, 0.5, 0.5]))
        assert thermal.symplectic_eigenvalues() == pytest.approx([0.5, 1.5])
        with pytest.raises(InvalidParams):
            OutputCovariance((A_M_OUT,), np.eye(3))
