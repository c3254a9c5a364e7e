"""Stochastic trajectory estimates against deterministic propagation."""

import math
import tracemalloc

import numpy as np
import pytest

from steerkit import build_reduced_model, reduced_from_ratios
from steerkit.dynamics import (
    A_1_OUT,
    A_M_OUT,
    _Assembler,
    _noise_factor,
    _step_map,
    mirror_output_phase,
    mode_cross_correlation,
    monte_carlo_output_covariance,
    output_kernels,
    propagate_output_covariance,
)
from steerkit.errors import InsufficientTrajectories, InvalidParams


def mc_setup(r=1.0, x=0.1, n0=0.0, n=0.0, ratio=1.0):
    rp = reduced_from_ratios(r, x, G1_over_G2=ratio, n0=n0, n=n)
    model = build_reduced_model(rp)
    kernels = output_kernels(rp, full=False)
    phase = mirror_output_phase(rp)
    return rp, model, kernels, phase


class TestMonteCarlo:
    def test_near_zero_coupling_reproduces_input_states(self):
        rp, model, kernels, phase = mc_setup(r=1e-4, x=0.0, n0=2.0)
        mc = monte_carlo_output_covariance(model, kernels, rp.tau, 20_000, 7,
                                           terminal_phase=phase)
        se = mc.standard_errors
        i = mc.index(A_M_OUT)
        assert abs(mc.sigma[i, i] - 2.5) < 3.0 * se[i, i]
        j = mc.index(A_1_OUT)
        assert abs(mc.sigma[j, j] - 0.5) < 3.0 * se[j, j]

    def test_matches_deterministic_within_errors(self):
        rp, model, kernels, phase = mc_setup()
        mc = monte_carlo_output_covariance(model, kernels, rp.tau, 20_000, 11,
                                           terminal_phase=phase)
        det = propagate_output_covariance(model, kernels, rp.tau, 1e-11,
                                          terminal_phase=phase)
        se = np.where(mc.standard_errors > 0, mc.standard_errors, np.inf)
        dev = np.abs(mc.sigma - det.sigma) / se
        assert dev.max() < 4.0

    def test_step_count_does_not_bias_the_estimate(self):
        # per-step transition maps are exact, so halving the step only
        # re-draws noise; both runs must agree with the deterministic result
        rp, model, kernels, phase = mc_setup()
        det = propagate_output_covariance(model, kernels, rp.tau, 1e-11,
                                          terminal_phase=phase)
        for n_steps in (128, 256):
            mc = monte_carlo_output_covariance(
                model, kernels, rp.tau, 10_000, 13, n_steps=n_steps,
                terminal_phase=phase)
            se = np.where(mc.standard_errors > 0, mc.standard_errors, np.inf)
            assert (np.abs(mc.sigma - det.sigma) / se).max() < 4.5

    def test_bit_identical_across_thread_counts(self):
        rp, model, kernels, phase = mc_setup()
        runs = [
            monte_carlo_output_covariance(model, kernels, rp.tau, 8_192, 42,
                                          threads=threads,
                                          terminal_phase=phase)
            for threads in (1, 3)
        ]
        assert np.array_equal(runs[0].sigma, runs[1].sigma)
        assert np.array_equal(runs[0].standard_errors,
                              runs[1].standard_errors)

    def test_partial_last_batch_is_bit_identical_across_thread_counts(self):
        # 1300 = 2 * 512 + 276: the last batch is partial
        rp, model, kernels, phase = mc_setup(x=0.2, n0=1.0, n=3.0)
        runs = [monte_carlo_output_covariance(model, kernels, rp.tau, 1_300,
                                              9, threads=threads,
                                              terminal_phase=phase)
                for threads in (1, 2, 3)]
        for other in runs[1:]:
            assert np.array_equal(runs[0].sigma, other.sigma)
            assert np.array_equal(runs[0].standard_errors,
                                  other.standard_errors)

    def test_noise_buffer_does_not_grow_with_the_step_count(self):
        # one step's normals are drawn at a time; an (n_steps, n, batch)
        # noise array would take 1024 * 12 * 512 * 8 B = 50 MB here
        rp, model, kernels, phase = mc_setup()
        tracemalloc.start()
        try:
            monte_carlo_output_covariance(model, kernels, rp.tau, 1_000, 3,
                                          n_steps=1024, terminal_phase=phase)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_seed_changes_the_sample(self):
        rp, model, kernels, phase = mc_setup()
        a = monte_carlo_output_covariance(model, kernels, rp.tau, 2_000, 1,
                                          terminal_phase=phase)
        b = monte_carlo_output_covariance(model, kernels, rp.tau, 2_000, 2,
                                          terminal_phase=phase)
        assert not np.array_equal(a.sigma, b.sigma)

    def test_rejects_small_trajectory_counts(self):
        rp, model, kernels, phase = mc_setup()
        with pytest.raises(InsufficientTrajectories):
            monte_carlo_output_covariance(model, kernels, rp.tau, 999, 1)

    @pytest.mark.parametrize("step_args", [{"n_steps": 0},
                                           {"batch_size": 0},
                                           {"threads": 0},
                                           {"threads": -3}])
    def test_rejects_empty_steps_and_batches(self, step_args):
        rp, model, kernels, phase = mc_setup()
        with pytest.raises(InvalidParams):
            monte_carlo_output_covariance(model, kernels, rp.tau, 1_000, 1,
                                          **step_args)

    def test_rejects_unreachable_error_bound(self):
        rp, model, kernels, phase = mc_setup()
        with pytest.raises(InsufficientTrajectories):
            monte_carlo_output_covariance(model, kernels, rp.tau, 1_000, 1,
                                          se_bound=1e-9)

    def test_cross_correlation_estimate(self):
        from steerkit import cross_correlation, derived_from_ratios
        rp, model, kernels, phase = mc_setup()
        mc = monte_carlo_output_covariance(model, kernels, rp.tau, 20_000, 5,
                                           terminal_phase=phase)
        value, se = mode_cross_correlation(mc, "A_1_out", "A_2_out")
        expect = cross_correlation(derived_from_ratios(1.0, 0.1), 0.0, 0.0)
        assert se is not None
        assert abs(abs(value) - expect) < 3.5 * se
        assert abs(value.imag) < 6.0 * se  # coherence is real positive here


class TestNoiseFactor:
    @pytest.mark.parametrize("r, x, n0, n", [
        (1e-4, 0.0, 0.0, 0.0), (0.3, 0.1, 1.0, 3.0), (1.0, 0.1, 0.0, 0.0),
        (2.0, 0.3, 5.0, 100.0)])
    @pytest.mark.parametrize("n_steps", [1, 256])
    def test_factor_reproduces_the_step_noise(self, r, x, n0, n, n_steps):
        rp, model, kernels, phase = mc_setup(r=r, x=x, n0=n0, n=n,
                                             ratio=1.5)
        asm = _Assembler(model, kernels, rp.tau, phase)
        _, q = _step_map(asm.drift, asm.diffusion, rp.tau / n_steps)
        factor = _noise_factor(q)
        assert factor.shape[0] == q.shape[0]
        assert factor.shape[1] <= q.shape[0]
        err = np.abs(factor @ factor.T - q).max()
        assert err <= 64 * np.finfo(float).eps * np.linalg.norm(q, 2)

    def test_factor_of_rank_deficient_covariance_drops_null_directions(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((6, 3))
        q = g @ g.T  # rank 3
        factor = _noise_factor(q)
        assert factor.shape == (6, 3)
        np.testing.assert_allclose(factor @ factor.T, q, rtol=0.0,
                                   atol=64 * np.finfo(float).eps
                                   * np.linalg.norm(q, 2))
