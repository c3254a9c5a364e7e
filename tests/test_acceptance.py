"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines.  Criterion 14 checks the damping-region corner of the collective
witness where that witness has one: at zero occupations its large-r plateau
``x^2 (1/2 + x)/(1+x)^2`` reaches 1/2 only at the root x* = 1.1915 of
``2x^3 - 2x - 1 = 0``, above fig4's window ``gamma/G <= 0.3``.  The check
compares the witness with the independent Heisenberg-picture construction
in ``heisenberg_reference.py`` and shows on it that fig3b's occupations
need the W with the mirror-bath term; see the README section on the
acceptance suite.
"""

import math

import numpy as np
import pytest

from _reference import (
    block,
    moment_set,
    oracle_point,
    symplectic_eigenvalues,
)
from conftest import ORACLE_GRID
from heisenberg_reference import pulse, witness_with_error
from steerkit import (
    ReducedParams,
    build_reduced_model,
    collective_steering_value,
    derived_quantities,
    output_block,
    reduced_from_ratios,
    single_steering_value,
    steering_product,
    threshold_r,
)
from steerkit.cli import PRESETS, run
from steerkit.closedform import _gain_fractions
from steerkit.dynamics import (
    A_1_OUT,
    A_2_OUT,
    A_M_OUT,
    U_OUT,
    U_TILDE_IN,
    W_OUT,
    mirror_output_phase,
    mode_cross_correlation,
    monte_carlo_output_covariance,
    output_kernels,
    propagate_output_covariance,
)
from steerkit.steering import noise_threshold

MC_SEED = 7
MC_TRAJECTORIES = 100_000


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_zero_damping_identity():
    worst = 0.0
    for r in (0.1, 0.5, 1.0, 2.0, 3.0):
        for n0 in (0.0, 0.5, 5.0, 100.0):
            got = collective_steering_value(r, 0.0, n0, 0.0)
            ref = (n0 + 0.5) / (2.0 * (n0 + 1.0) * math.expm1(2.0 * r) + 1.0)
            worst = max(worst, abs(got - ref) / ref)
    report(1, worst <= 1e-12,
           f"zero-damping witness identity, worst rel err {worst:.2e} "
           f"(tol 1e-12)")


def test_criterion_02_perfect_epr_limit():
    value = collective_steering_value(8.0, 0.0, 5.0, 0.0)
    report(2, value < 1e-6,
           f"witness at r=8, n0=5, no damping is {value:.3e} (< 1e-6)")


def test_criterion_03_pulse_area_threshold():
    worst = 0.0
    for n0 in (0.5, 5.0, 50.0):
        at_th = collective_steering_value(threshold_r(n0), 0.0, n0, 0.0)
        worst = max(worst, abs(at_th - 0.5))
    limit_err = abs(threshold_r(1e6) - 0.5 * math.log(2.0))
    report(3, worst <= 1e-9 and limit_err <= 1e-6,
           f"witness at threshold off by {worst:.2e} (tol 1e-9); hot-mirror "
           f"limit off ln2/2 by {limit_err:.2e} (tol 1e-6)")


def test_criterion_04_no_single_mode_steering_at_equal_couplings():
    worst = 1.0
    asym = 0.0
    for n0 in (0.0, 5.0):
        for x in (0.0, 0.1):
            f = (1.0 + x) / 2.0  # equal split of the total gain
            for r in np.linspace(0.1, 3.0, 16):
                e1 = single_steering_value(r, x, n0, 0.0, f)
                e2 = single_steering_value(r, x, n0, 0.0, f)
                worst = min(worst, e1)
                asym = max(asym, abs(e1 - e2))
    report(4, worst >= 0.5 - 1e-10 and asym == 0.0,
           f"equal-coupling single-mode witness min {worst:.12f} "
           f"(>= 1/2 - 1e-10), sides identical")


def test_criterion_05_nanoscale_device_feasibility():
    two_pi = 2.0 * math.pi
    kappa = two_pi * 5.0e8
    rp = ReducedParams(g1=two_pi * 40.7e6, g2=two_pi * 40.7e6, kappa=kappa,
                       Delta=kappa, gamma=two_pi * 3.5e4, n0=0.85, n=0.85,
                       tau=1.0e-7)
    dq = derived_quantities(rp)
    g_ok = abs(dq.G1 - two_pi * 1.66e6) / (two_pi * 1.66e6) <= 0.01
    ratio_ok = 1.0e-2 <= dq.gamma_over_G <= 1.1e-2
    report(5, g_ok and ratio_ok and dq.G1 == dq.G2,
           f"G1 = 2pi x {dq.G1 / two_pi / 1e6:.4f} MHz (within 1% of "
           f"2pi x 1.66 MHz), gamma/G = {dq.gamma_over_G:.4e} in "
           f"[1.0e-2, 1.1e-2]")


def test_criterion_06_bath_occupation_threshold():
    res = noise_threshold(0.1, 0.0)
    in_window = 500.0 <= res.value <= 700.0
    values = [noise_threshold(x, 0.0).value for x in (0.05, 0.1, 0.2)]
    decreasing = values[0] > values[1] > values[2]
    report(6, in_window and decreasing,
           f"threshold at damping 0.1 is n = {res.value:.1f} (in [500, 700]); "
           f"thresholds {[f'{v:.0f}' for v in values]} decrease with damping")


def _closed_form_reference(r, x, n0, n, ratio):
    ref = moment_set(r, x, n0, n, G1_over_G2=ratio)
    ref["E_mW"] = collective_steering_value(r, x, n0, n)
    ref["E_m1"] = single_steering_value(r, x, n0, n,
                                        _gain_fractions(x, ratio)[0])
    return ref


def _oracle_values(oc):
    return {
        "var_Xm_out": oc.variance(A_M_OUT),
        "var_X1_out": oc.variance(A_1_OUT),
        "var_X2_out": oc.variance(A_2_OUT),
        "var_XW_out": oc.variance(W_OUT),
        "cov_Xm_P1": oc.covariance((A_M_OUT, "X"), (A_1_OUT, "P")),
        "cov_Xm_P2": oc.covariance((A_M_OUT, "X"), (A_2_OUT, "P")),
        "cov_Xm_PW": oc.covariance((A_M_OUT, "X"), (W_OUT, "P")),
        "E_mW": steering_product(oc, A_M_OUT, W_OUT),
        "E_m1": steering_product(oc, A_M_OUT, A_1_OUT),
    }


def test_criterion_07_oracle_equivalence(oracle_cache):
    worst = 0.0
    where = None
    for (r, x, n0, n, ratio) in ORACLE_GRID:
        ref = _closed_form_reference(r, x, n0, n, ratio)
        got = _oracle_values(oracle_cache.covariance(r, x, n0, n, ratio))
        for key, rv in ref.items():
            rel = abs(got[key] - rv) / max(abs(rv), 1e-9)
            if rel > worst:
                worst, where = rel, (key, r, x, n0, n, ratio)
    report(7, worst <= 1e-6,
           f"closed forms vs propagated moments across "
           f"{len(ORACLE_GRID)} grid points: worst rel err {worst:.2e} "
           f"at {where} (tol 1e-6)")


def test_criterion_08_adiabatic_validity():
    rels = []
    x = 0.01
    for ratio in (5.0, 10.0, 20.0, 40.0):
        rp = reduced_from_ratios(1.0, x, kappa=(1.0 + x) * ratio ** 2)
        oc_full = oracle_point(rp, engine="full")
        oc_red = oracle_point(rp, engine="reduced")
        ref = oc_red.sigma
        mask = np.abs(ref) > 1e-6
        rels.append(float(np.max(np.abs(oc_full.sigma[mask] - ref[mask])
                                 / np.abs(ref[mask]))))
    decreasing = all(a > b for a, b in zip(rels[:-1], rels[1:]))
    report(8, rels[2] <= 0.05 and decreasing,
           f"full vs reduced discrepancies {[f'{v:.4f}' for v in rels]} for "
           f"kappa/g in (5, 10, 20, 40): monotone decrease, 5% met at 20")


@pytest.fixture(scope="module")
def mc_result():
    rp = reduced_from_ratios(1.0, 0.1)
    model = build_reduced_model(rp)
    kernels = output_kernels(rp, full=False)
    phase = mirror_output_phase(rp)
    det = propagate_output_covariance(model, kernels, rp.tau,
                                      terminal_phase=phase)
    mc = [monte_carlo_output_covariance(
        model, kernels, rp.tau, MC_TRAJECTORIES, MC_SEED,
        terminal_phase=phase) for _ in range(2)]
    return det, mc


def test_criterion_09_monte_carlo_consistency(mc_result):
    det, mc = mc_result
    se = np.where(mc[0].standard_errors > 0, mc[0].standard_errors, np.inf)
    maxdev = float((np.abs(mc[0].sigma - det.sigma) / se).max())
    identical = np.array_equal(mc[0].sigma, mc[1].sigma) and np.array_equal(
        mc[0].standard_errors, mc[1].standard_errors)
    report(9, maxdev < 3.0 and identical,
           f"{MC_TRAJECTORIES} trajectories, seed {MC_SEED}: worst deviation "
           f"{maxdev:.2f} standard errors (< 3); two runs at one seed "
           f"identical: {identical}")


def test_criterion_10_physicality(oracle_cache, mc_result):
    # The symplectic bound applies to canonically commuting mode sets.  The
    # mirror with the two cavity outputs is one.  The W/U pair is one only
    # without damping: for gamma > 0 the bath term in W makes [X_W, P_W]
    # differ from i (0.872i at r = 0.5, gamma/G = 0.1 in
    # heisenberg_reference.py), so on the damped grid points the bound on
    # that block is no physicality statement.  Sets mixing
    # an output with the input-side aliases obey exact linear constraints
    # (the conserved difference mode), so their joint matrices are singular
    # by construction and carry no uncertainty statement.
    worst = math.inf
    for (r, x, n0, n, ratio) in ORACLE_GRID:
        oc = oracle_cache.covariance(r, x, n0, n, ratio)
        for labels in ((A_M_OUT, A_1_OUT, A_2_OUT), (W_OUT, U_OUT),
                       (A_M_OUT,), (A_1_OUT,), (A_2_OUT,), (U_OUT,)):
            worst = min(worst,
                        float(symplectic_eigenvalues(block(oc, labels)).min()))
    # full-model covariance at one adiabatic point
    rp = reduced_from_ratios(1.0, 0.01, kappa=1.01 * 400.0)
    oc_full = oracle_point(rp, engine="full")
    worst = min(worst, float(symplectic_eigenvalues(block(
        oc_full, (A_M_OUT, A_1_OUT, A_2_OUT))).min()))
    det_ok = worst >= 0.5 - 1e-9

    det, mc = mc_result
    est = block(mc[0], (A_M_OUT, A_1_OUT, A_2_OUT))
    stat_floor = 5.0 * float(est.standard_errors.max())
    mc_min = float(symplectic_eigenvalues(est).min())
    mc_ok = mc_min >= 0.5 - stat_floor
    report(10, det_ok and mc_ok,
           f"symplectic eigenvalues >= 1/2 - 1e-9 on the mirror/cavity "
           f"blocks and the W/U block, the latter a physicality bound only "
           f"at gamma = 0 (worst {worst:.12f}); Monte Carlo estimate within "
           f"statistical floor ({mc_min:.4f} >= 1/2 - {stat_floor:.4f})")


def test_criterion_11_conserved_difference_mode(oracle_cache):
    worst = 0.0
    for (r, x, n0, n, ratio) in ORACLE_GRID:
        oc = oracle_cache.covariance(r, x, n0, n, ratio)
        for quad in ("X", "P"):
            worst = max(worst, abs(oc.variance(U_OUT, quad)
                                   - oc.variance(U_TILDE_IN, quad)))
    report(11, worst <= 1e-8,
           f"antisymmetric collective mode is a constant of motion: "
           f"worst |Var U_out - Var U_in| = {worst:.2e} (tol 1e-8)")


def test_criterion_12_cross_correlation():
    ok = True
    details = []
    for x in (0.0, 0.1):
        rp = reduced_from_ratios(1.0, x)
        model = build_reduced_model(rp)
        kernels = output_kernels(rp, full=False)
        mc = monte_carlo_output_covariance(
            model, kernels, rp.tau, MC_TRAJECTORIES, MC_SEED,
            terminal_phase=mirror_output_phase(rp))
        value, se = mode_cross_correlation(mc, A_1_OUT, A_2_OUT)
        theory = output_block(1.0, x, 0.0, 0.0)[2, 4]
        dev = abs(abs(value) - theory) / se
        ok = ok and dev < 3.0
        details.append(f"damping {x}: {dev:.2f} se")
    zero = output_block(0.0, 0.1, 0.0, 0.0)[2, 4]
    ok = ok and zero == 0.0
    report(12, ok,
           f"output coherence matches Monte Carlo ({', '.join(details)}; "
           f"< 3 se) and vanishes at zero pulse area")


def _run_preset_in_memory(name: str):
    from steerkit.cli import Scenario
    scenario = PRESETS[name]()
    return run(Scenario(**{**scenario.__dict__, "output": None}))


def test_criterion_13_thermal_robustness_curves():
    rec_a = _run_preset_in_memory("fig3a")
    rs = [p["r"] for p in rec_a.points]
    ok = True
    notes = []
    for label, n0 in (("n0=0,n=0", 0.0), ("n0=0.5,n=0.5", 0.5),
                      ("n0=5,n=5", 5.0)):
        col = f"E[{label}]"
        ok = ok and rec_a.points[0][col] == pytest.approx(n0 + 0.5, rel=1e-12)
    cold = [p["E[n0=0,n=0]"] for p in rec_a.points]
    ok = ok and all(e < 0.5 for e, r in zip(cold[1:], rs[1:]))
    notes.append("cold curve below 1/2 on (0, 3]")
    warm = [p["E[n0=5,n=5]"] for p in rec_a.points]
    crossing = next(r for r, e in zip(rs, warm) if e < 0.5)
    ok = ok and crossing > 0.303
    notes.append(f"warm curve crosses after r = {crossing:.3f} (> 0.303)")

    rec_b = _run_preset_in_memory("fig3b")
    hot = [p["E[n=1000]"] for p in rec_b.points]
    mild = [p["E[n=100]"] for p in rec_b.points]
    ok = ok and max(hot[1:]) > 0.5
    ok = ok and max(mild[1:]) < 0.5
    notes.append("n=1000 curve loses steering somewhere in (0, 10], "
                 "n=100 does not")
    report(13, ok, "; ".join(notes))


def test_criterion_14_damping_region_corner():
    # Where the collective witness loses steering at zero occupations and
    # jointly large (r, gamma/G).  The corner cannot lie inside fig4's
    # window, e.g. at (3, 0.3), for reasons fixed outside this function's
    # output:
    # - PAPER.md's threshold r_th = ln[(2 n0+1)/(n0+1)]/2 (criterion 03) is
    #   where the optimal-gain conditional variance crosses 1/2; a unit-gain
    #   EPR variance crosses elsewhere.  The optimal gain is the minimum over
    #   linear estimators; any other gain or angle gives a larger value.
    # - fig3b's occupations n = 100, 600, 1000 at gamma/G = 0.1, with
    #   criterion 13's "n = 100 steers, n = 1000 does not", fit the W with
    #   the mirror-bath term, not a W made of the cavity outputs alone,
    #   which gives E > 1/2 at n = 100 (checked below on the reference).
    # - With that W the large-r plateau x^2 (1/2 + x)/(1+x)^2 reaches 1/2
    #   only at the root x* = 1.19 of 2x^3 - 2x - 1 = 0, so the corner lies
    #   above x*: it is checked at gamma/G = 2, and its absence along fig4's
    #   top edge gamma/G = 0.3.
    # The witness must agree with the independent Heisenberg-picture
    # construction within the construction's own step-halving change, and
    # that change must itself be small.
    roots = np.roots([2.0, 0.0, -2.0, -1.0])
    x_star = float(max(roots[np.abs(roots.imag) < 1e-12].real))
    plateau = collective_steering_value(40.0, x_star, 0.0, 0.0)
    plateau_ok = 0.3 < x_star < 2.0 and abs(plateau - 0.5) <= 1e-9

    points = [(r, x, 0.0) for r in (0.5, 3.0) for x in (0.3, 2.0)]
    points.append((0.5, 0.1, 100.0))
    e = {p: collective_steering_value(p[0], p[1], 0.0, p[2]) for p in points}
    corner_ok = e[0.5, 2.0, 0.0] < 0.5 < e[3.0, 2.0, 0.0]

    fig4 = PRESETS["fig4"]()
    edge = fig4.sweep2.stop
    edge_max = max(collective_steering_value(r, edge, 0.0, 0.0)
                   for r in fig4.sweep.values()[1:])
    edge_ok = edge_max < 0.5

    worst = 0.0
    converged = True
    for p, value in e.items():
        reference, halving = witness_with_error(*p)
        converged = converged and halving <= 1e-5 * reference
        worst = max(worst, abs(value - reference) / halving)
    ref_ok = converged and worst <= 1.0

    cav = pulse(0.5, 0.1, 4000, n=100.0)
    e_cav = cav.witness(cav.xw_cav, cav.pw_cav)
    w_ok = e[0.5, 0.1, 100.0] < 0.5 < e_cav

    report(14, plateau_ok and corner_ok and edge_ok and ref_ok and w_ok,
           f"damping corner above x* = {x_star:.4f} (plateau "
           f"{plateau:.12f}): E(0.5, 2) = {e[0.5, 2.0, 0.0]:.4f} < 1/2 < "
           f"E(3, 2) = {e[3.0, 2.0, 0.0]:.4f}; max E along gamma/G = "
           f"{edge} on fig4's r grid = {edge_max:.4f} < 1/2; Heisenberg "
           f"reference agrees within {worst:.2f} x its step-halving change "
           f"(<= 1, change <= 1e-5 relative: {converged}); at gamma/G = 0.1, "
           f"n = 100, r = 0.5: E = {e[0.5, 0.1, 100.0]:.4f} < 1/2 < "
           f"cavity-only W {e_cav:.2f}")
