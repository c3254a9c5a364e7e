"""Working point, reduction, and derived quantities."""

import dataclasses
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import (
    PhysicalParams,
    ReducedParams,
    WorkingPoint,
    derive_working_point,
    derived_quantities,
    model,
    reduce,
    reduced_from_ratios,
)
from steerkit.errors import (
    AsymmetricDamping,
    GainNotPositive,
    InvalidParams,
    NonConvergence,
    OffResonance,
    RegimeWarning,
)
from steerkit.model import working_point_residuals

TWO_PI = 2.0 * math.pi


def make_physical(**overrides) -> PhysicalParams:
    base = dict(
        omega1=TWO_PI * (2.0e14 + 5.0e8),
        omega2=TWO_PI * (2.0e14 - 5.0e8),
        omega_m=TWO_PI * 3.68e9,
        omega_L=TWO_PI * (2.0e14 + 3.68e9),
        kappa1=TWO_PI * 5.0e8,
        kappa2=TWO_PI * 5.0e8,
        gamma=TWO_PI * 3.5e4,
        g01=TWO_PI * 1.0e3,
        g02=TWO_PI * 1.0e3,
        E1=TWO_PI * 1.0e10,
        E2=TWO_PI * 1.0e10,
        n0=0.0,
        n=0.0,
        tau=1.0e-7,
    )
    base.update(overrides)
    return PhysicalParams(**base)


class TestWorkingPoint:
    def test_undriven_cavity(self):
        p = make_physical(E1=0.0, E2=0.0)
        wp = derive_working_point(p)
        assert wp.alpha1 == 0.0 and wp.alpha2 == 0.0
        assert wp.x_s == 0.0 and wp.p_s == 0.0
        assert wp.Delta1 == pytest.approx(p.omega1 - p.omega_L)
        assert wp.Delta2 == pytest.approx(p.omega2 - p.omega_L)

    def test_no_optomechanical_coupling(self):
        p = make_physical(g01=0.0, g02=0.0, E2=0.0)
        wp = derive_working_point(p)
        d01 = p.omega1 - p.omega_L
        assert wp.x_s == 0.0
        assert wp.alpha1 == pytest.approx(p.E1 / (p.kappa1 + 1j * d01))
        assert wp.g1 == 0.0

    def test_driven_fixed_point_matches_bisection_oracle(self):
        p = make_physical(g01=TWO_PI * 1.0e5, E1=TWO_PI * 1.0e11, E2=0.0)
        tol = 1e-10
        wp = derive_working_point(p, tol=tol)
        assert abs(wp.x_s) > 0.0
        res = working_point_residuals(p, wp)
        assert max(res) < 1e-6  # residuals in the (large) rad/s scale

        # independent oracle: bisect the scalar self-consistency equation
        def g(x):
            d1 = p.omega1 - p.omega_L + math.sqrt(2) * p.g01 * x
            a1 = p.E1 / abs(p.kappa1 + 1j * d1)
            return -math.sqrt(2) * p.g01 * a1 ** 2 / p.omega_m - x

        lo = -math.sqrt(2) * p.g01 * (p.E1 / p.kappa1) ** 2 / p.omega_m
        hi = 0.0
        assert g(lo) * g(hi) <= 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(lo) * g(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        assert wp.x_s == pytest.approx(0.5 * (lo + hi), abs=1e-8, rel=1e-8)

    def test_nonconvergence_with_tiny_budget(self, monkeypatch):
        monkeypatch.setattr(model, "MAX_ITER", 1)
        p = make_physical(g01=TWO_PI * 1.0e5, E1=TWO_PI * 1.0e11)
        with pytest.raises(NonConvergence, match="after 1 iterations"):
            derive_working_point(p, tol=1e-15)

    def test_invalid_inputs(self):
        # a physical parameter set refuses a bad value when built, directly
        # or through dataclasses.replace, which builds anew
        bad = [*((name, value, f"{name} must be > 0, got {value!r}")
                 for name in ("omega1", "omega2", "omega_m", "omega_L",
                              "kappa1", "kappa2", "gamma", "tau")
                 for value in (0.0, -1.0, math.nan)),
               *((name, value, f"{name} must be >= 0, got {value!r}")
                 for name in ("g01", "g02", "E1", "E2", "n0", "n")
                 for value in (-0.5, math.nan))]
        for name, value, message in bad:
            with pytest.raises(InvalidParams) as built:
                make_physical(**{name: value})
            with pytest.raises(InvalidParams) as replaced:
                dataclasses.replace(make_physical(), **{name: value})
            assert str(built.value) == str(replaced.value) == message
        with pytest.raises(InvalidParams):
            derive_working_point(make_physical(), tol=0.0)


class TestReduce:
    def test_exact_resonance_accepted(self):
        p = make_physical()
        wp = derive_working_point(p)
        rp = reduce(p, wp)
        assert rp.Delta == pytest.approx(0.5 * (p.omega1 - p.omega2))
        assert rp.kappa == pytest.approx(p.kappa1)

    def test_off_resonance_rejected(self):
        p = make_physical(omega_L=TWO_PI * 2.0e14)  # no sideband offset
        wp = derive_working_point(p)
        with pytest.raises(OffResonance):
            reduce(p, wp)

    def test_asymmetric_damping_rejected(self):
        p = make_physical(kappa2=TWO_PI * 5.2e8)
        wp = derive_working_point(p)
        with pytest.raises(AsymmetricDamping):
            reduce(p, wp)

    def test_nanoscale_device_passes_without_warnings(self):
        # g/2pi = 40.7 MHz, kappa/2pi = 500 MHz, omega_m/2pi = 3.68 GHz:
        # ratios 0.081 and 0.136 sit inside the default 0.2 thresholds
        p = make_physical()
        g = TWO_PI * 40.7e6
        wp = WorkingPoint(alpha1=1.0, alpha2=1.0, x_s=0.0, p_s=0.0,
                          Delta1=p.kappa1, Delta2=-p.kappa1, g1=g, g2=g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rp = reduce(p, wp)
        assert rp.g1 / rp.kappa == pytest.approx(40.7 / 500.0, rel=1e-12)
        assert rp.kappa / p.omega_m == pytest.approx(0.5 / 3.68, rel=1e-12)

    def test_regime_warning_fires_for_strong_coupling(self):
        p = make_physical()
        g = 0.3 * p.kappa1
        wp = WorkingPoint(alpha1=1.0, alpha2=1.0, x_s=0.0, p_s=0.0,
                          Delta1=p.kappa1, Delta2=-p.kappa1, g1=g, g2=g)
        with pytest.warns(RegimeWarning):
            reduce(p, wp)


class TestDerivedQuantities:
    def chan11_reduced(self, tau=1.0e-7) -> ReducedParams:
        kappa = TWO_PI * 5.0e8
        return ReducedParams(
            g1=TWO_PI * 40.7e6, g2=TWO_PI * 40.7e6, kappa=kappa, Delta=kappa,
            gamma=TWO_PI * 3.5e4, n0=0.85, n=0.85, tau=tau)

    def test_gain_rates_for_nanoscale_device(self):
        dq = derived_quantities(self.chan11_reduced())
        assert dq.G1 == dq.G2
        assert dq.G1 == pytest.approx(TWO_PI * 1.66e6, rel=0.01)
        assert 1.0e-2 <= dq.gamma_over_G <= 1.1e-2

    def test_phase_is_quarter_pi_at_matched_detuning(self):
        dq = derived_quantities(self.chan11_reduced())
        assert dq.phi == pytest.approx(math.pi / 4, rel=1e-12)

    def test_equal_couplings_give_zero_rotation(self):
        dq = derived_quantities(self.chan11_reduced())
        assert dq.delta == 0.0

    @pytest.mark.parametrize("name, value, message", [
        ("kappa", 0.0, "kappa must be > 0, got 0.0"),
        ("gamma", -0.1, "gamma must be >= 0, got -0.1"),
        ("tau", 0.0, "tau must be > 0, got 0.0"),
        *((name, math.nan, f"{name} must be >= 0, got nan")
          for name in ("g1", "g2", "n0", "n")),
        ("Delta", math.inf, "Delta must be finite, got inf")])
    def test_invalid_parameters_are_refused_when_built(self, name, value,
                                                       message):
        # directly, or through dataclasses.replace, which builds anew
        rp = self.chan11_reduced()
        with pytest.raises(InvalidParams) as built:
            ReducedParams(**{**vars(rp), name: value})
        with pytest.raises(InvalidParams) as replaced:
            dataclasses.replace(rp, **{name: value})
        assert str(built.value) == str(replaced.value) == message

    def test_gain_must_be_positive(self):
        rp = ReducedParams(g1=1.0, g2=1.0, kappa=100.0, Delta=0.0,
                           gamma=1.0, n0=0.0, n=0.0, tau=1.0)
        with pytest.raises(GainNotPositive):
            derived_quantities(rp)

    @pytest.mark.parametrize("rates", [
        {"kappa": 1e200}, {"g1": 1e200}, {"g1": 1e150, "kappa": 1e10},
        {"kappa": 1e-200, "Delta": 0.0}],
        ids=["kappa-squared", "g-squared", "gain-product", "kappa-underflow"])
    def test_rates_past_the_float_range_are_refused(self, rates):
        rp = ReducedParams(**{"g1": 1.0, "g2": 1.0, "kappa": 100.0,
                              "Delta": 0.0, "gamma": 0.0, "n0": 0.0,
                              "n": 0.0, "tau": 1.0, **rates})
        with pytest.raises(InvalidParams, match="float range"):
            derived_quantities(rp)

    @settings(max_examples=100, deadline=None)
    @given(
        g1=st.floats(0.1, 50.0),
        g2=st.floats(0.1, 50.0),
        kappa=st.floats(10.0, 5000.0),
        Delta=st.floats(-5000.0, 5000.0),
        scale=st.floats(1e-6, 1e6),
    )
    def test_scale_consistency(self, g1, g2, kappa, Delta, scale):
        # multiplying all rates by c and dividing tau by c is a pure change
        # of time units: r, phi, gamma/G and G1/G2 are invariant
        gamma = 0.1 * (g1 ** 2 + g2 ** 2) * kappa / (kappa ** 2 + Delta ** 2)
        tau = 1.0 / kappa
        rp = ReducedParams(g1=g1, g2=g2, kappa=kappa, Delta=Delta,
                           gamma=gamma, n0=0.0, n=0.0, tau=tau)
        rp_scaled = ReducedParams(
            g1=g1 * scale, g2=g2 * scale, kappa=kappa * scale,
            Delta=Delta * scale, gamma=gamma * scale, n0=0.0, n=0.0,
            tau=tau / scale)
        dq = derived_quantities(rp)
        dqs = derived_quantities(rp_scaled)
        assert dqs.r == pytest.approx(dq.r, rel=1e-12)
        assert dqs.phi == pytest.approx(dq.phi, rel=1e-12, abs=1e-15)
        assert dqs.gamma_over_G == pytest.approx(dq.gamma_over_G, rel=1e-9)
        assert dqs.G1 / dqs.G2 == pytest.approx(dq.G1 / dq.G2, rel=1e-12)


class TestRatioConstructors:
    def test_targets_hit_exactly(self):
        rp = reduced_from_ratios(1.5, 0.1, G1_over_G2=2.0, n0=0.5, n=7.0)
        dq = derived_quantities(rp)
        assert dq.G == pytest.approx(1.0, rel=1e-12)
        assert dq.r == pytest.approx(1.5, rel=1e-12)
        assert dq.gamma_over_G == pytest.approx(0.1, rel=1e-10, abs=1e-12)
        assert dq.G1 / dq.G2 == pytest.approx(2.0, rel=1e-12)

    def test_rejects_bad_ratios(self):
        with pytest.raises(InvalidParams):
            reduced_from_ratios(-1.0, 0.1)
        with pytest.raises(InvalidParams):
            reduced_from_ratios(1.0, -0.1)
        # tau = r, so a pulse area of 0 or NaN makes no ReducedParams: its
        # constructor refuses them, as it refuses a negative occupation
        for args, knobs, message in [
                ((0.0, 0.1), {}, "tau must be > 0, got 0.0"),
                ((math.nan, 0.1), {}, "tau must be > 0, got nan"),
                ((1.0, math.nan), {}, "gamma must be >= 0, got nan"),
                ((1.0, 0.1), {"n0": -0.5}, "n0 must be >= 0, got -0.5"),
                ((1.0, 0.1), {"n": -1.0}, "n must be >= 0, got -1.0")]:
            with pytest.raises(InvalidParams) as exc:
                reduced_from_ratios(*args, **knobs)
            assert str(exc.value) == message
        for ratio in (-1.0, math.nan):
            with pytest.raises(InvalidParams, match=f"G1_over_G2 must be "
                                                    f">= 0, got {ratio!r}"):
                reduced_from_ratios(1.0, 0.1, G1_over_G2=ratio)
        # G1/G2 = 0 is g1 = 0, the mirror image of G1/G2 = inf
        zero, inf = (reduced_from_ratios(1.0, 0.1, G1_over_G2=ratio)
                     for ratio in (0.0, math.inf))
        assert (zero.g1, zero.g2) == (inf.g2, inf.g1) and zero.g1 == 0.0

    @pytest.mark.parametrize("kappa, message", [
        (0.0, "kappa must be > 0"), (-1.0, "kappa must be > 0"),
        (1e308, "float range")])
    def test_rejects_bad_cavity_scales(self, kappa, message):
        with pytest.raises(InvalidParams, match=message):
            reduced_from_ratios(1.0, 0.1, kappa=kappa)
