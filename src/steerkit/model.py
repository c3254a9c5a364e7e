"""Device parameters, classical working point, and the reduced rotating-frame model.

The chain is ``PhysicalParams -> WorkingPoint -> ReducedParams ->
DerivedQuantities``.  Physical parameters describe the two-mode cavity and
the vibrating mirror in the lab frame.  The working point is the classical
steady state under the drives; linearizing around it and moving to the
frame rotating at the mechanical frequency (drive on the blue sideband of
the average cavity frequency) leaves the two-mode-squeezing model whose
parameters are collected in ``ReducedParams``.  ``DerivedQuantities`` holds
the effective gain rates that govern everything downstream.

All angular frequencies are stored in rad/s.  Hz-valued inputs are converted
at the CLI boundary only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import (
    AsymmetricDamping,
    GainNotPositive,
    InvalidParams,
    NonConvergence,
    OffResonance,
    RegimeWarning,
)

SQRT2 = math.sqrt(2.0)
MAX_ITER = 500  # steps of each stage of ``derive_working_point``
# the gates of ``reduce``; its docstring says what each bounds
RESONANCE_RTOL = 1e-6
DAMPING_RTOL = 0.01
WARN_RATIO = 0.2


@dataclass(frozen=True)
class PhysicalParams:
    """Raw device parameters.

    Parameters
    ----------
    omega1, omega2 : float
        Cavity mode angular frequencies (rad/s).
    omega_m : float
        Mechanical angular frequency (rad/s).
    omega_L : float
        Drive laser angular frequency (rad/s).
    kappa1, kappa2 : float
        Cavity amplitude damping rates (rad/s).
    gamma : float
        Mechanical amplitude damping rate (rad/s).
    g01, g02 : float
        Single-photon optomechanical couplings (rad/s); may be zero.
    E1, E2 : float
        Drive amplitudes (rad/s); may be zero.
    n0 : float
        Initial mirror thermal occupation.
    n : float
        Thermal occupation of the mechanical bath.
    tau : float
        Pulse duration (s).

    Building one refuses a rate or ``tau`` that is not > 0, and a coupling,
    drive or occupation that is not >= 0, with ``InvalidParams``.
    """

    omega1: float
    omega2: float
    omega_m: float
    omega_L: float
    kappa1: float
    kappa2: float
    gamma: float
    g01: float
    g02: float
    E1: float
    E2: float
    n0: float
    n: float
    tau: float

    def __post_init__(self) -> None:
        strictly_positive = {
            "omega1": self.omega1,
            "omega2": self.omega2,
            "omega_m": self.omega_m,
            "omega_L": self.omega_L,
            "kappa1": self.kappa1,
            "kappa2": self.kappa2,
            "gamma": self.gamma,
            "tau": self.tau,
        }
        for name, value in strictly_positive.items():
            if not value > 0.0:
                raise InvalidParams(f"{name} must be > 0, got {value!r}")
        nonnegative = {
            "g01": self.g01,
            "g02": self.g02,
            "E1": self.E1,
            "E2": self.E2,
            "n0": self.n0,
            "n": self.n,
        }
        for name, value in nonnegative.items():
            if not value >= 0.0:
                raise InvalidParams(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class WorkingPoint:
    """Classical steady state of the driven system.

    ``alpha1, alpha2`` are the mean cavity amplitudes, ``x_s, p_s`` the mean
    mirror position/momentum in dimensionless quadrature units, ``Delta1,
    Delta2`` the effective detunings including the static radiation-pressure
    shift, and ``g1, g2 = g0j * |alpha_j|`` the effective linearized couplings.
    """

    alpha1: complex
    alpha2: complex
    x_s: float
    p_s: float
    Delta1: float
    Delta2: float
    g1: float
    g2: float


@dataclass(frozen=True)
class ReducedParams:
    """Parameters of the rotating-frame two-mode-squeezing model.

    ``Delta = (omega1 - omega2)/2`` is half the cavity frequency difference;
    it may take any sign.  ``gamma`` may be zero: that is the idealized
    undamped-mirror limit used heavily in analysis.  Building one refuses
    a ``kappa`` or ``tau`` that is not > 0, a ``gamma``, coupling or
    occupation that is not >= 0 and a ``Delta`` that is not finite, with
    ``InvalidParams``.
    """

    g1: float
    g2: float
    kappa: float
    Delta: float
    gamma: float
    n0: float
    n: float
    tau: float

    def __post_init__(self) -> None:
        if not self.kappa > 0.0:
            raise InvalidParams(f"kappa must be > 0, got {self.kappa!r}")
        if not self.gamma >= 0.0:
            raise InvalidParams(f"gamma must be >= 0, got {self.gamma!r}")
        if not self.tau > 0.0:
            raise InvalidParams(f"tau must be > 0, got {self.tau!r}")
        for name, value in (("g1", self.g1), ("g2", self.g2),
                            ("n0", self.n0), ("n", self.n)):
            if not value >= 0.0:
                raise InvalidParams(f"{name} must be >= 0, got {value!r}")
        if not math.isfinite(self.Delta):
            raise InvalidParams(f"Delta must be finite, got {self.Delta!r}")


@dataclass(frozen=True)
class DerivedQuantities:
    """Effective rates of the adiabatically eliminated mirror equation.

    ``G1, G2`` are the per-mode gain rates, ``G = G1 + G2 - gamma`` the net
    gain, ``delta`` the induced rotation rate, ``phi = arctan(Delta/kappa)``
    the cavity response phase, and ``r = G * tau`` the dimensionless pulse
    area (squeezing parameter).
    """

    G1: float
    G2: float
    G: float
    delta: float
    phi: float
    r: float

    @property
    def gamma(self) -> float:
        """Mirror damping recovered from G1 + G2 - G."""
        return self.G1 + self.G2 - self.G

    @property
    def gamma_over_G(self) -> float:
        return self.gamma / self.G


def derive_working_point(p: PhysicalParams, tol: float = 1e-12,
                         ) -> WorkingPoint:
    """Solve the classical self-consistency for the driven working point.

    The fixed point couples the static mirror displacement to the cavity
    amplitudes through the radiation-pressure detuning shift:

    - ``Delta_j = Delta_0j + sqrt(2) g0j x_s`` with ``Delta_0j = omega_j - omega_L``
    - ``alpha_j = E_j / (kappa_j + i Delta_j)``
    - ``x_s = -sqrt(2) (g01 |alpha1|^2 + g02 |alpha2|^2) / omega_m``

    Damped Picard iteration on ``x_s``, with a bisection fallback on the
    scalar self-consistency equation (the displacement map is bounded, so a
    bracket always exists).  Each stage runs at most ``MAX_ITER`` steps.

    Raises
    ------
    InvalidParams
        If ``tol`` is not positive, or the drives put ``|alpha_j|^2`` or
        ``x_s`` past the float range.
    NonConvergence
        If the bisection cannot shrink its bracket below ``tol``.  Its
        bracket always exists, so this happens only where ``tol`` is finer
        than the float spacing at the root it closes in on (about ``eps *
        |x_s|``); a bistable map still yields one of its roots.
    """
    if not tol > 0.0:
        raise InvalidParams(f"tol must be > 0, got {tol!r}")

    d01 = p.omega1 - p.omega_L
    d02 = p.omega2 - p.omega_L

    def amplitudes(x: float) -> tuple[complex, complex, float, float]:
        D1 = d01 + SQRT2 * p.g01 * x
        D2 = d02 + SQRT2 * p.g02 * x
        a1 = p.E1 / (p.kappa1 + 1j * D1)
        a2 = p.E2 / (p.kappa2 + 1j * D2)
        return a1, a2, D1, D2

    def shift(m1: float, m2: float) -> float:  # x_s at |alpha_j| = m_j
        try:
            x_s = -SQRT2 * (p.g01 * m1 ** 2 + p.g02 * m2 ** 2) / p.omega_m
        except OverflowError:
            x_s = math.inf
        if math.isfinite(x_s):
            return x_s
        raise InvalidParams(f"the drives put the working point past the "
                            f"float range at E1 = {p.E1!r}, E2 = {p.E2!r}")

    def displacement(x: float) -> float:
        a1, a2, _, _ = amplitudes(x)
        return shift(abs(a1), abs(a2))

    x = 0.0
    converged = False
    damping = 0.5
    for _ in range(MAX_ITER):
        x_new = (1.0 - damping) * x + damping * displacement(x)
        if abs(x_new - x) < tol:
            x = x_new
            converged = True
            break
        x = x_new

    if not converged:
        # the map is bounded below, so g(x) = displacement(x) - x brackets a root
        lo = shift(p.E1 / p.kappa1, p.E2 / p.kappa2) - tol
        hi = tol
        g_lo = displacement(lo) - lo
        g_hi = displacement(hi) - hi
        if g_lo * g_hi > 0.0:
            raise NonConvergence("no bracket for the working-point equation")
        for _ in range(MAX_ITER):
            mid = 0.5 * (lo + hi)
            g_mid = displacement(mid) - mid
            if g_lo * g_mid <= 0.0:
                hi, g_hi = mid, g_mid
            else:
                lo, g_lo = mid, g_mid
            if hi - lo < tol:
                converged = True
                break
        x = 0.5 * (lo + hi)
        if not converged:
            raise NonConvergence(
                f"working point not converged after {MAX_ITER} iterations")

    a1, a2, D1, D2 = amplitudes(x)
    return WorkingPoint(
        alpha1=a1,
        alpha2=a2,
        x_s=x,
        p_s=0.0,
        Delta1=D1,
        Delta2=D2,
        g1=p.g01 * abs(a1),
        g2=p.g02 * abs(a2),
    )


def working_point_residuals(p: PhysicalParams, wp: WorkingPoint) -> tuple[float, float, float]:
    """Residuals of the three defining equations, for verification.

    Returns ``(|x_s residual|, |alpha1 residual|, |alpha2 residual|)``.
    """
    x_target = -SQRT2 * (p.g01 * abs(wp.alpha1) ** 2
                         + p.g02 * abs(wp.alpha2) ** 2) / p.omega_m
    a1_target = p.E1 / (p.kappa1 + 1j * wp.Delta1)
    a2_target = p.E2 / (p.kappa2 + 1j * wp.Delta2)
    return (abs(wp.x_s - x_target),
            abs(wp.alpha1 - a1_target),
            abs(wp.alpha2 - a2_target))


def reduce(p: PhysicalParams, wp: WorkingPoint) -> ReducedParams:
    """Collapse physical parameters onto the rotating-frame model.

    Requires the drive on the blue sideband of the average cavity frequency,
    ``omega_L = (omega1 + omega2)/2 + omega_m``, within ``RESONANCE_RTOL *
    omega_m``, and cavity damping rates within ``DAMPING_RTOL`` of their
    mean.  Emits ``RegimeWarning`` (never an error) when the weak-coupling
    or resolved-sideband ratios ``g_j/kappa`` and ``kappa/omega_m`` exceed
    ``WARN_RATIO``.
    """
    omega0 = 0.5 * (p.omega1 + p.omega2)
    offset = p.omega_L - omega0 - p.omega_m
    if abs(offset) > RESONANCE_RTOL * p.omega_m:
        raise OffResonance(
            f"drive offset from blue sideband is {offset:.6g} rad/s "
            f"(tolerance {RESONANCE_RTOL * p.omega_m:.6g} rad/s)")
    if abs(p.kappa1 - p.kappa2) > DAMPING_RTOL * 0.5 * (p.kappa1 + p.kappa2):
        raise AsymmetricDamping(
            f"kappa1={p.kappa1:.6g} and kappa2={p.kappa2:.6g} differ beyond "
            f"{DAMPING_RTOL:.0%}; the reduced model assumes a common kappa")

    kappa = 0.5 * (p.kappa1 + p.kappa2)
    for name, g in (("g1", wp.g1), ("g2", wp.g2)):
        if g / kappa > WARN_RATIO:
            warnings.warn(
                f"{name}/kappa = {g / kappa:.3g} exceeds {WARN_RATIO}; "
                "adiabatic elimination of the cavities is marginal",
                RegimeWarning, stacklevel=2)
    if kappa / p.omega_m > WARN_RATIO:
        warnings.warn(
            f"kappa/omega_m = {kappa / p.omega_m:.3g} exceeds {WARN_RATIO}; "
            "the rotating-wave approximation is marginal",
            RegimeWarning, stacklevel=2)

    return ReducedParams(
        g1=wp.g1,
        g2=wp.g2,
        kappa=kappa,
        Delta=0.5 * (p.omega1 - p.omega2),
        gamma=p.gamma,
        n0=p.n0,
        n=p.n,
        tau=p.tau,
    )


def derived_quantities(rp: ReducedParams) -> DerivedQuantities:
    """Effective gain rates of the reduced mirror equation.

    ``G_j = g_j^2 kappa / (kappa^2 + Delta^2)``,
    ``delta = (g1^2 - g2^2) Delta / (kappa^2 + Delta^2)``,
    ``G = G1 + G2 - gamma``, ``phi = arctan(Delta/kappa)``, ``r = G tau``.

    Raises ``InvalidParams`` when a rate leaves the float range and
    ``GainNotPositive`` when ``G <= 0``.
    """
    try:
        c2 = rp.kappa ** 2 + rp.Delta ** 2
        G1 = rp.g1 ** 2 * rp.kappa / c2
        G2 = rp.g2 ** 2 * rp.kappa / c2
        delta = (rp.g1 ** 2 - rp.g2 ** 2) * rp.Delta / c2
        if not all(map(math.isfinite, (c2, G1, G2, delta))):
            raise OverflowError  # a sum or product rounded to inf
    except ArithmeticError:  # an overflow, or c2 underflowing to 0
        raise InvalidParams(
            f"rates leave the float range at g1 = {rp.g1!r}, g2 = "
            f"{rp.g2!r}, kappa = {rp.kappa!r}, Delta = {rp.Delta!r}") from None
    G = G1 + G2 - rp.gamma
    if not G > 0.0:
        raise GainNotPositive(
            f"net gain G = G1 + G2 - gamma = {G:.6g} rad/s must be positive")
    return DerivedQuantities(
        G1=G1,
        G2=G2,
        G=G,
        delta=delta,
        phi=math.atan2(rp.Delta, rp.kappa),
        r=G * rp.tau,
    )


def reduced_from_ratios(r: float, gamma_over_G: float, *,
        G1_over_G2: float = 1.0, n0: float = 0.0, n: float = 0.0,
        Delta_over_kappa: float = 1.0, kappa: float = 20.0) -> ReducedParams:
    """Build reduced parameters in units G = 1 from dimensionless targets.

    Convenience constructor for sweeps: fixes the net gain to one inverse
    time unit, so ``tau = r`` exactly, and distributes ``G1 + G2 = 1 +
    gamma_over_G`` according to ``G1_over_G2``.  The cavity scale ``kappa``
    only sets how deep in the adiabatic regime the companion full model is.
    Raises ``InvalidParams`` when a rate leaves the float range, or when
    the parameters are not valid ``ReducedParams`` (``r = 0`` gives
    ``tau = 0``).
    """
    if r < 0:
        raise InvalidParams(f"r must be >= 0, got {r!r}")
    if gamma_over_G < 0:
        raise InvalidParams(f"gamma_over_G must be >= 0, got {gamma_over_G!r}")
    if not G1_over_G2 >= 0:
        raise InvalidParams(f"G1_over_G2 must be >= 0, got {G1_over_G2!r}")
    if not kappa > 0:
        raise InvalidParams(f"kappa must be > 0, got {kappa!r}")
    gamma = gamma_over_G  # G = 1
    gsum = 1.0 + gamma
    G2 = gsum / (1.0 + G1_over_G2)
    G1 = gsum - G2
    Delta = Delta_over_kappa * kappa
    try:
        c2 = kappa ** 2 + Delta ** 2
    except OverflowError:
        raise InvalidParams(
            f"rates leave the float range at kappa = {kappa!r}, "
            f"Delta_over_kappa = {Delta_over_kappa!r}") from None
    return ReducedParams(
        g1=math.sqrt(G1 * c2 / kappa),
        g2=math.sqrt(G2 * c2 / kappa),
        kappa=kappa,
        Delta=Delta,
        gamma=gamma,
        n0=n0,
        n=n,
        tau=r,
    )

