"""Steering witnesses from covariance entries, and thresholds.

A witness ``E`` below 1/2 certifies steering of the steered mode by the
measured party.  Witnesses are products of two minimized inference standard
deviations, each read off the covariance entries of one steered and one
party quadrature.  The party measures P against the steered X and X against
the steered P: the model's only mirror-field correlations are of X-P type,
so no rotated pairing does better (a test scans the angles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import _check_inputs, collective_steering_value
from .dynamics import OutputCovariance
from .errors import InvalidParams, NoThreshold, ZeroVariance

QuadratureSelector = tuple[str, str]  # (mode label, "X" | "P")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _inferred_variance(oc: OutputCovariance, steered: QuadratureSelector,
                       party: QuadratureSelector) -> tuple[float, float]:
    """Minimal inference variance of one quadrature given another.

    Returns ``(Var(steered) - Cov^2/Var(party), u)`` where ``u = -Cov /
    Var(party)`` is the optimal linear gain: the exact minimum over gain of
    ``Var(steered + u * party)``.
    """
    s, p = oc.index(*steered), oc.index(*party)
    var_p = float(oc.sigma[p, p])
    cov = float(oc.sigma[s, p])
    if var_p < 1e-15:
        raise ZeroVariance(
            f"party quadrature {party!r} has variance {var_p!r}")
    return float(oc.sigma[s, s]) - cov * cov / var_p, -cov / var_p


@dataclass(frozen=True)
class SteeringReport:
    """Result of a steering evaluation between two modes."""

    E_value: float
    steered_mode: str
    steering_party: str
    gain_X: float
    gain_P: float

    @property
    def is_steering(self) -> bool:
        """Strict criterion: E exactly 1/2 does not count as steering."""
        return self.E_value < 0.5


def _golden_minimize(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimum location of a unimodal scalar function."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def steering_product(oc: OutputCovariance, steered_mode: str, party_mode: str,
                     ) -> SteeringReport:
    """Steering witness of ``steered_mode`` given ``party_mode``.

    ``E = sqrt(V_X) sqrt(V_P)``, where ``V_X`` is the inference variance of
    the steered X from the party's P and ``V_P`` that of the steered P from
    the party's X (each clipped at 0 against rounding); ``gain_X`` and
    ``gain_P`` are their optimal gains.  This pairing is optimal because
    the only nonzero mirror-field correlations are of X-P type.
    """
    vx, ux = _inferred_variance(oc, (steered_mode, "X"), (party_mode, "P"))
    vp, up = _inferred_variance(oc, (steered_mode, "P"), (party_mode, "X"))
    E = math.sqrt(max(vx, 0.0)) * math.sqrt(max(vp, 0.0))
    return SteeringReport(E, steered_mode, party_mode, ux, up)


# A witness is a difference ``Var(s) - Cov^2/Var(p)`` of numbers of the size
# of the steered variance, so its rounding error is a few ulps of that
# variance: at the analytic tie E = 1/2 of equal couplings the oracle lands
# within 3 eps Var(X_m) of 1/2 for r <= 8.  The margin allows 64 ulps.
TIE_ULPS = 64


@dataclass(frozen=True)
class MonogamyReport:
    """Single-party witnesses against the same steered mode.

    ``margin`` is the rounding resolution of the witnesses: a party counts
    as steering only when its E lies below 1/2 by more than it.
    """

    steered_mode: str
    parties: tuple[str, str]
    E_values: tuple[float, float]
    margin: float = 0.0

    @property
    def is_consistent(self) -> bool:
        """Two parties may never steer the same mode simultaneously."""
        return not all(e < 0.5 - self.margin for e in self.E_values)


def _monogamy_check(oc: OutputCovariance, steered_mode: str,
                    parties: tuple[str, str]) -> MonogamyReport:
    """Evaluate both single-party witnesses; a violation signals a covariance
    bug and is reported, never raised.

    The margin is ``TIE_ULPS`` ulps of the larger steered variance, so an
    analytic tie at 1/2 (equal couplings) is never decided by rounding.
    """
    e1 = steering_product(oc, steered_mode, parties[0]).E_value
    e2 = steering_product(oc, steered_mode, parties[1]).E_value
    scale = max(oc.variance(steered_mode, "X"), oc.variance(steered_mode, "P"))
    margin = TIE_ULPS * float(np.finfo(float).eps) * scale
    return MonogamyReport(steered_mode, tuple(parties), (e1, e2), margin)


@dataclass(frozen=True)
class ThresholdResult:
    """Root of a witness-equals-1/2 condition in one variable."""

    variable: str
    value: float
    bracket: tuple[float, float]
    sup_location: float


def _sup_over_r(x: float, n0: float, n: float, r_max: float,
                scan_points: int = 128) -> tuple[float, float]:
    """Supremum of the collective witness over r in (0, r_max].

    Coarse log-spaced scan, then golden-section refinement around the best
    grid point (the witness is smooth; the boundary r -> 0 is included via
    the leftmost grid points where E -> n0 + 1/2 from below or above).
    """
    rs = np.logspace(-3, math.log10(r_max), scan_points)
    vals = collective_steering_value(rs, x, n0, n)
    k = int(np.argmax(vals))
    lo = rs[k - 1] if k > 0 else rs[0] / 2.0
    hi = rs[k + 1] if k + 1 < scan_points else r_max
    r_best = _golden_minimize(
        lambda r: -collective_steering_value(r, x, n0, n), lo, hi, 1e-6)
    candidates = [(float(vals[k]), float(rs[k])),
                  (collective_steering_value(r_best, x, n0, n), float(r_best))]
    return max(candidates)


def _check_search(r_max: float, tol: float) -> None:
    if not r_max > 0.0:
        raise InvalidParams(f"r_max must be > 0, got {r_max!r}")
    if not tol > 0.0:
        raise InvalidParams(f"tol must be > 0, got {tol!r}")


def _bisect(up, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Shrink ``[lo, hi]`` to width ``tol`` keeping ``up(lo)`` true and
    ``up(hi)`` false, or until no float lies strictly between them."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if up(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def noise_threshold(gamma_over_G: float, n0: float, r_max: float = 10.0,
                    tol: float = 0.5, *, n_cap: float = 1e6,
                    ) -> ThresholdResult:
    """Largest bath occupation with collective steering at every pulse area.

    Bisect on n for the condition ``sup over r in (0, r_max] of E <= 1/2``,
    down to a bracket of width ``tol`` or of adjacent floats.  Raises
    ``NoThreshold`` when even n = 0 fails (too much damping) or when
    steering survives past the search cap (damping too weak to set a bound).
    """
    if not 0.0 < gamma_over_G < 1.0:
        raise InvalidParams(
            f"gamma_over_G must be in (0, 1), got {gamma_over_G!r}")
    _check_search(r_max, tol)

    def ok(n: float) -> bool:
        return _sup_over_r(gamma_over_G, n0, n, r_max)[0] <= 0.5

    if not ok(0.0):
        raise NoThreshold(
            f"no collective steering over (0, {r_max}] even at n = 0 "
            f"for gamma/G = {gamma_over_G}")
    lo, hi = 0.0, 1.0
    while ok(hi):
        lo = hi
        hi *= 2.0
        if hi > n_cap:
            raise NoThreshold(
                f"steering survives past the n = {n_cap:.3g} search cap for "
                f"gamma/G = {gamma_over_G}; in the zero-damping limit it "
                "survives any bath occupation")
    lo, hi = _bisect(ok, lo, hi, tol)
    value = 0.5 * (lo + hi)
    _, sup_r = _sup_over_r(gamma_over_G, n0, value, r_max)
    return ThresholdResult("n", value, (lo, hi), sup_r)


def r_crossing(gamma_over_G: float, n0: float, n: float,
               r_max: float = 10.0, tol: float = 1e-9) -> ThresholdResult:
    """Smallest pulse area where the collective witness drops below 1/2,
    bracketed to width ``tol`` or to adjacent floats."""
    if not n0 > 0.0:
        raise InvalidParams(
            f"crossing search needs n0 > 0 (witness starts above 1/2), "
            f"got n0 = {n0!r}")
    _check_search(r_max, tol)
    _check_inputs(0.0, gamma_over_G, n0, n)

    def still_above(r: float) -> bool:
        return collective_steering_value(r, gamma_over_G, n0, n) > 0.5

    rs = np.linspace(0.0, r_max, 4097)
    above = collective_steering_value(rs, gamma_over_G, n0, n) - 0.5
    down = np.flatnonzero((above[:-1] > 0.0) & (above[1:] <= 0.0))
    if down.size == 0:
        raise NoThreshold(
            f"witness never crosses 1/2 on (0, {r_max}] at "
            f"gamma/G = {gamma_over_G}, n0 = {n0}, n = {n}")
    lo, hi = _bisect(still_above, rs[down[0]], rs[down[0] + 1], tol)
    return ThresholdResult("r", 0.5 * (lo + hi), (lo, hi), math.nan)


@dataclass(frozen=True)
class SteeringRegion:
    """Collective witness over a (pulse area, damping ratio) grid."""

    r_values: np.ndarray
    gamma_over_G_values: np.ndarray
    E: np.ndarray  # shape (len(gamma_over_G_values), len(r_values))
    contour: tuple[tuple[float, float], ...]  # (r, gamma/G) where E = 1/2


def steering_region(r_grid, gamma_over_G_grid, n0: float, n: float,
                    ) -> SteeringRegion:
    """Evaluate the collective witness on a grid and trace its 1/2 contour.

    The contour is found per damping-ratio row by bisection between grid
    points with opposite sign of E - 1/2.
    """
    rs = np.asarray(r_grid, dtype=float)
    xs = np.asarray(gamma_over_G_grid, dtype=float)
    if rs.size == 0 or xs.size == 0:
        raise InvalidParams("grids must be nonempty")
    if (rs < 0).any() or (xs < 0).any():
        raise InvalidParams("grids must be nonnegative")
    _check_inputs(0.0, 0.0, n0, n)
    r2, x2 = np.meshgrid(rs, xs)
    E = collective_steering_value(r2, x2, n0, n)

    # cells where E - 1/2 is zero or changes sign toward the next r, in
    # row-major order; the sign changes are bisected together
    row = E[:, :-1] - 0.5
    zero = row == 0.0
    cross = row * (E[:, 1:] - 0.5) < 0.0
    i, j = np.nonzero(zero | cross)
    bisect = cross[i, j]
    lo, hi = rs[j[bisect]], rs[j[bisect] + 1]
    if lo.size:
        x, sign = xs[i[bisect]], row[i[bisect], j[bisect]]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            up = (collective_steering_value(mid, x, n0, n) - 0.5) * sign > 0.0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
    r_cross = rs[j]
    r_cross[bisect] = 0.5 * (lo + hi)
    contour = tuple(zip(r_cross.tolist(), xs[i].tolist()))
    return SteeringRegion(rs, xs, E, contour)
