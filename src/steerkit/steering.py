"""Steering witnesses from covariance entries, and thresholds.

A witness ``E`` below 1/2 certifies steering of the steered mode by the
measured party.  Witnesses are products of two minimized inference standard
deviations, each read off the covariance entries of one steered and one
party quadrature.  The party measures P against the steered X and X against
the steered P: the model's only mirror-field correlations are of X-P type,
so no rotated pairing does better (a test scans the angles).

The bath threshold over a window of pulse areas is the closed-form bound
``closedform.max_occupation`` at the window's end, where the bound is least.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import (
    _check_inputs,
    _coefficients,
    _collective_cells,
    collective_steering_value,
    max_occupation,
)
from .dynamics import OutputCovariance
from .errors import InvalidParams, NoThreshold, ZeroVariance

QuadratureSelector = tuple[str, str]  # (mode label, "X" | "P")

# settings of the threshold searches; the CLI's defaults read R_MAX and N_TOL
R_MAX = 10.0  # pulse areas searched: (0, R_MAX]
N_TOL = 0.5  # width of the n bracket of noise_threshold
N_CAP = 1e6  # noise_threshold gives up past this n
BISECTION_ROUNDS = 60  # most rounds of steering_region's contour bisection


def _inferred_variance(oc: OutputCovariance, steered: QuadratureSelector,
                       party: QuadratureSelector) -> float:
    """Minimal inference variance of one quadrature given another.

    ``Var(steered) - Cov^2/Var(party)``: the exact minimum over the gain
    ``u`` of ``Var(steered + u * party)``, reached at ``u = -Cov /
    Var(party)``.
    """
    s, p = oc.index(*steered), oc.index(*party)
    var_p = float(oc.sigma[p, p])
    cov = float(oc.sigma[s, p])
    if var_p < 1e-15:
        raise ZeroVariance(
            f"party quadrature {party!r} has variance {var_p!r}")
    return float(oc.sigma[s, s]) - cov * cov / var_p


def steering_product(oc: OutputCovariance, steered_mode: str, party_mode: str,
                     ) -> float:
    """Steering witness E of ``steered_mode`` given ``party_mode``.

    ``E = sqrt(V_X) sqrt(V_P)``, where ``V_X`` is the inference variance of
    the steered X from the party's P and ``V_P`` that of the steered P from
    the party's X (each clipped at 0 against rounding).  This pairing is
    optimal because the only nonzero mirror-field correlations are of X-P
    type.
    """
    vx = _inferred_variance(oc, (steered_mode, "X"), (party_mode, "P"))
    vp = _inferred_variance(oc, (steered_mode, "P"), (party_mode, "X"))
    return math.sqrt(max(vx, 0.0)) * math.sqrt(max(vp, 0.0))


@dataclass(frozen=True)
class ThresholdResult:
    """``noise_threshold``'s occupation and its bracket."""

    value: float
    bracket: tuple[float, float]


def _check_search(r_max: float, tol: float) -> None:
    if not 0.0 < r_max < math.inf:
        raise InvalidParams(f"r_max must be finite and > 0, got {r_max!r}")
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


def noise_threshold(gamma_over_G: float, n0: float, r_max: float = R_MAX,
                    tol: float = N_TOL) -> ThresholdResult:
    """Largest bath occupation with collective steering at every pulse area.

    Bisect on n for the condition ``E <= 1/2 at every r in (0, r_max]``,
    after doubling n from 1, down to a bracket of width ``tol`` or of
    adjacent floats.  Raises ``NoThreshold`` when even n = 0 fails (too
    much damping, or a warm mirror: with n0 > 0 the witness tends to
    n0 + 1/2 > 1/2 as r -> 0, so the condition fails at every n) or when
    steering survives past ``N_CAP`` (damping too weak to set a bound).

    For a ground-state mirror E <= 1/2 holds at pulse area r exactly up to
    ``closedform.max_occupation``, which falls monotonically in r.  The
    condition thus holds exactly for n <= n*, the bound at ``r_max``, and
    every step of the search takes that comparison.
    """
    if not 0.0 < gamma_over_G < 1.0:
        raise InvalidParams(
            f"gamma_over_G must be in (0, 1), got {gamma_over_G!r}")
    _check_search(r_max, tol)
    if not n0 >= 0.0:
        raise InvalidParams(f"n0 must be >= 0, got {n0!r}")
    if n0 > 0.0:
        raise NoThreshold(
            f"no collective steering over all of (0, {r_max}] for a warm "
            f"mirror: E tends to n0 + 1/2 > 1/2 as r -> 0 (n0 = {n0})")

    n_star = max_occupation(r_max, gamma_over_G, n0)

    def ok(n: float) -> bool:
        return n <= n_star

    if not ok(0.0):
        raise NoThreshold(
            f"no collective steering over (0, {r_max}] even at n = 0 "
            f"for gamma/G = {gamma_over_G}")
    lo, hi = 0.0, 1.0
    while ok(hi):
        lo = hi
        hi *= 2.0
        if hi > N_CAP:
            raise NoThreshold(
                f"steering survives past the n = {N_CAP:.3g} search cap for "
                f"gamma/G = {gamma_over_G}; in the zero-damping limit it "
                "survives any bath occupation")
    lo, hi = _bisect(ok, lo, hi, tol)
    return ThresholdResult(0.5 * (lo + hi), (lo, hi))


def r_crossing(gamma_over_G: float, n0: float, n: float) -> float:
    """Smallest pulse area in (0, ``R_MAX``] where the collective witness
    drops to 1/2: the first point of ``steering_region``'s contour over
    4097 pulse areas in [0, ``R_MAX``].  A first point at r = 0 (n0 below
    ~1e-16, so that E(0) = n0 + 1/2 rounds to 1/2) is not a crossing."""
    if not n0 > 0.0:
        raise InvalidParams(
            f"crossing search needs n0 > 0 (witness starts above 1/2), "
            f"got n0 = {n0!r}")
    _check_inputs(0.0, gamma_over_G, n0, n)
    contour = steering_region(np.linspace(0.0, R_MAX, 4097), [gamma_over_G],
                              n0, n).contour
    if not contour or contour[0][0] == 0.0:
        raise NoThreshold(
            f"witness never crosses 1/2 on (0, {R_MAX}] at "
            f"gamma/G = {gamma_over_G}, n0 = {n0}, n = {n}")
    return contour[0][0]


@dataclass(frozen=True)
class SteeringRegion:
    """Collective witness over a (pulse area, damping ratio) grid; a cell
    outside the witness's domain is NaN."""

    E: np.ndarray  # shape (len(gamma_over_G_grid), len(r_grid))
    contour: tuple[tuple[float, float], ...]  # (r, gamma/G) where E = 1/2


def steering_region(r_grid, gamma_over_G_grid, n0: float, n: float,
                    ) -> SteeringRegion:
    """Evaluate the collective witness on a grid and trace its 1/2 contour.

    Cells are those of the array ``collective_steering_value``, called
    with gamma/G as a column and r as a ``np.broadcast_to`` view of the
    grid's shape, so that no argument is copied to the grid's shape and
    the call's r still counts the grid's cells, as ``benchmark/tracer.py``
    counts a witness call's evaluations: NaN where an argument leaves the
    domain (a negative r, gamma/G, n0 or n).  The contour is found per
    damping-ratio row by bisection between adjacent finite cells with
    opposite sign of E - 1/2; NaN cells never join it, and a cell where E
    is exactly 1/2 joins it as it is.  All crossing cells are bisected
    together.  The factors of the witness that do not depend on r are
    computed once (``closedform._coefficients``), so a round evaluates
    only its r-dependent part; a midpoint where it is NaN counts as past
    the crossing.  The rounds stop once no bracket has a float strictly
    inside it, or after ``BISECTION_ROUNDS``; each contour point is its
    bracket's midpoint.
    """
    rs = np.asarray(r_grid, dtype=float)
    xs = np.asarray(gamma_over_G_grid, dtype=float)
    if rs.size == 0 or xs.size == 0:
        raise InvalidParams("grids must be nonempty")
    E = collective_steering_value(np.broadcast_to(rs, (xs.size, rs.size)),
                                  xs[:, None], n0, n)

    # cells where E - 1/2 is zero or changes sign toward the next r, in
    # row-major order; the sign changes are bisected together
    row = E[:, :-1] - 0.5
    zero = row == 0.0
    cross = row * (E[:, 1:] - 0.5) < 0.0
    i, j = np.nonzero(zero | cross)
    bisect = cross[i, j]
    lo, hi = rs[j[bisect]], rs[j[bisect] + 1]
    if lo.size:
        # the r-free factors once; each round evaluates only the part of
        # the witness that depends on r
        with np.errstate(over="ignore", invalid="ignore"):
            co = _coefficients(xs[i[bisect]], float(n0), float(n))

        sign = row[i[bisect], j[bisect]]
        for _ in range(BISECTION_ROUNDS):
            mid = 0.5 * (lo + hi)
            if not ((lo < mid) & (mid < hi)).any():
                break  # every bracket is down to adjacent floats
            E_mid = _collective_cells(mid, co)
            up = (E_mid - 0.5) * sign > 0.0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
    r_cross = rs[j]
    r_cross[bisect] = 0.5 * (lo + hi)
    contour = tuple(zip(r_cross.tolist(), xs[i].tolist()))
    return SteeringRegion(E, contour)
