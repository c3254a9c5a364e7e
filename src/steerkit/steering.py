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
from .errors import DegenerateVariance, InvalidParams, NoThreshold

# settings of the threshold searches; the CLI's defaults read R_MAX and N_TOL
R_MAX = 10.0  # pulse areas searched: (0, R_MAX]
N_TOL = 0.5  # width of the n bracket of noise_threshold
N_CAP = 1e6  # noise_threshold gives up where steering survives at this n
BISECTION_ROUNDS = 60  # most rounds of steering_region's contour bisection
PASS_ROUNDS = 3  # bisection rounds per witness pass of steering_region


def steering_product(oc: OutputCovariance, steered_mode: str, party_mode: str,
                     ) -> float:
    """Steering witness E of ``steered_mode`` given ``party_mode``.

    ``E = sqrt(V_X) sqrt(V_P)``, where ``V_X`` is the inference variance of
    the steered X from the party's P and ``V_P`` that of the steered P from
    the party's X (each clipped at 0 against rounding).  This pairing is
    optimal because the only nonzero mirror-field correlations are of X-P
    type.  Each inference variance is ``Var(s) - Cov(s, p)^2 / Var(p)``,
    the minimum over u of ``Var(s + u p)``.  Raises ``DegenerateVariance``
    when a party variance is below 1e-15.
    """
    sig = oc.sigma
    vs = []
    for sq, pq in (("X", "P"), ("P", "X")):
        s, p = oc.index(steered_mode, sq), oc.index(party_mode, pq)
        var_p = float(sig[p, p])
        if var_p < 1e-15:
            raise DegenerateVariance(
                f"party quadrature {(party_mode, pq)!r} has variance "
                f"{var_p!r}")
        cov = float(sig[s, p])
        vs.append(max(float(sig[s, s]) - cov * cov / var_p, 0.0))
    return math.sqrt(vs[0]) * math.sqrt(vs[1])


@dataclass(frozen=True)
class ThresholdResult:
    """``noise_threshold``'s occupation and its bracket."""

    value: float
    bracket: tuple[float, float]


def noise_threshold(gamma_over_G: float, n0: float, r_max: float = R_MAX,
                    tol: float = N_TOL) -> ThresholdResult:
    """Largest bath occupation with collective steering at every pulse area.

    For a ground-state mirror E <= 1/2 holds at pulse area r exactly up to
    ``closedform.max_occupation``, which falls monotonically in r, so the
    condition ``E <= 1/2 at every r in (0, r_max]`` holds exactly for
    n <= n*, the bound at ``r_max``.  The bracket is found as a search on
    that condition would find it: double n from 1 while n <= n*, then
    halve the bracket, comparing each midpoint with n*, down to width
    ``tol`` or to adjacent floats.  Raises ``NoThreshold`` when n* < 0,
    so even n = 0 fails (too much damping, or a warm mirror: with n0 > 0
    the witness tends to n0 + 1/2 > 1/2 as r -> 0, so the condition fails
    at every n), or when n* >= ``N_CAP``, so steering survives at the cap
    (damping too weak to set a bound).
    """
    if not 0.0 < gamma_over_G < 1.0:
        raise InvalidParams(
            f"gamma_over_G must be in (0, 1), got {gamma_over_G!r}")
    if not 0.0 < r_max < math.inf:
        raise InvalidParams(f"r_max must be finite and > 0, got {r_max!r}")
    if not tol > 0.0:
        raise InvalidParams(f"tol must be > 0, got {tol!r}")
    if not n0 >= 0.0:
        raise InvalidParams(f"n0 must be >= 0, got {n0!r}")
    if n0 > 0.0:
        raise NoThreshold(
            f"no collective steering over all of (0, {r_max}] for a warm "
            f"mirror: E tends to n0 + 1/2 > 1/2 as r -> 0 (n0 = {n0})")

    n_star = max_occupation(r_max, gamma_over_G, n0)
    if not n_star >= 0.0:
        raise NoThreshold(
            f"no collective steering over (0, {r_max}] even at n = 0 "
            f"for gamma/G = {gamma_over_G}")
    if n_star >= N_CAP:
        raise NoThreshold(
            f"steering survives past the n = {N_CAP:.3g} search cap for "
            f"gamma/G = {gamma_over_G}; in the zero-damping limit it "
            "survives any bath occupation")
    lo, hi = 0.0, 1.0
    while hi <= n_star:
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid <= n_star:
            lo = mid
        else:
            hi = mid
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


def _bisection_pass(lo: np.ndarray, hi: np.ndarray, co: tuple,
                    sign: np.ndarray, rounds: int,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``rounds`` rounds of the contour bisection from one witness pass.

    The pass evaluates every midpoint the rounds can reach, ``2**rounds -
    1`` per bracket, built level by level as ``0.5 * (lo + hi)`` of the
    bracket each one splits.  Each bracket then walks the rounds on the
    signs of those cells: it keeps the midpoint as its lower end where
    ``E - 1/2`` has the lower end's ``sign`` there, and as its upper end
    otherwise (a NaN midpoint counts as past the crossing).  So it meets
    the midpoints and ends that one round per pass would.
    """
    width, m = 1 << rounds, lo.size
    ends = np.empty((width + 1, m))  # row k: each bracket's k-th point
    ends[0], ends[width] = lo, hi
    for level in range(rounds):
        step = width >> level
        ends[step >> 1::step] = 0.5 * (ends[:-1:step] + ends[step::step])
    up = ((_collective_cells(ends[1:-1], co) - 0.5) * sign > 0.0).ravel()
    # walk each bracket down the rounds, as a flat index into ends: the
    # bracket (ends[k], ends[k + 2 step]) has its midpoint at ends[k + step],
    # row k + step - 1 of up
    at = np.arange(m)
    for level in range(rounds - 1, -1, -1):
        step = 1 << level
        at += step * m * up[at + (step - 1) * m]
    flat = ends.ravel()
    return flat[at], flat[at + m]


def steering_region(r_grid, gamma_over_G_grid, n0: float, n: float,
                    ) -> SteeringRegion:
    """Evaluate the collective witness on a grid and trace its 1/2 contour.

    Cells are those of the array ``collective_steering_value``, called
    with gamma/G as a column and r as a ``np.broadcast_to`` view of the
    grid's shape, so that no argument is copied to the grid's shape and
    the call's r still counts the grid's cells, as ``benchmark/tracer.py``
    counts a witness call's evaluations: NaN where an argument leaves the
    domain (a negative r, gamma/G, n0 or n).  Both grids are 1-D, and the
    r grid must increase strictly.  The contour is found per damping-ratio
    row by bisection between adjacent finite cells with opposite sign of
    E - 1/2; NaN cells never join it, and a cell where E is exactly 1/2
    joins it as it is.
    All crossing cells are bisected together.  The factors of the witness
    that do not depend on r are computed once (``closedform._coefficients``),
    so a round evaluates only its r-dependent part; a midpoint where it is
    NaN counts as past the crossing.  Each witness pass serves
    ``PASS_ROUNDS`` rounds: it evaluates the 7 midpoints per bracket that
    the next three rounds can reach, and each bracket walks those rounds
    on their signs (``_bisection_pass``).  The rounds stop once no bracket
    has a float strictly inside it, checked before each pass, or after
    ``BISECTION_ROUNDS``, the last pass taking the rounds left; each
    contour point is its bracket's midpoint.

    The contour is bit for bit that of one round per pass.  A pass builds
    its midpoints with the same ``0.5 * (lo + hi)`` from the same ends and
    evaluates each with the arithmetic of its own cell, so each walk
    replays the one-round path.  A pass may run up to two rounds past the
    stop, and those change no bracket: a bracket with no float inside has
    its midpoint at one of its ends, where E - 1/2 has that end's sign (a
    grid end's is the grid cell's, which rounds as the pass does), so the
    round keeps both ends.
    """
    rs = np.asarray(r_grid, dtype=float)
    xs = np.asarray(gamma_over_G_grid, dtype=float)
    if rs.ndim != 1 or xs.ndim != 1:
        raise InvalidParams(f"grids must be 1-D, got shapes {rs.shape} and "
                            f"{xs.shape}")
    if rs.size == 0 or xs.size == 0:
        raise InvalidParams("grids must be nonempty")
    if np.isnan(rs).any() or not (np.diff(rs) > 0.0).all():
        raise InvalidParams(
            "the pulse-area grid must increase strictly, with no NaN")
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
        # the r-free factors once; each pass evaluates only the part of the
        # witness that depends on r
        with np.errstate(over="ignore", invalid="ignore"):
            co = _coefficients(xs[i[bisect]], float(n0), float(n))

        sign = row[i[bisect], j[bisect]]
        done = 0
        while done < BISECTION_ROUNDS:
            mid = 0.5 * (lo + hi)
            if not ((lo < mid) & (mid < hi)).any():
                break  # every bracket is down to adjacent floats
            rounds = min(PASS_ROUNDS, BISECTION_ROUNDS - done)
            lo, hi = _bisection_pass(lo, hi, co, sign, rounds)
            done += rounds
    r_cross = rs[j]
    r_cross[bisect] = 0.5 * (lo + hi)
    contour = tuple(zip(r_cross.tolist(), xs[i].tolist()))
    return SteeringRegion(E, contour)
