"""Steering witnesses from covariance entries, and thresholds.

A witness ``E`` below 1/2 certifies steering of the steered mode by the
measured party.  Witnesses are products of two minimized inference standard
deviations, each read off the covariance entries of one steered and one
party quadrature.  The party measures P against the steered X and X against
the steered P: the model's only mirror-field correlations are of X-P type,
so no rotated pairing does better (a test scans the angles).

The bath threshold over a window of pulse areas is the closed-form bound
``closedform.max_occupation`` at the window's end, where the bound is least,
and its bracket is written down from that bound as a search on n would end
it; the only search here is the contour bisection of ``steering_region``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import (
    _array_call,
    _coefficients,
    _collective_cells,
    _domain_error,
    _real_arrays,
    _reals,
    collective_steering_value,
    max_occupation,
)
from .dynamics import OutputCovariance
from .errors import DegenerateVariance, InvalidParams, NoThreshold

# settings of the threshold and of the contour bisection; the CLI's defaults
# read R_MAX and N_TOL
R_MAX = 10.0  # pulse areas searched: (0, R_MAX]
N_TOL = 0.5  # width of the n bracket of noise_threshold
N_CAP = 1e6  # noise_threshold gives up where steering survives at this n
BISECTION_ROUNDS = 60  # most rounds of steering_region's contour bisection
PASS_ROUNDS = 3  # rounds per witness pass; BISECTION_ROUNDS is a multiple


def steering_product(oc: OutputCovariance, steered_mode: str, party_mode: str,
                     ) -> float | np.ndarray:
    """Steering witness E of ``steered_mode`` given ``party_mode``.

    ``E = sqrt(V_X) sqrt(V_P)``, where ``V_X`` is the inference variance of
    the steered X from the party's P and ``V_P`` that of the steered P from
    the party's X (each clipped at 0 against rounding).  This pairing is
    optimal because the only nonzero mirror-field correlations are of X-P
    type.  Each inference variance is ``Var(s) - Cov(s, p)^2 / Var(p)``,
    the minimum over u of ``Var(s + u p)``.

    On a stack of covariances E is an array with one cell per slice, NaN
    where the slice is NaN or a party variance is below 1e-15.  A single
    covariance is one cell of the same expression, returned as a float;
    where its party variance is below 1e-15 it raises ``_refusal``'s
    ``DegenerateVariance``.
    """
    sig, E = oc.sigma, 1.0
    for sq, pq in (("X", "P"), ("P", "X")):
        s, p = oc.index(steered_mode, sq), oc.index(party_mode, pq)
        var_p, cov = sig[..., p, p], sig[..., s, p]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            v = sig[..., s, s] - cov * cov / var_p
        E = np.where(var_p < 1e-15, math.nan,
                     E * np.sqrt(np.where(v < 0.0, 0.0, v)))
    if E.ndim == 0 and (refused := _refusal(oc, party_mode)) is not None:
        raise refused
    return E if E.ndim else float(E)


def _refusal(oc: OutputCovariance, party_mode: str, at: tuple = ()):
    """The error that refuses a witness of ``party_mode`` on ``oc``'s
    covariance, or on its slice ``at`` of a stack: the ``DegenerateVariance``
    of the first party quadrature, in ``steering_product``'s order, whose
    variance is below 1e-15; None where there is none."""
    for pq in ("P", "X"):
        var_p = oc.sigma[at + (oc.index(party_mode, pq),) * 2]
        if var_p < 1e-15:
            return DegenerateVariance(f"party quadrature {(party_mode, pq)!r} "
                                      f"has variance {float(var_p)!r}")


@dataclass(frozen=True)
class ThresholdResult:
    """``noise_threshold``'s occupation and its bracket: floats, or arrays
    over an array of damping ratios, NaN on each refused cell."""

    value: float | np.ndarray
    bracket: tuple


def noise_threshold(gamma_over_G, n0: float, r_max: float = R_MAX,
                    tol: float = N_TOL) -> ThresholdResult:
    """Largest bath occupation with collective steering at every pulse area.

    For a ground-state mirror E <= 1/2 holds at pulse area r exactly up to
    ``closedform.max_occupation``, which falls monotonically in r, so the
    condition ``E <= 1/2 at every r in (0, r_max]`` holds exactly for
    n <= n*, the bound at ``r_max``.  The bracket is the one a search on
    that condition ends with: double n from 1 while n <= n*, then halve
    the bracket, comparing each midpoint with n*, down to width ``tol`` or
    to adjacent floats.  It is written down instead of searched.  With
    n* = m 2^e, m in [0.5, 1), the doubling's last bracket has width
    w0 = 1 for n* < 1 and 2^(e-1) otherwise.  The halving narrows a w0
    wider than ``tol`` to w, the largest power of two <= ``tol`` (else
    w = w0), but stops early at w = ``np.spacing(n*)``, where no float
    lies inside the bracket.  Every midpoint is a multiple of the
    current width and lo <= n* < hi holds throughout, so the bracket is
    ``lo = floor(n*/w) w``, ``hi = lo + w``, and ``value = (lo + hi)/2``;
    below ``N_CAP`` the division by a power of two, the floor, the product
    and the sum are exact, so these are the search's bits.

    ``gamma_over_G`` is a float or, for an array call
    (``closedform._array_call``), a numpy array, a list or a tuple of a
    real dtype; the other arguments are real numbers (``numbers.Real``),
    and anything else, a numeric string included, raises
    ``InvalidParams``.  A float call raises its cell's refusal
    (``_threshold_refusal``): ``InvalidParams`` for arguments outside the
    domain, and ``NoThreshold`` when n* < 0, so even n = 0 fails (too much
    damping, or a warm mirror: with n0 > 0 the witness tends to n0 + 1/2 >
    1/2 as r -> 0, so the condition fails at every n), or when n* >=
    ``N_CAP``, so steering survives at the cap (damping too weak to set a
    bound).  An array call is NaN on each refused cell.
    """
    _reals(n0=n0, r_max=r_max, tol=tol)
    _real_arrays(gamma_over_G=gamma_over_G)
    x = np.asarray(gamma_over_G, dtype=float)
    n_star, refused = _threshold_refusal(x, n0, r_max, tol)
    array = _array_call(gamma_over_G)
    if refused and not array:
        raise refused[0]
    # the doubling's last width, narrowed to the largest power of two
    # <= tol, but not below the spacing of the floats at n*
    wide = np.ldexp(0.5, np.maximum(np.frexp(n_star)[1], 1))
    w = np.maximum(np.minimum(wide, math.ldexp(0.5, math.frexp(tol)[1])),
                   np.spacing(n_star))
    lo = np.floor(n_star / w) * w
    hi = lo + w
    if not array:
        lo, hi = float(lo), float(hi)
    return ThresholdResult(0.5 * (lo + hi), (lo, hi))


def _threshold_refusal(x: np.ndarray, n0: float, r_max: float,
                       tol: float) -> tuple:
    """The bound n* at ``r_max`` over gamma/G = ``x`` (an array), NaN on
    each cell that ``noise_threshold`` refuses, and the errors that refuse
    those cells, in row-major order: the first that holds of
    ``InvalidParams`` for gamma/G outside (0, 1), for ``r_max``, ``tol``
    and ``n0``, then ``NoThreshold`` for a warm mirror, n* < 0 and
    n* >= ``N_CAP``.  A text reads the cell's gamma/G as a Python float."""
    n_star = max_occupation(r_max, x, n0)
    # (where it holds, error, text); a text's {v} is the cell's gamma/G
    refusals = (
        (~((0.0 < x) & (x < 1.0)), InvalidParams,
         "gamma_over_G must be in (0, 1), got {v!r}"),
        (not 0.0 < r_max < math.inf, InvalidParams,
         f"r_max must be finite and > 0, got {r_max!r}"),
        (not tol > 0.0, InvalidParams, f"tol must be > 0, got {tol!r}"),
        (not n0 >= 0.0, InvalidParams, f"n0 must be >= 0, got {n0!r}"),
        (n0 > 0.0, NoThreshold,
         f"no collective steering over all of (0, {r_max}] for a warm "
         f"mirror: E tends to n0 + 1/2 > 1/2 as r -> 0 (n0 = {n0})"),
        (~(n_star >= 0.0), NoThreshold,
         f"no collective steering over (0, {r_max}] even at n = 0 "
         "for gamma/G = {v}"),
        (n_star >= N_CAP, NoThreshold,
         f"steering survives past the n = {N_CAP:.3g} search cap for "
         "gamma/G = {v}; in the zero-damping limit it survives any bath "
         "occupation"))
    first = np.full(x.shape, len(refusals))  # the first that holds per cell
    for k in reversed(range(len(refusals))):
        first = np.where(refusals[k][0], k, first)
    refused = first < len(refusals)
    return np.where(refused, math.nan, n_star), [
        refusals[k][1](refusals[k][2].format(v=v))
        for k, v in zip(first[refused].tolist(), x[refused].tolist())]


def r_crossing(gamma_over_G: float, n0: float, n: float) -> float:
    """Smallest pulse area in (0, ``R_MAX``] where the collective witness
    drops to 1/2: the first point of ``steering_region``'s contour over
    4097 pulse areas in [0, ``R_MAX``].  A first point at r = 0 (n0 below
    ~1e-16, so that E(0) = n0 + 1/2 rounds to 1/2) is not a crossing.
    Each argument is a real number (``numbers.Real``); anything else
    raises ``InvalidParams``."""
    _reals(gamma_over_G=gamma_over_G, n0=n0, n=n)
    if not n0 > 0.0:
        raise InvalidParams(
            f"crossing search needs n0 > 0 (witness starts above 1/2), "
            f"got n0 = {n0!r}")
    if (error := _domain_error(0.0, gamma_over_G, n0, n)) is not None:
        raise error
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


def _bisection_pass(lo: np.ndarray, mid: np.ndarray, hi: np.ndarray,
                    co: tuple, sign: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``PASS_ROUNDS`` rounds of the contour bisection from one witness pass.

    The pass evaluates every midpoint the rounds can reach, 7 per bracket
    (``2**PASS_ROUNDS - 1``), built level by level as ``0.5 * (lo + hi)``
    of the bracket each one splits; the first level is ``mid``, which the
    caller has formed so.  Each bracket then walks the rounds on the signs
    of those cells: it keeps the midpoint as its lower end where ``E -
    1/2`` has the lower end's ``sign`` there, and as its upper end
    otherwise (a NaN midpoint counts as past the crossing).  So it meets
    the midpoints and ends that one round per pass would.  ``co``, the
    witness's r-free factors, and ``sign`` hold one row per midpoint of a
    bracket.
    """
    width, m = 1 << PASS_ROUNDS, lo.size
    ends = np.empty((width + 1, m))  # row k: each bracket's k-th point
    ends[0], ends[width >> 1], ends[width] = lo, mid, hi
    for level in range(1, PASS_ROUNDS):
        step = width >> level
        ends[step >> 1::step] = 0.5 * (ends[:-1:step] + ends[step::step])
    E = _collective_cells(ends[1:-1], co)
    up = ((E - 0.5) * sign > 0.0).ravel()
    # walk each bracket down the rounds, as a flat index into ends: the
    # bracket (ends[k], ends[k + 2 step]) has its midpoint at ends[k + step],
    # row k + step - 1 of up
    at = np.arange(m)
    for level in range(PASS_ROUNDS - 1, -1, -1):
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
    domain (a negative r, gamma/G, n0 or n).  Both grids are 1-D arrays,
    lists or tuples of a real dtype, and the r grid must increase
    strictly; other grids raise ``InvalidParams``.  The contour is found
    per damping-ratio row by bisection between adjacent finite cells with
    opposite sign of E - 1/2; NaN cells never join it, and a cell where E
    is exactly 1/2 joins it as it is.
    All crossing cells are bisected together.  The factors of the witness
    that do not depend on r are computed once (``closedform._coefficients``),
    so a round evaluates only its r-dependent part; a midpoint where it is
    NaN counts as past the crossing.  Each witness pass serves
    ``PASS_ROUNDS`` rounds: it evaluates the 7 midpoints per bracket that
    the next three rounds can reach, and each bracket walks those rounds
    on their signs (``_bisection_pass``); ``closedform`` picks the branch
    of its small-r series from the midpoints a pass gives it.  The rounds
    stop once no bracket has a float strictly inside it, checked before
    each pass, or after ``BISECTION_ROUNDS``, a whole number of passes;
    each contour point is its bracket's midpoint.

    The contour is bit for bit that of one round per pass.  A pass builds
    its midpoints with the same ``0.5 * (lo + hi)`` from the same ends and
    evaluates each with the arithmetic of its own cell, so each walk
    replays the one-round path.  A pass may run up to two rounds past the
    stop, and those change no bracket: a bracket with no float inside has
    its midpoint at one of its ends, where E - 1/2 has that end's sign (a
    grid end's is the grid cell's, which rounds as the pass does), so the
    round keeps both ends.
    """
    _real_arrays(r_grid=r_grid, gamma_over_G_grid=gamma_over_G_grid)
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
        # the r-free factors once, copied to the rows of a pass, so
        # that a pass evaluates only the part of the witness that depends
        # on r and broadcasts no operand
        with np.errstate(over="ignore", invalid="ignore"):
            co = _coefficients(xs[i[bisect]], float(n0), float(n))
        rows = ((1 << PASS_ROUNDS) - 1, lo.size)
        co = tuple(np.broadcast_to(c, rows).copy() if np.ndim(c) else c
                   for c in co)
        sign = np.broadcast_to(row[i[bisect], j[bisect]], rows).copy()
        for _ in range(BISECTION_ROUNDS // PASS_ROUNDS):
            mid = 0.5 * (lo + hi)
            if not ((lo < mid) & (mid < hi)).any():
                break  # every bracket is down to adjacent floats
            lo, hi = _bisection_pass(lo, mid, hi, co, sign)
    r_cross = rs[j]
    r_cross[bisect] = 0.5 * (lo + hi)
    contour = tuple(zip(r_cross.tolist(), xs[i].tolist()))
    return SteeringRegion(E, contour)
