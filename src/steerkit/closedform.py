"""Analytic second moments and steering values of the pulsed reduced model.

Everything here is a function of the dimensionless pulse area ``r = G tau``,
the damping ratio ``x = gamma/G``, the gain fractions ``G_j/G``, and the two
thermal occupations ``(n0, n)``.  The moment formulas are definitions; the
steering values are conditional variances computed from them, evaluated in
an algebraically equivalent expanded form that stays accurate where the
naive ``var - cov^2/var`` subtraction loses all significant digits (large
pulse area with a hot mirror).

Conventions: symmetric (Weyl) ordering, vacuum variance 1/2, quadratures
``X = (a + a^dag)/sqrt(2)`` and ``P = (a - a^dag)/(i sqrt(2))``.  By the
phase symmetry of the model every mode has equal X and P variance and the
only nonzero mirror-field correlations are of X-P type, so each steering
value is a single conditional variance and simultaneously the product of
the two minimized inference standard deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, GainNotPositive, InvalidParams
from .model import DerivedQuantities

# Factors of the form (polynomial in r) / (e^{2r}-1) are evaluated by short
# Taylor series below this pulse area to dodge the removable singularity.
SERIES_CROSSOVER = 1e-4

# Beyond this pulse area e^{2r} overflows; closed asymptotes take over.
LARGE_R = 350.0

# Above this pulse area the witnesses divide their terms by u = e^{2r} - 1
# before multiplying: products such as a*u overflow short of LARGE_R once
# the occupations are large.  Below it the terms are formed as written.
SCALED_R = 100.0


def _gain_series(u):
    """Taylor series of ``gain_filter_ratio`` in ``u = 2r``, for floats and
    arrays alike."""
    u2 = u * u
    return 2.0 * (1.0 + u / 2.0 + u2 / 12.0 - u2 * u2 / 720.0
                  + u2 * u2 * u2 / 30240.0)


def gain_filter_ratio(r: float) -> float:
    """``4 r e^{2r} / (e^{2r} - 1)``, limit 2 at r = 0."""
    u = 2.0 * r
    if r < SERIES_CROSSOVER:
        return _gain_series(u)
    return 4.0 * r * math.exp(u) / math.expm1(u)


def decay_filter_ratio(r: float) -> float:
    """``2 r / (e^{2r} - 1)``, limit 1 at r = 0."""
    u = 2.0 * r
    if r < SERIES_CROSSOVER:
        u2 = u * u
        return 1.0 - u / 2.0 + u2 / 12.0 - u2 * u2 / 720.0 \
            + u2 * u2 * u2 / 30240.0
    return u / math.expm1(u)


def amplified_noise_factor(r: float) -> float:
    """``e^{2r} + 1 - 4 r e^{2r}/(e^{2r}-1)``, vanishing like (4/3) r^2."""
    u = 2.0 * r
    if r < SERIES_CROSSOVER:
        u2 = u * u
        return u2 / 3.0 + u2 * u / 6.0 + 2.0 * u2 * u2 / 45.0 \
            + u2 * u2 * u / 120.0
    return 2.0 + math.expm1(u) - gain_filter_ratio(r)


def coherence_factor(r: float) -> float:
    """``e^{2r} (sinh 2r - 2r) / (e^{2r} - 1)``, vanishing like (2/3) r^2.

    Written as ``(sinh u - u) / (1 - e^{-u})`` to avoid the e^{4r}
    intermediate that would overflow long before the value itself does.
    """
    u = 2.0 * r
    if r < SERIES_CROSSOVER:
        u2 = u * u
        return u2 / 6.0 + u2 * u / 12.0 + u2 * u2 / 45.0 \
            + u2 * u2 * u / 240.0
    return (math.sinh(u) - u) / (-math.expm1(-u))


def _check_inputs(r: float, x: float, n0: float, n: float) -> None:
    if not r >= 0.0:
        raise InvalidParams(f"pulse area r must be >= 0, got {r!r}")
    if not x >= 0.0:
        raise InvalidParams(f"gamma_over_G must be >= 0, got {x!r}")
    if not n0 >= 0.0:
        raise InvalidParams(f"n0 must be >= 0, got {n0!r}")
    if not n >= 0.0:
        raise InvalidParams(f"n must be >= 0, got {n!r}")


def _ratios(dq: DerivedQuantities) -> tuple[float, float, float]:
    """(gamma/G, G1/G, G2/G) with the gain-positivity guard."""
    if not dq.G > 0.0:
        raise GainNotPositive(f"net gain G = {dq.G!r} must be positive")
    return (dq.G1 + dq.G2 - dq.G) / dq.G, dq.G1 / dq.G, dq.G2 / dq.G


@dataclass(frozen=True)
class MomentSet:
    """Named second moments of the output modes, symmetric ordering.

    X and P variances coincide for every mode and the X-P cross covariances
    coincide pairwise (``<X_m, P_j> = <P_m, X_j>``), so one entry of each
    pair is stored.  All other cross moments vanish.
    """

    var_Xm_out: float
    var_X1_out: float
    var_X2_out: float
    var_XW_out: float
    cov_Xm_P1: float
    cov_Xm_P2: float
    cov_Xm_PW: float

    def as_dict(self) -> dict[str, float]:
        return {
            "var_Xm_out": self.var_Xm_out,
            "var_X1_out": self.var_X1_out,
            "var_X2_out": self.var_X2_out,
            "var_XW_out": self.var_XW_out,
            "cov_Xm_P1": self.cov_Xm_P1,
            "cov_Xm_P2": self.cov_Xm_P2,
            "cov_Xm_PW": self.cov_Xm_PW,
        }


def moment_set(dq: DerivedQuantities, n0: float, n: float) -> MomentSet:
    """Evaluate the full closed-form moment set at pulse area ``dq.r``.

    The mirror output mode is the mirror amplitude at the end of the pulse;
    the cavity output modes and the collective symmetric mode W are the
    matched exponential temporal modes of the emitted fields.
    """
    x, f1, f2 = _ratios(dq)
    r = dq.r
    _check_inputs(r, x, n0, n)

    u = math.expm1(2.0 * r)
    a = n0 + 1.0 + x * (n + 1.0)
    b = 0.5 + x * (n + 1.0)
    kr = gain_filter_ratio(r)
    amp = amplified_noise_factor(r)

    var_m = (n0 + 0.5) + a * u
    var_1 = 0.5 + f1 * (n0 + 1.0) * u + f1 * x * (n + 1.0) * amp
    var_2 = 0.5 + f2 * (n0 + 1.0) * u + f2 * x * (n + 1.0) * amp
    var_W = (1.0 + x) ** 2 * (a * u + b) + x * b * (x - (1.0 + x) * kr)

    if r == 0.0:
        cov_1 = cov_2 = cov_W = 0.0
    else:
        er_su = math.exp(r) * math.sqrt(u)
        common = n0 + 1.0 + x * (n + 1.0) * (1.0 - decay_filter_ratio(r))
        cov_1 = -math.sqrt(f1) * er_su * common
        cov_2 = -math.sqrt(f2) * er_su * common
        cov_W = -(1.0 + x) * er_su * a \
            + x * (2.0 * r * math.exp(r) / math.sqrt(u)) * b

    return MomentSet(
        var_Xm_out=var_m,
        var_X1_out=var_1,
        var_X2_out=var_2,
        var_XW_out=var_W,
        cov_Xm_P1=cov_1,
        cov_Xm_P2=cov_2,
        cov_Xm_PW=cov_W,
    )


def cross_correlation(dq: DerivedQuantities, n0: float, n: float) -> float:
    """Magnitude of the inter-mode output coherence ``|<A1out^dag A2out>|``.

    Nonzero for any r > 0; both the mirror damping and the thermal noises
    feed it constructively.
    """
    x, f1, f2 = _ratios(dq)
    _check_inputs(dq.r, x, n0, n)
    u = math.expm1(2.0 * dq.r)
    return math.sqrt(f1 * f2) * ((n0 + 1.0) * u
                                 + 2.0 * (n + 1.0) * x * coherence_factor(dq.r))


def _plateau(x, b):
    """Large-r limit of the collective witness for damping ratio ``x > 0``;
    ``b = 1/2 + x (n + 1)``."""
    return x * x * b / (1.0 + x) ** 2


def _collective_terms(r, x, n0, n, u, kr, scaled=False):
    """``(var_XW_out, numerator / u)`` of the collective witness.

    ``u = e^{2r} - 1`` and ``kr = gain_filter_ratio(r)`` are passed in, so
    the same arithmetic serves floats and numpy arrays.  The numerator of
    ``var_Xm_out - cov_Xm_PW^2 / var_XW_out`` is expanded so that no
    catastrophic cancellation occurs anywhere in parameter space.  With
    ``scaled`` (for ``r > SCALED_R``) both terms come divided by ``u``, so
    no product with ``u`` is formed and nothing overflows below
    ``LARGE_R``.
    """
    a = n0 + 1.0 + x * (n + 1.0)
    b = 0.5 + x * (n + 1.0)
    rterm = 16.0 * x * x * b * b * r * r \
        + 8.0 * x * b * (2.0 * n0 + 1.0) * (1.0 + x) * r
    c = 2.0 * b * (2.0 * n0 + 1.0) * (2.0 * x * x + 2.0 * x + 1.0)
    if scaled:
        return ((1.0 + x) ** 2 * (a + b / u)
                + x * b * (x - (1.0 + x) * kr) / u,
                4.0 * x * x * a * b + (c - rterm * (1.0 + 1.0 / u)) / u)
    var_W = (1.0 + x) ** 2 * (a * u + b) \
        + x * b * (x - (1.0 + x) * kr)
    return var_W, 4.0 * x * x * a * b * u + c - rterm * (1.0 + 1.0 / u)


def collective_steering_value(r: float | np.ndarray,
                              gamma_over_G: float | np.ndarray,
                              n0: float | np.ndarray, n: float | np.ndarray,
                              ) -> float | np.ndarray:
    """Steering witness of the mirror given the collective mode W.

    Equals ``var_Xm_out - cov_Xm_PW^2 / var_XW_out`` from ``moment_set``,
    evaluated through the expanded numerator of that rational function so
    no catastrophic cancellation occurs anywhere in parameter space.  For
    zero damping the expression reduces exactly to

        ``(n0 + 1/2) / (2 (n0 + 1) (e^{2r} - 1) + 1)``.

    Values below 1/2 witness steering of the mirror by W.  The collective
    mode is ``W_out = sqrt(G1/G) A_1_out + sqrt(G2/G) A_2_out
    + i sqrt(gamma/G) B~^dag``, where ``B~`` is the mirror-bath input
    filtered with the output envelope over the pulse.  Since
    ``[b(tau), B~^dag] = -sqrt(2x) sqrt(2/(e^{2r}-1)) r e^r`` with
    ``x = gamma/G``, W does not commute with the mirror's end-of-pulse
    quadratures when gamma > 0.  The README overview describes W as a
    combination of the cavity outputs alone; the README records this
    discrepancy as open.

    Accepts numpy arrays: when ``r`` is an ``ndarray`` it carries the grid
    shape (pass it at full shape, e.g. from ``np.meshgrid``), the other
    arguments broadcast against it, and the result is an array of that
    shape.  Cells outside the domain (a negative or NaN argument) or with
    a non-positive ``var_XW_out`` come out NaN instead of raising; the
    float call on such a cell raises the error that explains it.  Array
    cells agree with the float calls to rounding: numpy's ``exp`` and
    ``expm1`` are not the C library's.
    """
    if isinstance(r, np.ndarray):
        return _collective_array(r, gamma_over_G, n0, n)
    x = gamma_over_G
    _check_inputs(r, x, n0, n)
    if r == 0.0:
        return n0 + 0.5
    if r > LARGE_R:
        # e^{2r} overflows; the witness has already reached its plateau
        if x == 0.0:
            return 0.0
        return _plateau(x, 0.5 + x * (n + 1.0))

    var_W, num_over_u = _collective_terms(
        r, x, n0, n, math.expm1(2.0 * r), gain_filter_ratio(r), r > SCALED_R)
    if not var_W > 0.0:
        raise DegenerateVariance(f"var_XW_out = {var_W!r} is not positive")
    return num_over_u / (4.0 * var_W)


def _collective_array(r, x, n0, n) -> np.ndarray:
    """``collective_steering_value`` cell by cell over the shape of ``r``,
    one masked numpy expression per branch.  Scalar arguments stay scalars,
    which numpy combines with arrays faster than broadcast copies."""
    r = np.asarray(r, dtype=float)
    x, n0, n = (np.broadcast_to(np.asarray(v, dtype=float), r.shape)
                if np.ndim(v) else float(v) for v in (x, n0, n))

    def at(v, cells):
        return v[cells] if isinstance(v, np.ndarray) else v

    E = np.full(r.shape, np.nan)
    ok = (r >= 0.0) & (x >= 0.0) & (n0 >= 0.0) & (n >= 0.0)

    zero = ok & (r == 0.0)
    E[zero] = at(n0, zero) + 0.5

    big = ok & (r > LARGE_R)
    if big.any():
        xb = at(x, big)
        E[big] = np.where(xb == 0.0, 0.0,
                          _plateau(xb, 0.5 + xb * (at(n, big) + 1.0)))

    mid = ok & (r > 0.0) & (r <= LARGE_R)
    bands = [(mid, False)]
    if (r > SCALED_R).any():  # only grids reaching SCALED_R pay the split
        hi = mid & (r > SCALED_R)
        bands = [(mid & ~hi, False), (hi, True)]
    for cells, scaled in bands:
        rm = r[cells]
        u2 = 2.0 * rm
        u = np.expm1(u2)
        series = rm < SERIES_CROSSOVER
        kr = np.where(series, _gain_series(u2), 0.0)
        direct = ~series
        kr[direct] = 4.0 * rm[direct] * np.exp(u2[direct]) / u[direct]
        # overflow to inf passes silently, as in float arithmetic
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            var_W, num_over_u = _collective_terms(
                rm, at(x, cells), at(n0, cells), at(n, cells), u, kr, scaled)
            E[cells] = np.where(var_W > 0.0, num_over_u / (4.0 * var_W),
                                np.nan)
    return E


def single_steering_value(r: float, gamma_over_G: float, n0: float, n: float,
                          Gj_over_G: float) -> float:
    """Steering witness of the mirror given one cavity output mode alone.

    Equals ``var_Xm_out - cov_Xm_Pj^2 / var_Xj_out`` evaluated through the
    expanded numerator.  ``Gj_over_G`` is the gain fraction of the measured
    mode; swapping the two fractions swaps the two witnesses exactly.
    """
    x = gamma_over_G
    f = Gj_over_G
    _check_inputs(r, x, n0, n)
    if not 0.0 <= f <= 1.0 + x:
        raise InvalidParams(f"Gj_over_G = {f!r} outside [0, 1 + gamma/G]")
    if r == 0.0:
        return n0 + 0.5
    if r > LARGE_R:
        if f == 0.0:
            return math.inf
        return (2.0 * f * x * (n + 1.0) - f + 1.0) / (2.0 * f)

    u = math.expm1(2.0 * r)
    s = u if r > SCALED_R else 1.0  # divides exactly by 1 below SCALED_R
    a = n0 + 1.0 + x * (n + 1.0)
    var_j = 0.5 / s + f * (n0 + 1.0) * (u / s) \
        + f * x * (n + 1.0) * (amplified_noise_factor(r) / s)
    if not var_j > 0.0:
        raise DegenerateVariance(f"var_Xj_out = {var_j!r} is not positive")
    rterm = 16.0 * f * x * x * (n + 1.0) ** 2 * r * r \
        + 8.0 * f * x * (n + 1.0) * (2.0 * n0 + 1.0) * r
    num_over_u3 = (2.0 * a * (2.0 * f * x * (n + 1.0) - f + 1.0) * (u / s)
                   + (2.0 * n0 + 1.0) * (4.0 * f * x * (n + 1.0) + 1.0) / s
                   - rterm / s - rterm / u / s)
    return num_over_u3 / (4.0 * var_j)


def steering_collective(dq: DerivedQuantities, n0: float, n: float) -> float:
    """Collective steering witness at the parameters of ``dq``."""
    x, _, _ = _ratios(dq)
    return collective_steering_value(dq.r, x, n0, n)


def steering_single(dq: DerivedQuantities, n0: float, n: float,
                    j: int) -> float:
    """Single-mode steering witness for cavity output mode ``j`` (1 or 2)."""
    x, f1, f2 = _ratios(dq)
    if j == 1:
        return single_steering_value(dq.r, x, n0, n, f1)
    if j == 2:
        return single_steering_value(dq.r, x, n0, n, f2)
    raise InvalidParams(f"mode index j must be 1 or 2, got {j!r}")


def threshold_r(n0: float) -> float:
    """Minimal pulse area for collective steering of a thermal mirror.

    ``r_th = ln[(2 n0 + 1)/(n0 + 1)] / 2``; zero for a ground-state mirror
    and approaching ``ln(2)/2`` for large occupation.  At zero damping the
    collective witness crosses 1/2 exactly there.
    """
    if not n0 >= 0.0:
        raise InvalidParams(f"n0 must be >= 0, got {n0!r}")
    return 0.5 * math.log1p(n0 / (n0 + 1.0))
