"""Analytic second moments and steering values of the pulsed reduced model.

Everything here is a function of the dimensionless pulse area ``r = G tau``,
the damping ratio ``x = gamma/G``, the gain split ``G1/G2`` (the single-mode
witness takes the measured mode's fraction ``G_j/G`` instead), and the two
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

import numpy as np

from .errors import DegenerateVariance, InvalidParams

# Beyond this pulse area e^{2r} overflows; closed asymptotes take over.
LARGE_R = 350.0

# Below this pulse area sinh(r) - r is summed as its Taylor series.
SINH_SERIES_R = 0.5

# Above this pulse area the witnesses divide their terms by u = e^{2r} - 1
# before multiplying: products such as a*u overflow short of LARGE_R once
# the occupations are large.  Below it the terms are formed as written.
SCALED_R = 100.0


def _sinh_series(y2):
    """``(sinh y - y) / y^3`` as its Taylor polynomial in ``y2 = y^2``
    through y^10, for floats and arrays alike; within 1.1e-15 relative
    below ``y = SINH_SERIES_R``."""
    return 1.0 / 6.0 + y2 * (1.0 / 120.0 + y2 * (
        1.0 / 5040.0 + y2 * (1.0 / 362880.0 + y2 * (
            1.0 / 39916800.0 + y2 / 6227020800.0))))


def gain_filter_ratio(r: float) -> float:
    """``4 r e^{2r} / (e^{2r} - 1)``, limit 2 at r = 0; past ``LARGE_R``
    written as ``4 r / (1 - e^{-2r})``, as ``4 r e^{2r}`` leaves the float
    range near r = 351.27.  ``expm1`` keeps both forms within 2 ulps at
    every r > 0."""
    if r == 0.0:
        return 2.0
    u = 2.0 * r
    if r > LARGE_R:
        return 4.0 * r / -math.expm1(-u)
    return 4.0 * r * math.exp(u) / math.expm1(u)


def coherence_factor(r: float) -> float:
    """``e^{2r} (sinh 2r - 2r) / (e^{2r} - 1)``, vanishing like (2/3) r^2.

    Written as ``(sinh u - u) / (1 - e^{-u})`` with ``u = 2r`` to avoid the
    e^{4r} intermediate that would overflow long before the value itself
    does.  Below ``SINH_SERIES_R``, where ``sinh u - u`` cancels, it is
    ``r^2 ((sinh r - r)/r^3 cosh r + 2 (sinh(r/2)/r)^2) gain_filter_ratio(r)
    / 2``, a sum of positive terms.  Twice this is the amplified noise
    ``e^{2r} + 1 - gain_filter_ratio(r)`` of the cavity output variances.
    """
    if r == 0.0:
        return 0.0
    if r < SINH_SERIES_R:
        h = math.sinh(0.5 * r) / r
        return r * r * (_sinh_series(r * r) * math.cosh(r) + 2.0 * h * h) \
            * (gain_filter_ratio(r) / 2.0)
    u = 2.0 * r
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


def _overflow(r: float) -> InvalidParams:
    return InvalidParams(f"closed-form moments overflow at pulse area "
                         f"r = {r!r}")


def _growth(r: float) -> float:
    """``u = e^{2r} - 1`` for the moment formulas, which have no asymptote:
    past r ~ 354.9 it is not a float, and ``InvalidParams`` says so."""
    try:
        return math.expm1(2.0 * r)
    except OverflowError:
        raise _overflow(r) from None


def _gain_fractions(x: float, G1_over_G2: float) -> tuple[float, float]:
    """``(G1/G, G2/G)``: the gain sum ``1 + x`` split as ``G1_over_G2``."""
    if not G1_over_G2 > 0.0:
        raise InvalidParams(f"G1_over_G2 must be > 0, got {G1_over_G2!r}")
    gsum = 1.0 + x
    f2 = gsum / (1.0 + G1_over_G2)
    return gsum - f2, f2


def output_block(r: float, gamma_over_G: float, n0: float, n: float, *,
                 G1_over_G2: float = 1.0) -> np.ndarray:
    """The (6, 6) covariance of the output modes (A_m_out, A_1_out, A_2_out).

    Rows and columns are X and P per mode, in that mode order: the layout
    of the oracle's ``dynamics.OutputCovariance`` over the same modes, so
    ``S[0, 3]`` is ``<X_m, P_1>`` and ``S[2, 4]`` is ``<X_1, X_2>``.  The
    mirror output mode is the mirror amplitude at the end of the pulse; the
    cavity output modes are the matched exponential temporal modes of the
    emitted fields.  The three commute with each other.  By the phase
    symmetry of the model every mode has equal X and P variance,
    ``<X_m, P_j> = <P_m, X_j>`` and ``<X_1, X_2> = <P_1, P_2>``; the
    mirror's X-X and P-P moments with the fields, and the X-P moments
    between or within the fields, vanish.  ``<X_1, X_2>`` is the inter-mode
    output coherence ``|<A1out^dag A2out>|`` (3.7209 at r = 1,
    gamma/G = 0.1), nonzero for any r > 0: the mirror damping and the
    thermal noises feed it constructively.  The collective mode W is not a
    mode of the block, as it carries the mirror's bath input (``_w_moments``
    gives its two moments).

    Raises ``InvalidParams`` outside the domain and where an entry is not a
    finite float: every r past ~354.9, and somewhat below it at large
    occupations.
    """
    x = gamma_over_G
    _check_inputs(r, x, n0, n)
    f1, f2 = _gain_fractions(x, G1_over_G2)
    u = _growth(r)
    amp = 2.0 * coherence_factor(r)
    m = (n0 + 0.5) + (n0 + 1.0 + x * (n + 1.0)) * u
    v1 = 0.5 + f1 * (n0 + 1.0) * u + f1 * x * (n + 1.0) * amp
    v2 = 0.5 + f2 * (n0 + 1.0) * u + f2 * x * (n + 1.0) * amp
    if r == 0.0:
        c1 = c2 = 0.0
    else:
        er_su = math.exp(r) * math.sqrt(u)
        common = n0 + 1.0 + x * (n + 1.0) * (1.0 - 2.0 * r / u)
        c1 = -math.sqrt(f1) * er_su * common
        c2 = -math.sqrt(f2) * er_su * common
    c12 = math.sqrt(f1 * f2) * ((n0 + 1.0) * u
                                + 2.0 * (n + 1.0) * x * coherence_factor(r))
    if not all(map(math.isfinite, (m, v1, v2, c1, c2, c12))):
        raise _overflow(r)
    return np.array([[m, 0.0, 0.0, c1, 0.0, c2],
                     [0.0, m, c1, 0.0, c2, 0.0],
                     [0.0, c1, v1, 0.0, c12, 0.0],
                     [c1, 0.0, 0.0, v1, 0.0, c12],
                     [0.0, c2, c12, 0.0, v2, 0.0],
                     [c2, 0.0, 0.0, c12, 0.0, v2]])


def _plateau(x, b):
    """Large-r limit of the collective witness for damping ratio ``x > 0``;
    ``b = 1/2 + x (n + 1)``."""
    return x * x * b / ((1.0 + x) * (1.0 + x))


def _coefficients(x, n0, n) -> tuple:
    """The factors of the collective witness that do not depend on r:
    ``(x, n0, a, b, c, 16 x^2 b^2, 8 x b (2 n0 + 1) (1 + x), 4 x^2 a b,
    (1 + x)^2, x b)`` with ``a = n0 + 1 + x (n + 1)``, ``b = 1/2 + x (n +
    1)`` and ``c = 2 b (2 n0 + 1) (2 x^2 + 2 x + 1)``.  Each is the
    left-to-right prefix of a product in ``_collective_terms``, so computing
    it once for many r changes no bit.  Squares are products, as a float
    ``**`` is C ``pow``: it rounds otherwise and raises ``OverflowError``."""
    a = n0 + 1.0 + x * (n + 1.0)
    b = 0.5 + x * (n + 1.0)
    return (x, n0, a, b,
            2.0 * b * (2.0 * n0 + 1.0) * (2.0 * x * x + 2.0 * x + 1.0),
            16.0 * x * x * b * b, 8.0 * x * b * (2.0 * n0 + 1.0) * (1.0 + x),
            4.0 * x * x * a * b, (1.0 + x) * (1.0 + x), x * b)


def _var_W(co: tuple, u, kr):
    """``var_XW_out`` from ``_coefficients``, with ``u = e^{2r} - 1`` and
    ``kr = gain_filter_ratio(r)``."""
    x, _, a, b, _, _, _, _, g2, xb = co
    return g2 * (a * u + b) + xb * (x - (1.0 + x) * kr)


def _w_moments(r: float, x: float, n0: float, n: float) -> tuple[float, float]:
    """``(var_XW_out, cov_Xm_PW)`` of the collective mode W at a point that
    ``output_block`` accepts, or ``InvalidParams`` where one is not a finite
    float.  W is no mode of that block: it carries the mirror's bath input
    (``collective_steering_value``)."""
    u = _growth(r)
    co = _coefficients(x, n0, n)
    var_W = _var_W(co, u, gain_filter_ratio(r))
    if r == 0.0:
        cov_W = 0.0
    else:
        cov_W = -(1.0 + x) * (math.exp(r) * math.sqrt(u)) * co[2] \
            + x * (2.0 * r * math.exp(r) / math.sqrt(u)) * co[3]
    if not (math.isfinite(var_W) and math.isfinite(cov_W)):
        raise _overflow(r)
    return var_W, cov_W


def _collective_terms(co: tuple, r, u, kr, scaled: bool):
    """``(var_XW_out, numerator / u)`` of the collective witness: the part
    that depends on r, from the ``_coefficients`` ``co``, with
    ``u = e^{2r} - 1`` and ``kr = gain_filter_ratio(r)``.  The numerator of
    ``var_Xm_out - cov_Xm_PW^2 / var_XW_out`` is expanded so that no
    catastrophic cancellation occurs anywhere in parameter space.  With
    ``scaled`` (for ``r > SCALED_R``) both terms come divided by ``u``, so
    no product with ``u`` is formed and nothing overflows below ``LARGE_R``.
    """
    x, _, a, b, c, k_rr, k_r, k_u, g2, xb = co
    rterm = k_rr * r * r + k_r * r
    if scaled:
        return (g2 * (a + b / u) + xb * (x - (1.0 + x) * kr) / u,
                k_u + (c - rterm * (1.0 + 1.0 / u)) / u)
    return _var_W(co, u, kr), k_u * u + c - rterm * (1.0 + 1.0 / u)


def collective_steering_value(r: float | np.ndarray,
                              gamma_over_G: float | np.ndarray,
                              n0: float | np.ndarray, n: float | np.ndarray,
                              ) -> float | np.ndarray:
    """Steering witness of the mirror given the collective mode W.

    Equals ``var_Xm_out - cov_Xm_PW^2 / var_XW_out`` (``S[0, 0]`` of
    ``output_block``, and ``_w_moments``), evaluated through the expanded
    numerator of that rational function so no catastrophic cancellation
    occurs anywhere in parameter space.  For
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

    Accepts numpy arrays: when any argument is an ``ndarray`` the four
    broadcast against each other by numpy's rules and the result is a new
    array of their broadcast shape, so a grid is passed on its axes (r as
    a row, gamma/G as a column), or with r as a ``np.broadcast_to`` view
    of the grid's shape, which copies nothing.  An argument is evaluated
    on its own axes: an axis that a broadcast view repeats (stride 0)
    counts once.  The factors that depend on r alone are computed on r's
    axes and those that do not on those of ``(gamma_over_G, n0, n)``; only
    the final expression takes the full shape, so each cell rounds as the
    float call does.  A cell outside the
    domain (a negative or NaN argument), with a non-positive
    ``var_XW_out`` or past the float range is NaN.  A float call is one
    cell: it raises ``InvalidParams`` outside the domain and
    ``DegenerateVariance`` where the cell is NaN.
    """
    if not any(isinstance(v, np.ndarray) for v in (r, gamma_over_G, n0, n)):
        _check_inputs(r, gamma_over_G, n0, n)
        E = _collective_cells(np.float64(r), _coefficients(
            float(gamma_over_G), float(n0), float(n)))
        if np.isnan(E):
            raise DegenerateVariance(
                f"var_XW_out is not positive or a term leaves the float "
                f"range at (r, gamma_over_G, n0, n) = "
                f"{(r, gamma_over_G, n0, n)!r}")
        return float(E)
    args = [np.asarray(v, dtype=float) for v in (r, gamma_over_G, n0, n)]
    shape = np.broadcast(*args).shape
    # a float knob stays a float, which numpy combines with arrays faster
    r = _own_axes(args[0])
    x, n0, n = (_own_axes(a) if a.ndim else float(a) for a in args[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        co = _coefficients(x, n0, n)
    E = _collective_cells(r, co, (x >= 0.0) & (n0 >= 0.0) & (n >= 0.0))
    if E.shape != shape:  # a view's repeated axis the knobs do not span
        E = np.broadcast_to(E, shape).copy()
    return E


def _own_axes(a: np.ndarray) -> np.ndarray:
    """``a`` with each axis of stride 0, which a broadcast view repeats,
    cut to its first entry; the result broadcasts back to ``a``."""
    if all(a.strides):
        return a
    return a[tuple(slice(None, 1) if s == 0 else slice(None)
                   for s in a.strides)]


def _collective_cells(r: np.ndarray, co: tuple, ok=True) -> np.ndarray:
    """The collective witness over the broadcast of ``r`` (a numpy float is
    one cell) and ``co``, the ``_coefficients`` with each entry a scalar or
    an array, so a caller may compute them once for many r.  Each branch of
    r is one numpy expression over the whole broadcast, kept where r lies
    in it.  The least and greatest r decide which branches a call needs (a
    NaN r needs them all), so a call whose r lies in the direct band
    ``(0, SCALED_R]`` builds no per-cell branch mask.  Cells outside the
    mask ``ok`` (skipped when it is True), or with r negative or NaN, are
    NaN."""
    # the least and greatest r, NaN if any r is
    r_lo, r_hi = r.min(initial=np.inf), r.max(initial=-np.inf)
    E = _collective_band(co, r, False)
    if not r_hi <= SCALED_R:  # only grids reaching SCALED_R pay this band
        hi = (r > SCALED_R) & (r <= LARGE_R)
        if hi.any():
            np.copyto(E, _collective_band(co, r, True), where=hi)
    if not (r_lo > 0.0 and r_hi <= LARGE_R):
        x, n0, _, b = co[:4]
        np.copyto(E, n0 + 0.5, where=r == 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            np.copyto(E, np.where(x == 0.0, 0.0, _plateau(x, b)),
                      where=r > LARGE_R)
        np.copyto(E, np.nan, where=~(r >= 0.0))
    if ok is not True and not np.all(ok):
        np.copyto(E, np.nan, where=~np.asarray(ok))
    return E


def _collective_band(co, r: np.ndarray, scaled: bool) -> np.ndarray:
    """The witness as at pulse areas in (0, ``LARGE_R``]:
    ``gain_filter_ratio`` on r's shape and ``_collective_terms`` over the
    broadcast, NaN where ``var_XW_out`` is not positive.  Cells outside
    that range hold values of no meaning."""
    u2 = 2.0 * r
    # overflow to inf passes silently, as in float arithmetic
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = np.expm1(u2)
        kr = 4.0 * r * np.exp(u2) / u
        var_W, num_over_u = _collective_terms(co, r, u, kr, scaled)
        return np.where(var_W > 0.0, num_over_u / (4.0 * var_W), np.nan)


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
        + f * x * (n + 1.0) * (2.0 * coherence_factor(r) / s)
    if not var_j > 0.0:
        raise DegenerateVariance(f"var_Xj_out = {var_j!r} is not positive")
    try:
        # C pow, not a product, which would move E_m1's last digits; past
        # the float range it raises OverflowError
        bath2 = (n + 1.0) ** 2
    except OverflowError:
        raise DegenerateVariance(
            f"(n + 1)^2 leaves the float range at (r, gamma_over_G, n0, n, "
            f"Gj_over_G) = {(r, x, n0, n, f)!r}") from None
    rterm = 16.0 * f * x * x * bath2 * r * r \
        + 8.0 * f * x * (n + 1.0) * (2.0 * n0 + 1.0) * r
    num_over_u3 = (2.0 * a * (2.0 * f * x * (n + 1.0) - f + 1.0) * (u / s)
                   + (2.0 * n0 + 1.0) * (4.0 * f * x * (n + 1.0) + 1.0) / s
                   - rterm / s - rterm / u / s)
    return num_over_u3 / (4.0 * var_j)


def threshold_r(n0: float) -> float:
    """Minimal pulse area for collective steering of a thermal mirror.

    ``r_th = ln[(2 n0 + 1)/(n0 + 1)] / 2``; zero for a ground-state mirror
    and approaching ``ln(2)/2`` for large occupation.  At zero damping the
    collective witness crosses 1/2 exactly there.
    """
    if not n0 >= 0.0:
        raise InvalidParams(f"n0 must be >= 0, got {n0!r}")
    return 0.5 * math.log1p(n0 / (n0 + 1.0))


def _occupation_quadratic(r, x, n0, t, er, dm):
    """``(A, B, C)`` with ``E <= 1/2`` exactly where ``A b^2 + B b + C <= 0``,
    ``b = 1/2 + x (n + 1)``.

    This is ``(numerator / u - 2 var_XW_out) / e^{2r}`` of
    ``_collective_terms``, each factor written as a polynomial in b (with
    ``a = b + n0 + 1/2``).  The r-dependent parts are ``t = 1 - e^{-2r}``,
    ``er = e^{-r}``, ``h = r / (e^{2r} - 1)`` and ``dm = t - 2 r e^{-r}
    = 2 e^{-r} (sinh r - r)``, passed in so that the same arithmetic serves
    floats and numpy arrays; none overflows, so no r needs an asymptote.
    ``A = 4 x^2 (t - 4 r h)``, written as a product so that its r^3
    behaviour at small r is not a difference, is positive and ``C`` is
    negative: one root is positive, and it bounds b.
    """
    d = n0 + 0.5
    g2 = (1.0 + x) * (1.0 + x)
    v = er * er
    h = r * v / t
    A = 4.0 * x * x * dm * (t + 2.0 * (r * er)) / t
    B = (4.0 * n0 * (2.0 * x * x + 2.0 * x + 1.0) * v
         + (4.0 * x * x * d - 2.0 * g2) * t
         - 16.0 * x * (1.0 + x) * n0 * h)
    C = -2.0 * g2 * d * t
    return A, B, C


def max_occupation(r: float | np.ndarray, gamma_over_G: float | np.ndarray,
                   n0: float | np.ndarray) -> float | np.ndarray:
    """Largest bath occupation n with collective steering at pulse area r.

    ``E(r, gamma/G, n0, n) <= 1/2`` exactly for ``n <= max_occupation``: at
    fixed r the condition is a quadratic inequality in n
    (``_occupation_quadratic``), and this is its positive root, taken in
    the cancellation-free form ``q = -(B + sign(B) sqrt(disc)) / 2``.  A
    negative value means no steering even at n = 0.  As r grows it falls
    toward ``n_inf = (1 + 2x) / (2 x^3) - 1`` (x = gamma/G), the bath the
    plateau ``_plateau`` allows; n_inf is 0 at the root x* = 1.1915 of
    ``2x^3 - 2x - 1``.

    Needs r > 0 and gamma/G > 0.  Accepts numpy arrays as
    ``collective_steering_value`` does: out-of-domain cells are NaN, where
    the float call raises ``InvalidParams``.
    """
    x = gamma_over_G
    array = isinstance(r, np.ndarray)
    if not array:
        _check_inputs(r, x, n0, 0.0)
        if not (r > 0.0 and x > 0.0):
            raise InvalidParams(f"max_occupation needs r > 0 and gamma_over_G "
                                f"> 0, got r = {r!r}, gamma_over_G = {x!r}")
    # A underflows to 0 below r ~ 1e-100, where the bound is inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                     under="ignore"):
        er = np.exp(-r)
        t = -np.expm1(-2.0 * r)
        dm = np.where(r < SINH_SERIES_R,
                      2.0 * er * (r * (r * r) * _sinh_series(r * r)),
                      t - 2.0 * (r * er))
        A, B, C = _occupation_quadratic(r, x, n0, t, er, dm)
        S = np.sqrt(B * B - 4.0 * A * C) + np.abs(B)
        b = np.where(B < 0.0, S / (2.0 * A), -2.0 * C / S)
        n_max = (b - 0.5) / x - 1.0
    if not array:
        return float(n_max)
    return np.where((r > 0.0) & (x > 0.0) & (n0 >= 0.0), n_max, np.nan)
