"""Analytic second moments and steering values of the pulsed reduced model.

Everything here is a function of the dimensionless pulse area ``r = G tau``,
the damping ratio ``x = gamma/G``, the gain split ``G1/G2`` (the single-mode
witness takes the measured mode's fraction ``G_j/G`` instead), and the two
thermal occupations ``(n0, n)``.  The moment formulas are definitions; the
steering values are conditional variances computed from them, each
evaluated as one rational expression in factors of r that stay within
[0, 1] (``_r_factors``): it stays accurate where the naive ``var -
cov^2/var`` subtraction loses all significant digits (large pulse area
with a hot mirror), and needs no band or asymptote at any r.

``output_block``, W's two moments (``_w_moments``) and both witnesses take
floats or numpy arrays alike (``_evaluate``): an array call (an argument
a numpy array, a list or a tuple, ``_array_call``) broadcasts its
arguments, evaluates the factors of r alone on r's own axes and those of
the knobs on theirs, and is NaN on every cell outside the domain or past
the float range; a float call is one cell of the same expression, with
the same bits.  Any other argument, a numeric string or a list of them
included, is refused with ``InvalidParams`` before any arithmetic
(``_real_arrays``).  What refuses a NaN cell follows from its arguments
alone (``_refusal``): the domain check's ``InvalidParams``, else the
function's error for a cell past the float range.  A float call raises
it, and a caller of the array form reads it for a NaN cell without
evaluating the cell again.  The branches of the one small-r series are
chosen per call from the bounds of the r it is given (``_branches``),
here alone, under one numpy error state.

Conventions: symmetric (Weyl) ordering, vacuum variance 1/2, quadratures
``X = (a + a^dag)/sqrt(2)`` and ``P = (a - a^dag)/(i sqrt(2))``.  By the
phase symmetry of the model every mode has equal X and P variance and the
only nonzero mirror-field correlations are of X-P type, so each steering
value is a single conditional variance and simultaneously the product of
the two minimized inference standard deviations.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DegenerateVariance, InvalidParams, SteerkitError

# Below this pulse area sinh(r) - r is summed as its Taylor series.
SINH_SERIES_R = 0.5

# The entries (m, v1, v2, c1, c2, c12, 0) of output_block in its (6, 6)
# layout: X and P of A_m_out, A_1_out and A_2_out.
_LAYOUT = np.array([[0, 6, 6, 3, 6, 4], [6, 0, 3, 6, 4, 6],
                    [6, 3, 1, 6, 5, 6], [3, 6, 6, 1, 6, 5],
                    [6, 4, 5, 6, 2, 6], [4, 6, 6, 5, 6, 2]])


def _sinh_series(y2):
    """``(sinh y - y) / y^3`` as its Taylor polynomial in ``y2 = y^2``
    through y^10, for floats and arrays alike; within 1.1e-15 relative
    below ``y = SINH_SERIES_R``."""
    return 1.0 / 6.0 + y2 * (1.0 / 120.0 + y2 * (
        1.0 / 5040.0 + y2 * (1.0 / 362880.0 + y2 * (
            1.0 / 39916800.0 + y2 / 6227020800.0))))


def _bounds(r) -> tuple:
    """The least and greatest r, NaN if any r is."""
    r = np.asarray(r)
    return r.min(initial=np.inf), r.max(initial=-np.inf)


def _branches(z, z_lo, z_hi, below, above):
    """``below()`` where ``z < SINH_SERIES_R`` and ``above()`` elsewhere,
    building only the branches that bounds ``z_lo <= z <= z_hi`` reach
    (both where a bound is NaN), so a caller that knows its bounds makes
    no per-cell choice."""
    if z_lo >= SINH_SERIES_R:
        return above()
    if z_hi < SINH_SERIES_R:
        return below()
    return np.where(z < SINH_SERIES_R, below(), above())


def _r_factors(r, r_lo, r_hi) -> tuple:
    """The factors of r that both witnesses and ``max_occupation`` are
    written in, each within [0, 1] for r > 0, so that no r needs a band or
    an asymptote: ``(t, v, h, q, dm)`` with ``t = 1 - e^{-2r}``, ``v =
    e^{-2r}``, ``h = r v / t = r / (e^{2r} - 1)``, ``q = 2 r e^{-r}`` and
    ``dm = t - q = 2 e^{-r} (sinh r - r)``.  ``dm`` cancels at small r and
    is summed as its series below ``SINH_SERIES_R``; ``r_lo <= r <= r_hi``
    bound r, as its ``_bounds`` do, so that only the branches r reaches are
    built (``_branches``).  Floats and numpy arrays alike, under the caller's
    numpy error state; r = 0 and r = inf give NaN in ``h`` (and in ``q``
    at inf)."""
    er = np.exp(-r)
    t = -np.expm1(-2.0 * r)
    v = er * er
    q = 2.0 * (r * er)
    dm = _branches(r, r_lo, r_hi, lambda: 2.0 * er * (
        r * (r * r) * _sinh_series(r * r)), lambda: t - q)
    return t, v, r * v / t, q, dm


def gain_filter_ratio(r):
    """``4 r e^{2r} / (e^{2r} - 1)``, written as ``4 r / (1 - e^{-2r})`` so
    that no intermediate leaves the float range at any r; 2 at r = 0.
    ``expm1`` keeps it within 2 ulps of mpmath (1.31 measured) at every
    r > 0.  Floats, numpy arrays, lists and tuples alike, as a numpy
    array; anything else raises ``InvalidParams`` (``_real_arrays``)."""
    _real_arrays(r=r)
    r = np.asarray(r, dtype=float)
    return np.divide(4.0 * r, -np.expm1(-2.0 * r),
                     out=np.full(np.shape(r), 2.0), where=r != 0.0)


def coherence_factor(r):
    """``e^{2r} (sinh 2r - 2r) / (e^{2r} - 1)``, vanishing like (2/3) r^2.

    Written as ``(sinh u - u) / (1 - e^{-u})`` with ``u = 2r`` to avoid the
    e^{4r} intermediate that would overflow long before the value itself
    does.  Below ``SINH_SERIES_R``, where ``sinh u - u`` cancels, it is
    ``r^2 ((sinh r - r)/r^3 cosh r + 2 (sinh(r/2)/r)^2) gain_filter_ratio(r)
    / 2``, a sum of positive terms, with the last factor taken as ``u / (1
    - e^{-u})``, its value.  Twice this is the amplified noise ``e^{2r} + 1
    - gain_filter_ratio(r)`` of the cavity output variances.  Floats,
    numpy arrays, lists and tuples alike, each branch built only where r's
    bounds reach it, under its own numpy error state: r = 0 divides 0 by 0
    before its value 0 is put in, and ``sinh`` overflows past r ~ 355, so
    it raises no ``RuntimeWarning``.  Anything else raises
    ``InvalidParams`` (``_real_arrays``).
    """
    _real_arrays(r=r)
    r = np.asarray(r, dtype=float)
    r_lo, r_hi = _bounds(r)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = 2.0 * r
        t = -np.expm1(-u)
        cf = _branches(r, r_lo, r_hi, lambda: r * r * (
            _sinh_series(r * r) * np.cosh(r)
            + 2.0 * np.square(np.sinh(0.5 * r) / r)) * (u / t),
            lambda: (np.sinh(u) - u) / t)
    return cf if r_lo > 0.0 else np.where(r == 0.0, 0.0, cf)


def _domain_error(r, x, n0, n, G1_over_G2=1.0) -> InvalidParams | None:
    """The ``InvalidParams`` of arguments outside the closed form's domain,
    or None; it is returned, not raised, so that a caller that explains
    many cells builds no traceback."""
    for name, v in (("pulse area r", r), ("gamma_over_G", x), ("n0", n0),
                    ("n", n)):
        if not v >= 0.0:
            return InvalidParams(f"{name} must be >= 0, got {v!r}")
    if not G1_over_G2 >= 0.0:
        return InvalidParams(f"G1_over_G2 must be >= 0, got {G1_over_G2!r}")


def _single_domain_error(r, x, n0, n, f) -> InvalidParams | None:
    return _domain_error(r, x, n0, n) or (None if 0.0 <= f <= 1.0 + x else (
        InvalidParams(f"Gj_over_G = {f!r} outside [0, 1 + gamma/G]")))


def _overflow(r: float, *_) -> InvalidParams:
    return InvalidParams(f"closed-form moments overflow at pulse area "
                         f"r = {r!r}")


def _degenerate(*args) -> DegenerateVariance:
    names = ", ".join("r gamma_over_G n0 n Gj_over_G".split()[:len(args)])
    return DegenerateVariance(f"a term leaves the float range at ({names}) "
                              f"= {tuple(map(float, args))!r}")


# (domain, error) of each closed-form function, as _evaluate and _refusal
# take them: the InvalidParams of arguments outside its domain (or None),
# and the error of a cell in the domain that leaves the float range
_MOMENTS = (_domain_error, _overflow)  # output_block and _w_moments
_WITNESS = (_domain_error, _degenerate)  # collective_steering_value
_SINGLE = (_single_domain_error, _degenerate)  # single_steering_value


def _refusal(args: tuple, kind: tuple) -> SteerkitError:
    """The error that refuses a NaN cell at ``args`` of the closed-form
    function whose ``(domain, error)`` is ``kind``, from the arguments
    alone, with no arithmetic: the domain's ``InvalidParams`` outside it,
    else ``error(*args)``, as a cell in the domain is NaN only past the
    float range."""
    return kind[0](*args) or kind[1](*args)


def _reals(**args) -> None:
    """Refuse the first of ``args`` that is not a real number
    (``numbers.Real``, numpy's included), such as an array, a list, a
    string, None or a complex number: ``InvalidParams`` ``<name> must be a
    float, got <value>``."""
    for name, v in args.items():
        if not isinstance(v, numbers.Real):
            raise InvalidParams(f"{name} must be a float, got {v!r}")


def _real_arrays(**args) -> None:
    """Refuse the first of ``args`` that is neither a real number (as
    ``_reals`` takes one) nor an array, a list or a tuple of a real numpy
    dtype (kinds ``b``, ``i``, ``u`` and ``f``), such as a string, None, a
    complex number, a list holding one or a ragged list: ``InvalidParams``
    ``<name> must be a float or an array of floats, got <value>``.  A
    numeric string is refused, not parsed."""
    for name, v in args.items():
        try:
            real = isinstance(v, numbers.Real) \
                or np.asarray(v).dtype.kind in "biuf"
        except ValueError:  # numpy refuses a ragged list
            real = False
        if not real:
            raise InvalidParams(
                f"{name} must be a float or an array of floats, got {v!r}")


def _array_call(*args) -> bool:
    """Whether a call of a float-or-array function is an array call: an
    argument is a numpy array (0-d included) or has ``np.ndim > 0``, as a
    list or tuple does.  Python and numpy scalars make a float call."""
    return any(isinstance(v, np.ndarray)
               or not isinstance(v, float) and np.ndim(v) > 0 for v in args)


def _evaluate(cells, kind, **args):
    """A call of the closed-form function whose arithmetic is ``cells(r,
    *knobs, ok)``, with ``kind`` its ``(domain, error)`` and ``args`` its
    arguments by name, in the order ``r, gamma_over_G, n0, n, ...``.

    An argument that is not a real number or an array of them is refused
    (``_real_arrays``) before any arithmetic.  The arguments broadcast by
    numpy's rules, each evaluated on its own axes (an axis that a
    broadcast view repeats, stride 0, counts once; a 0-d knob is a float,
    which numpy combines with arrays faster), with ``ok`` the cells whose
    ``(gamma_over_G, n0, n)`` are not negative or NaN.  An array call
    (``_array_call``) returns the arguments' broadcast shape followed by
    that of one cell.  A float call is that one cell, a Python float for
    a cell of one value, and raises ``_refusal(args, kind)`` where the
    cell is NaN.
    """
    _real_arrays(**args)
    args = tuple(args.values())
    array = _array_call(*args)
    arrays = [np.asarray(v, dtype=float) for v in args]
    r, x, n0, n, *rest = [_own_axes(arrays[0])] + [
        _own_axes(a) if a.ndim else float(a) for a in arrays[1:]]
    out = cells(r, x, n0, n, *rest, ok=(x >= 0.0) & (n0 >= 0.0) & (n >= 0.0))
    shape = np.broadcast(*arrays).shape
    if out.shape[:len(shape)] != shape:  # a view's repeated axis
        out = np.broadcast_to(out, shape + out.shape[len(shape):]).copy()
    if not array and np.isnan(out).any():
        raise _refusal(args, kind)
    return out if array or out.ndim else float(out)


def _columns(values: tuple, ok) -> np.ndarray:
    """``values`` (floats or arrays that broadcast) stacked on a last axis,
    every value of a cell NaN where ``ok`` is False or one of its values
    is not a finite float."""
    out = np.empty(np.broadcast(*values, ok).shape + (len(values),))
    for k, value in enumerate(values):
        out[..., k] = value
    out[~(np.isfinite(out).all(-1) & ok)] = np.nan
    return out


def _gain_fractions(x, G1_over_G2) -> tuple:
    """``(G1/G, G2/G)``: the gain sum ``1 + x`` split as ``G1_over_G2``,
    NaN where ``G1_over_G2`` is not >= 0; floats and numpy arrays alike."""
    gsum = 1.0 + x
    f2 = gsum / (1.0 + np.where(G1_over_G2 >= 0.0, G1_over_G2, np.nan))
    return gsum - f2, f2


def output_block(r, gamma_over_G, n0, n, *, G1_over_G2=1.0) -> np.ndarray:
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

    Accepts numpy arrays as ``collective_steering_value`` does: the five
    arguments broadcast on their own axes, the factors of r alone are
    computed on r's, and the result has their broadcast shape followed by
    (6, 6).  Every entry of a cell outside the domain, or of a cell where
    an entry is not a finite float (every r past ~354.9, and somewhat
    below it at large occupations), is NaN.  A float call is one cell: it
    raises ``InvalidParams`` outside the domain and, naming r, where that
    cell is NaN.
    """
    return _evaluate(_block_cells, _MOMENTS, r=r, gamma_over_G=gamma_over_G,
                     n0=n0, n=n, G1_over_G2=G1_over_G2)


def _block_cells(r, x, n0, n, ratio, ok=True) -> np.ndarray:
    """``output_block`` over the broadcast of ``r`` and the knobs, NaN where
    ``ok`` is False or an entry is not finite.  With ``u = e^{2r} - 1`` the
    mirror-field moments carry ``1 - 2r/u``, summed below
    ``SINH_SERIES_R`` as ``(coherence_factor (1 - e^{-2r}) + 2 sinh^2 r) /
    u``, that is ``((sinh 2r - 2r) + (cosh 2r - 1)) / u``, both positive,
    not as a difference near 1."""
    r_lo, r_hi = _bounds(r)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f1, f2 = _gain_fractions(x, ratio)
        y = 2.0 * r
        u = np.expm1(y)
        cf = coherence_factor(r)
        excess = _branches(r, r_lo, r_hi, lambda: (
            cf * -np.expm1(-y) + 2.0 * np.square(np.sinh(r))) / u,
            lambda: 1.0 - y / u)
        if not r_lo > 0.0:  # 0/0 at r = 0, where c1 and c2 vanish
            excess = np.where(r == 0.0, 0.0, excess)
        # the cavity moments are 1/2 + f_j p and <X_1, X_2> = sqrt(f1 f2) p
        p = (n0 + 1.0) * u + 2.0 * x * (n + 1.0) * cf
        er_su = np.exp(r) * np.sqrt(u)
        common = n0 + 1.0 + x * (n + 1.0) * excess
        return _columns((
            (n0 + 0.5) + (n0 + 1.0 + x * (n + 1.0)) * u, 0.5 + f1 * p,
            0.5 + f2 * p, -np.sqrt(f1) * er_su * common,
            -np.sqrt(f2) * er_su * common, np.sqrt(f1 * f2) * p, 0.0),
            ok)[..., _LAYOUT]


def _coefficients(x, n0, n) -> tuple:
    """The factors of the collective witness that do not depend on r, as
    ``_collective_cells`` reads them, with ``b = 1/2 + x (n + 1)`` and ``s
    = x / (1 + x)``: ``(n0, s, s^2, 4 s^2 b^2, 2 b (2 n0 + 1), 4 b, 2 (2 n0
    + 1))``, so a caller computes them once for many r.  Squares are
    products, as a float ``**`` is C ``pow``: it rounds otherwise and
    raises ``OverflowError``."""
    b = 0.5 + x * (n + 1.0)
    try:
        s = x / (1.0 + x)
    except ZeroDivisionError:  # a float x = -1, outside the domain
        s = math.nan
    sb = s * b
    return (n0, s, s * s, 4.0 * sb * sb, 2.0 * b * (2.0 * n0 + 1.0), 4.0 * b,
            2.0 * (2.0 * n0 + 1.0))


def _w_moments(r, x, n0, n) -> tuple:
    """``(var_XW_out, cov_Xm_PW)`` of the collective mode W, evaluated as
    ``output_block`` is: floats and numpy arrays alike, both NaN in a cell
    outside the domain or where one is not a finite float, where a float
    call raises ``InvalidParams``.  W is no mode of that block: it carries
    the mirror's bath input (``collective_steering_value``)."""
    W = _evaluate(_w_cells, _MOMENTS, r=r, gamma_over_G=x, n0=n0, n=n)
    return tuple(np.moveaxis(W, -1, 0))


def _w_cells(r, x, n0, n, ok=True) -> np.ndarray:
    """W's two moments over the broadcast of ``r`` and the knobs, on a last
    axis, NaN where ``ok`` is False or one is not finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = 2.0 * r
        u = np.expm1(y)
        er, su = np.exp(r), np.sqrt(u)
        # 2r e^r / sqrt(u), 0 at r = 0, where cov_W vanishes
        g = np.divide(y * er, su, out=np.zeros(np.shape(su)), where=r != 0.0)
        a = n0 + 1.0 + x * (n + 1.0)
        b = 0.5 + x * (n + 1.0)
        return _columns((
            (1.0 + x) * (1.0 + x) * (a * u + b)
            + x * b * (x - (1.0 + x) * gain_filter_ratio(r)),
            -(1.0 + x) * (er * su) * a + x * g * b), ok)


def collective_steering_value(r, gamma_over_G, n0, n):
    """Steering witness of the mirror given the collective mode W.

    Equals ``var_Xm_out - cov_Xm_PW^2 / var_XW_out`` (``S[0, 0]`` of
    ``output_block``, and ``_w_moments``), evaluated as one rational
    expression in the bounded factors of ``_r_factors`` at every r > 0
    (``_collective_cells``).  Against an mpmath evaluation of that
    definition at 4r/ln 10 + 60 digits it is within 1e-14 relative, the
    tests' bound, over gamma/G in {0, 0.1, 1, 3}, n0 in {0, 1, 20}, n in {0,
    10, 10^3, 10^6} and r in [1e-8, 400] (for gamma = 0 up to r = 350, where
    E leaves the float range); the largest error found is 5.33e-15, at
    (r, gamma/G, n0, n) = (6.5097e-8, 3, 1, 10^6).  For zero damping the
    expression reduces exactly to

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

    Accepts numpy arrays: in an array call (``_array_call``: an argument
    is an ``ndarray``, a list or a tuple) the four broadcast against each
    other by numpy's rules and the result is a new array of their
    broadcast shape, so a grid is passed on its axes (r as a row, gamma/G
    as a column), or with r as a ``np.broadcast_to`` view of the grid's
    shape, which copies nothing.  An argument is evaluated
    on its own axes: an axis that a broadcast view repeats (stride 0)
    counts once.  The factors that depend on r alone are computed on r's
    axes and those that do not on those of ``(gamma_over_G, n0, n)``; only
    the final expression takes the full shape, so each cell rounds as the
    float call does.  A cell outside the domain (a negative or NaN
    argument) or past the float range is NaN.  A float call is one cell:
    it raises ``InvalidParams`` outside the domain and
    ``DegenerateVariance`` where the cell is not a finite float.  An
    argument that is neither a real number nor an array, list or tuple of
    a real dtype, a numeric string included, raises ``InvalidParams``.
    """
    return _evaluate(_collective, _WITNESS, r=r, gamma_over_G=gamma_over_G,
                     n0=n0, n=n)


def _collective(r, x, n0, n, ok=True) -> np.ndarray:
    """The collective witness for ``_evaluate``: ``_collective_cells`` on
    the knobs' ``_coefficients``, with a cell past the float range NaN."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        E = _collective_cells(r, _coefficients(x, n0, n), ok=ok)
    np.copyto(E, np.nan, where=np.isinf(E))  # past the float range
    return E


def _own_axes(a: np.ndarray) -> np.ndarray:
    """``a`` with each axis of stride 0, which a broadcast view repeats,
    cut to its first entry; the result broadcasts back to ``a``."""
    return a[tuple(slice(None, 1) if s == 0 else slice(None)
                   for s in a.strides)]


def _collective_cells(r: np.ndarray, co: tuple, ok=True) -> np.ndarray:
    """The collective witness over the broadcast of ``r`` (a numpy float is
    one cell) and ``co``, the ``_coefficients`` with each entry a scalar or
    an array, so a caller may compute them once for many r.

    With the factors ``(t, v, h, q, dm)`` of ``_r_factors``, ``A_r = dm (t
    + q) / t = t - 4 r h`` (a product, so that its r^3 behaviour at small r
    is not a difference), ``w = v A_r / t = v - 4 h^2``, ``s = x / (1 + x)``
    and ``b = 1/2 + x (n + 1)``, the numerator and ``var_XW_out`` of
    ``var_Xm_out - cov_Xm_PW^2 / var_XW_out``, divided by e^{2r} and by
    (1 + x)^2 / 4, are

        ``num = 4 x^2 b^2 / (1 + x)^2 A_r + 2 b (2 n0 + 1) ((s - 2h)^2 + w)``
        ``den = 2 (2 n0 + 1) t + 4 b ((1 - 2 s h)^2 + s^2 w)``

    and ``E = num / den``.  Both are sums of products of factors that are
    not negative, so no term cancels another at any r or knob.  (Multiplied
    out, ``num`` is ``4 x^2 b^2 A_r + 4 x^2 b (n0 + 1/2) t + 2 b (2 n0 + 1)
    ((2 x^2 + 2 x + 1) v - 4 x (1 + x) h)`` times 4 / (1 + x)^2, whose terms
    cancel up to 75-fold near r = 0.23 at gamma/G = 3, n0 = 20, and a float
    evaluation of it errs by up to 3e-14.)  ``1 - 2h`` cancels at small r,
    but there ``s - 2h`` and ``1 - 2 s h`` are near ``s - 1`` and ``1 -
    s``, so their absolute accuracy is enough.  ``den`` is positive for every knob
    in the domain.  Past r ~ 372 ``v`` and ``h`` underflow to 0 and E sits
    on the plateau ``x^2 b / (1 + x)^2``, up to rounding; r = inf is
    evaluated at r = 1e3, as ``r e^{-r}`` is NaN there.

    r's ``_bounds`` choose the branches of ``dm`` and whether the pins
    below are needed.  r = 0 is ``n0 + 1/2``.  Cells outside the mask
    ``ok`` (skipped when it is True), or with r negative or NaN, are NaN; a
    cell where a term leaves the float range is NaN or inf."""
    r_lo, r_hi = _bounds(r)
    n0, s, ss, k_a, k_s, b4, k_t = co
    if not r_hi < np.inf:
        r = np.minimum(r, 1e3)
    # overflow to inf passes silently, as in float arithmetic
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t, v, h, q, dm = _r_factors(r, r_lo, r_hi)
        A = dm * (t + q) / t
        w = v * A / t
        h2 = 2.0 * h
        # np.square is a product, and keeps no named temporary of the full
        # shape, which large maps pay for
        num = k_a * A + k_s * (np.square(s - h2) + w)
        den = k_t * t + b4 * (np.square(1.0 - s * h2) + ss * w)
        E = np.asarray(num / den)  # an array also for one cell
        if not (r_lo > 0.0 and r_hi < np.inf):
            np.copyto(E, n0 + 0.5, where=r == 0.0)
            np.copyto(E, np.nan, where=~(r >= 0.0))
    if ok is not True and not np.all(ok):
        np.copyto(E, np.nan, where=~np.asarray(ok))
    return E


def single_steering_value(r, gamma_over_G, n0, n, Gj_over_G):
    """Steering witness of the mirror given one cavity output mode alone.

    Equals ``var_Xm_out - cov_Xm_Pj^2 / var_Xj_out`` (entries of
    ``output_block``), evaluated as one rational expression in the bounded
    factors of ``_r_factors`` at every r > 0, as the collective witness
    is.  With ``f = Gj_over_G``, ``y = x (n + 1)``, ``A_r = dm (t + q) /
    t`` and ``K = 1 + v - 4 h = 2 (sinh 2r - 2r) v / t`` (the amplified
    noise of ``var_Xj_out`` over e^{2r}, summed as its series below 2r =
    ``SINH_SERIES_R``), numerator and ``var_Xj_out`` divided by e^{2r} are

        ``num = 4 f y^2 A_r + 2 y (f (2 n0 + 1) K + t) + (2 n0 + 1) v
        + 2 (n0 + 1) (1 - f) t``
        ``den = v / 2 + f (n0 + 1) t + f y K``

    and ``E = num / (4 den)``, sums of terms that are not negative but for
    the last of ``num`` where f > 1.  Against the mpmath evaluation of the
    collective witness's docstring it is within 5e-15 relative (4.0e-15
    measured) over the same knobs, at G1/G2 in {1/2, 1, 2}.
    ``Gj_over_G`` is the gain fraction of the measured mode; swapping the
    two fractions swaps the two witnesses exactly.  ``Gj_over_G = 0``
    gives ``var_Xm_out``.

    Accepts numpy arrays as ``collective_steering_value`` does: a cell
    outside the domain (a negative or NaN argument, or ``Gj_over_G``
    outside [0, 1 + gamma/G]) or past the float range is NaN.  A float
    call is one cell: it raises ``InvalidParams`` outside the domain and
    ``DegenerateVariance`` where the cell is not a finite float.
    """
    return _evaluate(_single_cells, _SINGLE, r=r, gamma_over_G=gamma_over_G,
                     n0=n0, n=n, Gj_over_G=Gj_over_G)


def _single_cells(r, x, n0, n, f, ok=True) -> np.ndarray:
    """The single-mode witness over the broadcast of ``r`` and the knobs,
    NaN where ``ok`` is False, r or ``f`` is outside the domain, or the
    value is not finite (``den`` is 0 only where f = v = 0)."""
    r_lo, r_hi = _bounds(r)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # as in _collective_cells: no factor of r in (0, 1e3] leaves the
        # float range
        r = np.minimum(r, 1e3)
        t, v, h, q, dm = _r_factors(r, r_lo, r_hi)
        z = 2.0 * r
        K = _branches(z, 2.0 * r_lo, 2.0 * r_hi, lambda: 2.0 * (z * (
            z * z) * _sinh_series(z * z)) * v / t, lambda: 1.0 + v - 4.0 * h)
        y = x * (n + 1.0)
        d = 2.0 * n0 + 1.0
        E = (4.0 * f * y * y * (dm * (t + q) / t) + 2.0 * y * (f * d * K + t)
             + d * v + 2.0 * (n0 + 1.0) * (1.0 - f) * t) \
            / (4.0 * (0.5 * v + f * (n0 + 1.0) * t + f * y * K))
        if not r_lo > 0.0:
            E = np.where(r == 0.0, n0 + 0.5, E)
        return np.where(ok & (f >= 0.0) & (f <= 1.0 + x) & (r >= 0.0)
                        & np.isfinite(E), E, np.nan)


def threshold_r(n0: float) -> float:
    """Minimal pulse area for collective steering of a thermal mirror.

    ``r_th = ln[(2 n0 + 1)/(n0 + 1)] / 2``; zero for a ground-state mirror
    and approaching ``ln(2)/2`` for large occupation.  At zero damping the
    collective witness crosses 1/2 exactly there.  It takes a real number
    (``numbers.Real``, numpy's included): anything else, such as an array,
    a list, a string, None or a complex number, raises ``InvalidParams``.
    """
    _reals(n0=n0)
    if not n0 >= 0.0:
        raise InvalidParams(f"n0 must be >= 0, got {n0!r}")
    return 0.5 * math.log1p(n0 / (n0 + 1.0))


def _occupation_quadratic(x, n0, t, v, h, q, dm):
    """``(A, B, C)`` with ``E <= 1/2`` exactly where ``A b^2 + B b + C <= 0``,
    ``b = 1/2 + x (n + 1)``.

    This is ``N - 2 D`` for the witness's numerator N and ``D =
    var_XW_out``, both over e^{2r}, multiplied out (``_collective_cells``)
    and each written as a polynomial in b (with ``a = b + n0 + 1/2``), in
    the factors of ``_r_factors``, so that the same arithmetic serves
    floats and numpy arrays.  ``A = 4 x^2 A_r`` is positive and ``C`` is
    negative: one root is positive, and it bounds b.
    """
    d = n0 + 0.5
    g2 = (1.0 + x) * (1.0 + x)
    A = 4.0 * x * x * dm * (t + q) / t
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
    witness's plateau ``x^2 b / (1 + x)^2`` allows; n_inf is 0 at the root
    x* = 1.1915 of
    ``2x^3 - 2x - 1``.

    Needs r > 0 and gamma/G > 0.  Accepts numpy arrays, lists and tuples
    as ``collective_steering_value`` does (``_array_call``): out-of-domain
    cells are NaN, where the float call raises ``InvalidParams``; so does
    an argument that is not real (``_real_arrays``).
    """
    _real_arrays(r=r, gamma_over_G=gamma_over_G, n0=n0)
    x = gamma_over_G
    # an array call takes a list or tuple as an array; a float stays a
    # float, which numpy combines with arrays faster
    if array := _array_call(r, x, n0):
        r, x, n0 = (v if isinstance(v, float) else np.asarray(v, dtype=float)
                    for v in (r, x, n0))
    elif (error := _domain_error(r, x, n0, 0.0)) is not None:
        raise error
    elif not (r > 0.0 and x > 0.0):
        raise InvalidParams(f"max_occupation needs r > 0 and gamma_over_G "
                            f"> 0, got r = {r!r}, gamma_over_G = {x!r}")
    # A underflows to 0 below r ~ 1e-100, where the bound is inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                     under="ignore"):
        A, B, C = _occupation_quadratic(x, n0, *_r_factors(r, *_bounds(r)))
        S = np.sqrt(B * B - 4.0 * A * C) + np.abs(B)
        b = np.where(B < 0.0, S / (2.0 * A), -2.0 * C / S)
        n_max = (b - 0.5) / x - 1.0
    if not array:
        return float(n_max)
    return np.where((r > 0.0) & (x > 0.0) & (n0 >= 0.0), n_max, np.nan)
