"""Reference helpers that only the tests use.

Each one checks a result of ``steerkit`` by a second route: direct
collective-mode filters against the oracle's collective rows, the
``B Sigma B^T`` diffusion of a model against its stacked propagation, the
symplectic spectrum of a covariance block (physicality), the named
closed-form moments and the cavity cross-correlation read off
``output_block``, the optimal inference gain, the monogamy of single-party
witnesses, the noise threshold searched on the sup over r alone, the
collective witness evaluated in float arithmetic with its own branches, and
the steering contour bisected one round per witness pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from steerkit import collective_steering_value, steering_product
from steerkit.closedform import (
    LARGE_R,
    SCALED_R,
    _check_inputs,
    _coefficients,
    _collective_cells,
    _collective_terms,
    _plateau,
    _w_moments,
    gain_filter_ratio,
    output_block,
)
from steerkit.cli import _BLOCK_MOMENTS
from steerkit.errors import DegenerateVariance
from steerkit.steering import BISECTION_ROUNDS, N_CAP, ThresholdResult
from steerkit.dynamics import (
    B_TILDE,
    U_OUT,
    U_TILDE_IN,
    W_OUT,
    KernelTerm,
    LinearModel,
    OutputCovariance,
    TemporalKernel,
    _collective_weights,
    output_kernels,
)
from steerkit.model import ReducedParams, derived_quantities


def collective_output_kernels(rp: ReducedParams, *, full: bool = False,
                              ) -> list[TemporalKernel]:
    """Direct filters for the collective modes W_out, U_out and the constant
    of motion U_tilde_in, bypassing the per-mode covariance transform (the
    kernel-side reference for ``dynamics._collective_rows``)."""
    table = _collective_weights(derived_quantities(rp))
    base = {k.label: k for k in output_kernels(rp, full=full)}
    bath = base[B_TILDE].terms

    def combine(label: str) -> TemporalKernel:
        (m1, c1), (m2, c2), b = table[label]
        terms = tuple(
            KernelTerm(t.kind, t.target, t.dagger, c * t.amplitude, t.rate)
            for mode, c in ((m1, c1), (m2, c2)) for t in base[mode].terms)
        # i b B~^dag: conjugate envelopes, flip dagger flags
        terms += tuple(
            KernelTerm(t.kind, t.target, not t.dagger,
                       1j * b * t.amplitude.conjugate(), t.rate.conjugate())
            for t in bath)
        return TemporalKernel(label, terms)

    return [combine(label) for label in (W_OUT, U_OUT, U_TILDE_IN)]


def diffusion(model: LinearModel) -> np.ndarray:
    """Symmetric noise-intensity matrix ``B Sigma B^T`` of a model."""
    return (model.noise_input * model.noise_intensities) @ model.noise_input.T


def block(oc: OutputCovariance, labels: tuple[str, ...]) -> OutputCovariance:
    """The covariance (and standard errors) of the modes ``labels`` only."""
    idx = []
    for lab in labels:
        idx.extend((oc.index(lab, "X"), oc.index(lab, "P")))
    idx = np.asarray(idx)
    se = None
    if oc.standard_errors is not None:
        se = oc.standard_errors[np.ix_(idx, idx)]
    return OutputCovariance(tuple(labels), oc.sigma[np.ix_(idx, idx)], se)


def symplectic_eigenvalues(oc: OutputCovariance) -> np.ndarray:
    """Symplectic spectrum of ``oc.sigma``.

    Uses the symplectic form of 2x2 blocks [[0, 1], [-1, 0]]; a physical
    state has every eigenvalue >= 1/2 in our units.
    """
    n = len(oc.mode_labels)
    omega = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    ev = np.linalg.eigvals(1j * omega @ oc.sigma)
    # eigenvalues come in +/- pairs; keep one of each
    return np.sort(np.abs(ev))[::2]


def moment_set(r: float, gamma_over_G: float, n0: float, n: float, *,
               G1_over_G2: float = 1.0) -> dict[str, float]:
    """The seven closed-form moments that validate-oracle compares, by
    name: the entries of ``output_block`` at ``cli._BLOCK_MOMENTS`` and
    W's two from ``closedform._w_moments``."""
    S = output_block(r, gamma_over_G, n0, n, G1_over_G2=G1_over_G2)
    moments = {key: float(S[ij]) for key, ij in _BLOCK_MOMENTS.items()}
    moments["var_XW_out"], moments["cov_Xm_PW"] = _w_moments(
        r, gamma_over_G, n0, n)
    return moments


def cross_correlation(r: float, gamma_over_G: float, n0: float, n: float, *,
                      G1_over_G2: float = 1.0) -> float:
    """``<X_1, X_2> = |<A1out^dag A2out>|``, entry [2, 4] of
    ``output_block``."""
    return float(output_block(r, gamma_over_G, n0, n,
                              G1_over_G2=G1_over_G2)[2, 4])


def inferred_variance(oc: OutputCovariance, steered: tuple[str, str],
                      party: tuple[str, str]) -> float:
    """``Var(steered) - Cov^2 / Var(party)`` for any pair of quadratures,
    each a (mode label, "X" | "P")."""
    s, p = oc.index(*steered), oc.index(*party)
    cov = float(oc.sigma[s, p])
    return float(oc.sigma[s, s]) - cov * cov / float(oc.sigma[p, p])


def optimal_gain(oc: OutputCovariance, steered: tuple[str, str],
                 party: tuple[str, str]) -> float:
    """The gain ``u = -Cov / Var(party)`` that minimizes ``Var(steered + u *
    party)``, whose minimum is ``inferred_variance``."""
    s, p = oc.index(*steered), oc.index(*party)
    return -float(oc.sigma[s, p]) / float(oc.sigma[p, p])


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


def monogamy_check(oc: OutputCovariance, steered_mode: str,
                   parties: tuple[str, str]) -> MonogamyReport:
    """Evaluate both single-party witnesses; a violation signals a covariance
    bug and is reported, never raised.

    The margin is ``TIE_ULPS`` ulps of the larger steered variance, so an
    analytic tie at 1/2 (equal couplings) is never decided by rounding.
    """
    e1 = steering_product(oc, steered_mode, parties[0])
    e2 = steering_product(oc, steered_mode, parties[1])
    scale = max(oc.variance(steered_mode, "X"), oc.variance(steered_mode, "P"))
    margin = TIE_ULPS * float(np.finfo(float).eps) * scale
    return MonogamyReport(steered_mode, tuple(parties), (e1, e2), margin)


# the noise-threshold search on the sup over r: a log-spaced scan and a
# golden-section refinement, independent of the closed-form bound
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SCAN_POINTS = 128  # log-spaced pulse areas behind each sup over r


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


def _window_min(f, r_max: float) -> tuple[float, float, float]:
    """Where ``f`` is least over r in (0, r_max]: the log-spaced scan's
    least value and its location, and the golden-section refinement around
    that grid point (for r -> 0 the leftmost cell reaches down to half the
    first grid point).  ``f`` takes floats and numpy arrays."""
    rs = np.logspace(-3, math.log10(r_max), SCAN_POINTS)
    vals = f(rs)
    k = int(np.argmin(vals))
    lo = rs[k - 1] if k > 0 else rs[0] / 2.0
    hi = rs[k + 1] if k + 1 < SCAN_POINTS else r_max
    return float(vals[k]), float(rs[k]), _golden_minimize(f, lo, hi, 1e-6)


def _sup_over_r(x: float, n0: float, n: float, r_max: float,
                ) -> tuple[float, float]:
    """Supremum of the collective witness over r in (0, r_max], and where:
    the larger of ``_window_min``'s grid point and refinement."""
    low, r_k, r_best = _window_min(
        lambda r: -collective_steering_value(r, x, n0, n), r_max)
    return max((-low, r_k),
               (collective_steering_value(r_best, x, n0, n), float(r_best)))


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


def sup_threshold(x: float, n0: float, r_max: float,
                  tol: float) -> ThresholdResult | None:
    """``noise_threshold``'s doubling and bisection on n with every step
    taking ``_sup_over_r``; None where it finds no threshold: where the
    condition fails at n = 0, or still holds at n = ``N_CAP``."""

    def ok(n: float) -> bool:
        return _sup_over_r(x, n0, n, r_max)[0] <= 0.5

    if not ok(0.0) or ok(N_CAP):
        return None
    lo, hi = 0.0, 1.0
    while ok(hi):
        lo, hi = hi, 2.0 * hi
    lo, hi = _bisect(ok, lo, hi, tol)
    return ThresholdResult(0.5 * (lo + hi), (lo, hi))


def float_witness(r: float, gamma_over_G: float, n0: float,
                  n: float) -> float:
    """``collective_steering_value`` at one point in float arithmetic, with
    the C library's ``expm1`` and ``exp`` and a branch of its own at r = 0
    and above ``LARGE_R``: the reference the array witness is held to."""
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
        _coefficients(x, n0, n), r, math.expm1(2.0 * r),
        gain_filter_ratio(r), r > SCALED_R)
    if not var_W > 0.0:
        raise DegenerateVariance(f"var_XW_out = {var_W!r} is not positive")
    return num_over_u / (4.0 * var_W)


def one_round_contour(r_grid, gamma_over_G_grid, n0: float,
                      n: float) -> tuple[tuple[float, float], ...]:
    """``steering_region``'s contour with one bisection round per witness
    pass: each round evaluates every bracket's midpoint, and the rounds stop
    once no bracket has a float strictly inside it, or after
    ``BISECTION_ROUNDS``."""
    rs = np.asarray(r_grid, dtype=float)
    xs = np.asarray(gamma_over_G_grid, dtype=float)
    E = collective_steering_value(np.broadcast_to(rs, (xs.size, rs.size)),
                                  xs[:, None], n0, n)
    row = E[:, :-1] - 0.5
    cross = row * (E[:, 1:] - 0.5) < 0.0
    i, j = np.nonzero((row == 0.0) | cross)
    bisect = cross[i, j]
    lo, hi = rs[j[bisect]], rs[j[bisect] + 1]
    if lo.size:
        with np.errstate(over="ignore", invalid="ignore"):
            co = _coefficients(xs[i[bisect]], float(n0), float(n))
        sign = row[i[bisect], j[bisect]]
        for _ in range(BISECTION_ROUNDS):
            mid = 0.5 * (lo + hi)
            if not ((lo < mid) & (mid < hi)).any():
                break
            up = (_collective_cells(mid, co) - 0.5) * sign > 0.0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
    r_cross = rs[j]
    r_cross[bisect] = 0.5 * (lo + hi)
    return tuple(zip(r_cross.tolist(), xs[i].tolist()))
