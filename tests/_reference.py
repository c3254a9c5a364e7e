"""Reference helpers that only the tests use.

``oracle_point`` reads the oracle at one point, as a sweep of that point
alone.  Each other one checks a result of ``steerkit`` by a second route:
direct collective-mode filters against the oracle's collective rows, the
``B Sigma B^T`` diffusion of a model against its stacked propagation, the
symplectic spectrum of a covariance block (physicality), the named
closed-form moments and the cavity cross-correlation read off
``output_block``, the optimal inference gain, the monogamy of single-party
witnesses, the noise threshold's bracket searched on its bound n* and on
the sup over r alone, both
closed-form witnesses and the distinct entries of the covariance block
evaluated from their defining moments in mpmath, and
the steering contour bisected one round per witness pass, and the
oracle's sweep as it was built from per-point model and kernel objects.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from steerkit import collective_steering_value, steering_product
from steerkit.closedform import (
    _coefficients,
    _collective_cells,
    _w_moments,
    output_block,
)
from steerkit.cli import _BLOCK_MOMENTS, _ORACLE_MODES
from steerkit.steering import BISECTION_ROUNDS, N_CAP, ThresholdResult
from steerkit.dynamics import (
    A_1_OUT,
    A_M_OUT,
    A_TILDE_1_IN,
    A_TILDE_2_IN,
    B_TILDE,
    DEFAULT_OUTPUT_MODES,
    U_OUT,
    U_TILDE_IN,
    W_OUT,
    _FORMS,
    _NEG_R,
    _R,
    _R_DAGGER,
    KernelTerm,
    LinearModel,
    OutputCovariance,
    TemporalKernel,
    _collective_rows,
    _collective_weights,
    _refuse_non_finite,
    _step_maps,
    output_covariances,
    output_kernels,
)
from steerkit.errors import (
    IntegratorFailure,
    InvalidParams,
    MissingModes,
    SteerkitError,
)
from steerkit.model import (
    DerivedQuantities,
    ReducedParams,
    derived_quantities,
    reduced_from_ratios,
)


def collective_output_kernels(rp: ReducedParams, *, full: bool = False,
                              ) -> list[TemporalKernel]:
    """Direct filters for the collective modes W_out, U_out and the constant
    of motion U_tilde_in, bypassing the per-mode covariance transform (the
    kernel-side reference for ``dynamics._collective_rows``)."""
    dq = derived_quantities(rp)
    table = _collective_weights(dq.G1, dq.G2, dq.G)
    base = {k.label: k for k in output_kernels(rp, full=full)}
    bath = base[B_TILDE]

    def combine(label: str) -> TemporalKernel:
        (m1, c1), (m2, c2), b = table[label]
        terms = tuple(
            KernelTerm(t.kind, t.target, t.dagger, c * t.amplitude)
            for mode, c in ((m1, c1), (m2, c2)) for t in base[mode].terms)
        # i b B~^dag: conjugate envelopes, flip dagger flags; the bath's
        # conjugate rate G + i delta is the rate of the two cavity modes
        assert bath.rate.conjugate() == base[m1].rate == base[m2].rate
        terms += tuple(
            KernelTerm(t.kind, t.target, not t.dagger,
                       1j * b * t.amplitude.conjugate())
            for t in bath.terms)
        return TemporalKernel(label, base[m1].rate, terms)

    return [combine(label) for label in (W_OUT, U_OUT, U_TILDE_IN)]


def oracle_point(rp: ReducedParams, *, engine: str = "reduced",
                 ) -> OutputCovariance:
    """The oracle's output covariance at one point: the one slice of a sweep
    of that point alone, whose failure it raises."""
    stack, failures = output_covariances([rp], engine=engine)
    if failures:
        raise failures[0]
    return OutputCovariance(stack.mode_labels, stack.sigma[0])


def diffusion(model: LinearModel) -> np.ndarray:
    """Symmetric noise-intensity matrix ``B Sigma B^T`` of a model."""
    B = np.reshape(model.noise_input, (2 * model.dimension, -1))
    return (B * np.repeat([occ + 0.5 for occ in model.occupations], 2)) @ B.T


def block(oc: OutputCovariance, labels: tuple[str, ...]) -> OutputCovariance:
    """The covariance (and standard errors) of the modes ``labels`` only."""
    idx = []
    for lab in labels:
        idx.extend((oc.index(lab, "X"), oc.index(lab, "P")))
    idx = np.asarray(idx)
    se = None
    if oc.standard_errors is not None:
        se = oc.standard_errors[np.ix_(idx, idx)]
    return OutputCovariance(tuple(labels), oc.sigma[..., idx[:, None], idx],
                            se)


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


def _search(up, tol: float) -> tuple[float, float]:
    """The bracket of a search for where ``up(n)`` turns false: double n
    from 1 while ``up`` holds, then ``_bisect`` down to width ``tol``."""
    lo, hi = 0.0, 1.0
    while up(hi):
        lo, hi = hi, 2.0 * hi
    return _bisect(up, lo, hi, tol)


def threshold_search(n_star: float, tol: float) -> tuple[float, float]:
    """``noise_threshold``'s bracket as its search finds it: ``_search`` on
    ``n <= n_star``, comparing each step with the bound n*."""
    return _search(lambda n: n <= n_star, tol)


def sup_threshold(x: float, n0: float, r_max: float,
                  tol: float) -> ThresholdResult | None:
    """``noise_threshold``'s doubling and bisection on n with every step
    taking ``_sup_over_r``; None where it finds no threshold: where the
    condition fails at n = 0, or still holds at n = ``N_CAP``."""

    def ok(n: float) -> bool:
        return _sup_over_r(x, n0, n, r_max)[0] <= 0.5

    if not ok(0.0) or ok(N_CAP):
        return None
    lo, hi = _search(ok, tol)
    return ThresholdResult(0.5 * (lo + hi), (lo, hi))


def _mp_digits(r: float) -> int:
    """Significant digits for the mpmath witnesses at pulse area r: 60,
    plus 4r/ln 10 for the e^{4r} by which ``var - cov^2/var`` cancels."""
    return int(4.0 * r / math.log(10.0)) + 60


def _mp_moments(r, x, n0, n):
    """``(u, a, b, var_Xm_out)`` in mpmath at the current precision, with
    ``u = e^{2r} - 1``, ``a = n0 + 1 + x (n + 1)`` and ``b = 1/2 + x (n +
    1)``, as ``output_block`` defines them."""
    half = mpmath.mpf(1) / 2
    u = mpmath.expm1(2 * r)
    a = n0 + 1 + x * (n + 1)
    return u, a, half + x * (n + 1), n0 + half + a * u


def collective_witness_reference(r: float, gamma_over_G: float, n0: float,
                                 n: float) -> float:
    """``var_Xm_out - cov_Xm_PW^2 / var_XW_out`` from the defining formulas
    of ``output_block``'s ``S[0, 0]`` and of ``_w_moments``, in mpmath at
    ``_mp_digits(r)`` digits, which absorbs every cancellation of that
    naive difference for r > 0."""
    with mpmath.workdps(_mp_digits(r)):
        r, x, n0, n = (mpmath.mpf(v) for v in (r, gamma_over_G, n0, n))
        u, a, b, var_m = _mp_moments(r, x, n0, n)
        kr = 4 * r * (u + 1) / u
        var_W = (1 + x) ** 2 * (a * u + b) + x * b * (x - (1 + x) * kr)
        cov_W = -(1 + x) * mpmath.exp(r) * mpmath.sqrt(u) * a \
            + x * (2 * r * mpmath.exp(r) / mpmath.sqrt(u)) * b
        return float(var_m - cov_W ** 2 / var_W)


def single_witness_reference(r: float, gamma_over_G: float, n0: float,
                             n: float, Gj_over_G: float) -> float:
    """``var_Xm_out - cov_Xm_Pj^2 / var_Xj_out`` from the defining formulas
    of ``output_block`` (``coherence_factor`` written as ``e^{2r} (sinh 2r
    - 2r) / (e^{2r} - 1)``), in mpmath at ``_mp_digits(r)`` digits."""
    with mpmath.workdps(_mp_digits(r)):
        r, x, n0, n, f = (mpmath.mpf(v)
                          for v in (r, gamma_over_G, n0, n, Gj_over_G))
        u, _, _, var_m = _mp_moments(r, x, n0, n)
        amp = 2 * (u + 1) * (mpmath.sinh(2 * r) - 2 * r) / u
        var_j = mpmath.mpf(1) / 2 + f * (n0 + 1) * u + f * x * (n + 1) * amp
        cov_j = -mpmath.sqrt(f) * mpmath.exp(r) * mpmath.sqrt(u) \
            * (n0 + 1 + x * (n + 1) * (1 - 2 * r / u))
        return float(var_m - cov_j ** 2 / var_j)


def block_reference(r: float, gamma_over_G: float, n0: float, n: float,
                    G1_over_G2: float) -> dict[str, float]:
    """The distinct entries of ``output_block`` and W's two moments, keyed
    ``S00``, ``S22``, ``S03``, ``S24``, ``var_XW_out`` and ``cov_Xm_PW``,
    from their defining formulas (``coherence_factor`` written as ``e^{2r}
    (sinh 2r - 2r) / (e^{2r} - 1)``, the gain split exact) in mpmath at 60
    digits: none of them is a difference that cancels by more than a few
    digits."""
    with mpmath.workdps(60):
        r, x, n0, n, ratio = (mpmath.mpf(v) for v in (
            r, gamma_over_G, n0, n, G1_over_G2))
        u, a, b, var_m = _mp_moments(r, x, n0, n)
        f2 = (1 + x) / (1 + ratio)
        f1 = 1 + x - f2
        cf = (u + 1) * (mpmath.sinh(2 * r) - 2 * r) / u
        er_su = mpmath.exp(r) * mpmath.sqrt(u)
        kr = 4 * r * (u + 1) / u
        return {key: float(value) for key, value in (
            ("S00", var_m),
            ("S22", mpmath.mpf(1) / 2 + f1 * (n0 + 1) * u
             + 2 * f1 * x * (n + 1) * cf),
            ("S03", -mpmath.sqrt(f1) * er_su
             * (n0 + 1 + x * (n + 1) * (1 - 2 * r / u))),
            ("S24", mpmath.sqrt(f1 * f2) * ((n0 + 1) * u
                                           + 2 * (n + 1) * x * cf)),
            ("var_XW_out", (1 + x) ** 2 * (a * u + b)
             + x * b * (x - (1 + x) * kr)),
            ("cov_Xm_PW", -(1 + x) * er_su * a
             + x * (2 * r * mpmath.exp(r) / mpmath.sqrt(u)) * b))}


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


# ---------------------------------------------------------------------------
# The oracle's sweep as it was built from per-point objects: a model, its
# noise channels, kernel terms and kernels per point, read by an object
# stack.  Copied verbatim from the code it was replaced by, but for the two
# ``LinearModel`` methods it read (``_channel_index``, ``_noise_intensities``)
# and the names; ``test_dynamics.TestObjectPath`` holds the stack built from
# per-point numbers to it byte for byte.


@dataclass(frozen=True)
class ObjectNoiseChannel:
    """One bosonic white-noise input; symmetric-ordering intensity is
    ``occupation + 1/2`` per quadrature."""

    name: str
    occupation: float


@dataclass(frozen=True)
class ObjectLinearModel:
    """Quadrature-level linear stochastic model ``dz = A z dt + B xi dt``.

    ``mode_labels`` are the system bosonic modes (the mirror last), ``drift``
    the real (2m, 2m) drift matrix, ``noise_input`` the (2m, 2c) routing of
    the 2c noise quadratures into the state, and ``initial_occupations`` the
    thermal occupation of each system mode at the start of the pulse.
    """

    mode_labels: tuple[str, ...]
    drift: np.ndarray
    noise_input: np.ndarray
    noise_channels: tuple[ObjectNoiseChannel, ...]
    initial_occupations: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.mode_labels)


@dataclass(frozen=True)
class ObjectKernelTerm:
    """One exponential coupling ``amplitude * exp(rate*t)`` of a temporal mode
    to a system mode or noise channel (``dagger`` for creation-type)."""

    kind: str  # "system" | "noise"
    target: str
    dagger: bool
    amplitude: complex
    rate: complex


@dataclass(frozen=True)
class ObjectTemporalKernel:
    """A temporal output mode: a labelled list of kernel terms.

    The defining (first) envelope of every standard mode grows toward the
    end of the pulse and has unit L2 norm over it.
    """

    label: str
    terms: tuple[ObjectKernelTerm, ...]


def _channel_index(model: ObjectLinearModel, name: str) -> int:
    for i, ch in enumerate(model.noise_channels):
        if ch.name == name:
            return i
    raise MissingModes(f"noise channel {name!r} not in model")


def _noise_intensities(model: ObjectLinearModel) -> np.ndarray:
    """Per-quadrature symmetric-ordering intensities, length 2c."""
    return np.repeat([ch.occupation + 0.5 for ch in model.noise_channels], 2)


def object_full_model(rp: ReducedParams) -> ObjectLinearModel:
    rp.validate()
    k, D, g1, g2, gm = rp.kappa, rp.Delta, rp.g1, rp.g2, rp.gamma
    drift = np.array([
        [-k,    D,   0.0,  0.0,  0.0, -g1],
        [-D,   -k,   0.0,  0.0, -g1,  0.0],
        [0.0,  0.0, -k,   -D,   0.0, -g2],
        [0.0,  0.0,  D,   -k,  -g2,  0.0],
        [0.0, -g1,  0.0, -g2,  -gm,  0.0],
        [-g1,  0.0, -g2,  0.0,  0.0, -gm],
    ])
    noise = np.zeros((6, 6))
    sk = math.sqrt(2.0 * k)
    sg = math.sqrt(2.0 * gm)
    noise[0, 0] = noise[1, 1] = noise[2, 2] = noise[3, 3] = -sk
    noise[4, 4] = noise[5, 5] = -sg
    return ObjectLinearModel(
        mode_labels=("a_1", "a_2", "b_m"),
        drift=drift,
        noise_input=noise,
        noise_channels=(ObjectNoiseChannel("a1_in", 0.0),
                        ObjectNoiseChannel("a2_in", 0.0),
                        ObjectNoiseChannel("b_in", rp.n)),
        initial_occupations=(0.0, 0.0, rp.n0),
    )


def object_reduced_model(rp: ReducedParams) -> ObjectLinearModel:
    dq = derived_quantities(rp)
    G1, G2, G, delta, phi = dq.G1, dq.G2, dq.G, dq.delta, dq.phi
    gm = rp.gamma
    drift = np.array([[G, -delta], [delta, G]])
    c, s = math.cos(phi), math.sin(phi)
    r1, r2, rg = math.sqrt(2.0 * G1), math.sqrt(2.0 * G2), math.sqrt(2.0 * gm)
    noise = np.array([
        [-r1 * s, r1 * c, r2 * s,  r2 * c, -rg, 0.0],
        [ r1 * c, r1 * s, r2 * c, -r2 * s, 0.0, -rg],
    ])
    return ObjectLinearModel(
        mode_labels=("b_m",),
        drift=drift,
        noise_input=noise,
        noise_channels=(ObjectNoiseChannel("a1_in", 0.0),
                        ObjectNoiseChannel("a2_in", 0.0),
                        ObjectNoiseChannel("b_in", rp.n)),
        initial_occupations=(rp.n0,),
    )


def _object_output_norm(dq: DerivedQuantities, tau: float) -> float:
    G = dq.G
    try:
        norm = math.sqrt(2.0 * G / math.expm1(2.0 * G * tau))
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise IntegratorFailure(f"output kernel normalization overflows at "
                                f"G*tau = {G * tau:.6g}")
    return norm


def object_output_kernels(rp: ReducedParams, *, full: bool,
                          which: tuple[str, ...] = DEFAULT_OUTPUT_MODES,
                          ) -> list[ObjectTemporalKernel]:
    dq = derived_quantities(rp)
    n_out = _object_output_norm(dq, rp.tau)
    zout = complex(dq.G, dq.delta)
    zmir = complex(dq.G, -dq.delta)
    # e^{(-1)^j i phi} per cavity j
    ph = {1: cmath.exp(-1j * dq.phi), 2: cmath.exp(+1j * dq.phi)}
    sqk = math.sqrt(2.0 * rp.kappa)
    unknown = set(which) - set(DEFAULT_OUTPUT_MODES)
    if unknown:
        raise InvalidParams(f"unknown output modes {sorted(unknown)!r}")
    kernels = []
    for name in which:
        j = 1 if name in (A_1_OUT, A_TILDE_1_IN) else 2
        if name == B_TILDE:
            terms = (ObjectKernelTerm("noise", "b_in", False, complex(n_out),
                                      zmir),)
        elif name in (A_TILDE_1_IN, A_TILDE_2_IN):
            terms = (ObjectKernelTerm("noise", f"a{j}_in", False,
                                      ph[j] * n_out, zout),)
        elif full:
            terms = (
                ObjectKernelTerm("noise", f"a{j}_in", False,
                                 ph[j].conjugate() * n_out, zout),
                ObjectKernelTerm("system", f"a_{j}", False,
                                 ph[j].conjugate() * n_out * sqk, zout),
            )
        else:
            G_j = dq.G1 if j == 1 else dq.G2
            terms = (
                ObjectKernelTerm("noise", f"a{j}_in", False, -ph[j] * n_out,
                                 zout),
                ObjectKernelTerm("system", "b_m", True,
                                 -1j * math.sqrt(2.0 * G_j) * n_out, zout),
            )
        kernels.append(ObjectTemporalKernel(name, terms))
    return kernels


class _ObjectStack:
    def __init__(self, models: list[ObjectLinearModel],
                 kernels: list[list[ObjectTemporalKernel]], taus: list[float],
                 phases: list[float]):
        model, first = models[0], kernels[0]
        labels = [k.label for k in first]
        if len(set(labels)) != len(labels):
            raise InvalidParams(f"duplicate kernel labels in {labels!r}")
        self.labels = (A_M_OUT,) + tuple(labels)
        # per point: the mirror's phase factor, then per kernel its rate, its
        # end factor e^{s tau} and its terms' amplitudes
        values = []
        for ks, tau, phase in zip(kernels, taus, phases):
            row = [cmath.exp(-1j * phase)]
            for kern in ks:
                if len({t.rate for t in kern.terms}) != 1:
                    raise InvalidParams(
                        f"kernel {kern.label!r} needs terms of one rate")
                rate = kern.terms[0].rate
                row += [rate, cmath.exp(rate * tau)]
                row += [t.amplitude for t in kern.terms]
            values.append(row)
        v = np.asarray(values, dtype=complex).view(float).reshape(
            len(values), -1, 2)
        blocks = np.concatenate([v, -v], axis=2)[:, :, _FORMS]
        P, n_sys = len(models), 2 * model.dimension
        n = n_sys + 2 * len(first)
        sys_index = {lab: i for i, lab in enumerate(model.mode_labels)}
        A = np.zeros((P, n, n))
        B = np.zeros((P, n, 2 * len(model.noise_channels)))
        A[:, :n_sys, :n_sys] = [m.drift for m in models]
        B[:, :n_sys] = [m.noise_input for m in models]
        T = np.zeros((P, 2 + 2 * len(first), n))
        # the mirror is the last system mode
        T[:, :2, n_sys - 2:n_sys] = blocks[:, 0, _R]
        at = 1
        for k, kern in enumerate(first):
            row = slice(n_sys + 2 * k, n_sys + 2 * k + 2)
            A[:, row, row] = blocks[:, at, _NEG_R]
            T[:, 2 + 2 * k:4 + 2 * k, row] += blocks[:, at + 1, _R]
            for j, t in enumerate(kern.terms, start=at + 2):
                if t.kind == "system":
                    tgt, col = A, 2 * sys_index[t.target]
                elif t.kind == "noise":
                    tgt, col = B, 2 * _channel_index(model, t.target)
                else:
                    raise InvalidParams(f"unknown kernel term kind {t.kind!r}")
                tgt[:, row, col:col + 2] += blocks[:, j, _R_DAGGER if t.dagger
                                                   else _R]
            at += 2 + len(kern.terms)
        intensities = np.array([_noise_intensities(m) for m in models])
        self.drift = A
        self.diffusion = (B * intensities[:, None, :]) @ B.swapaxes(1, 2)
        self.end_map = T
        self.initial_variances = np.zeros((P, n))
        self.initial_variances[:, :n_sys] = [
            [x for occ in m.initial_occupations for x in [occ + 0.5] * 2]
            for m in models]


def _object_propagate(models: list[ObjectLinearModel],
                      kernels: list[list[ObjectTemporalKernel]],
                      taus: list[float], phases: list[float],
                      ) -> tuple[tuple[str, ...], np.ndarray,
                                 dict[int, IntegratorFailure]]:
    # from r ~ 354.5 (gamma/G = 0.1) the moments pass the float range, and
    # below r ~ 1e-308 the squared kernel normalization in the diffusion
    with np.errstate(over="ignore", invalid="ignore"):
        st = _ObjectStack(models, kernels, taus, phases)
        T = st.end_map
        phi, q, failures = _step_maps(st.drift, st.diffusion, taus)
        S = T @ ((phi * st.initial_variances[:, None, :]) @ phi.swapaxes(1, 2)
                 + q) @ T.swapaxes(1, 2)
        S = 0.5 * (S + S.swapaxes(1, 2))
    return st.labels, S, failures


def object_propagate_output_covariance(model: ObjectLinearModel,
                                       kernels: list[ObjectTemporalKernel],
                                       tau: float, *,
                                       terminal_phase: float = 0.0,
                                       ) -> OutputCovariance:
    if not tau > 0.0:
        raise InvalidParams(f"tau must be > 0, got {tau!r}")
    labels, sigma, failures = _object_propagate([model], [kernels], [tau],
                                                [terminal_phase])
    _refuse_non_finite(sigma, failures)
    if failures:
        raise failures[0]
    return OutputCovariance(labels, sigma[0])


def object_output_covariances(rps: list[ReducedParams], *,
                              engine: str = "reduced",
                              which: tuple[str, ...] = DEFAULT_OUTPUT_MODES,
                              ) -> tuple[OutputCovariance,
                                         dict[int, SteerkitError]]:
    if engine == "reduced":
        build = object_reduced_model
    elif engine == "full":
        build = object_full_model
    else:
        raise InvalidParams(f"engine must be 'reduced' or 'full', got {engine!r}")
    failures, points = {}, []
    for i, rp in enumerate(rps):
        try:
            # the model, its kernels, the gains' dq and, from that dq, the
            # mirror output phase delta tau of mirror_output_phase
            points.append((i, build(rp),
                           object_output_kernels(rp, full=(engine == "full"),
                                                 which=which),
                           (dq := derived_quantities(rp)), dq.delta * rp.tau))
        except SteerkitError as exc:
            failures[i] = exc
    index, models, kernels, dqs, phases = zip(*points) if points else [()] * 5
    labels = (A_M_OUT,) + tuple(which)
    gains = np.array([(dq.G1, dq.G2, dq.G) for dq in dqs]).reshape(-1, 3)
    extra = tuple(lab for lab, ((m1, _), (m2, _), _)
                  in _collective_weights(*gains.T).items()
                  if {m1, m2, B_TILDE} <= set(labels))
    nq = 2 * len(labels + extra)
    out = np.full((len(rps), nq, nq), math.nan)
    if points:
        _, sigma, failed = _object_propagate(models, kernels,
                                             [rps[i].tau for i in index],
                                             phases)
        T = np.concatenate([np.broadcast_to(np.eye(sigma.shape[1]),
                                            sigma.shape),
                            _collective_rows(labels, gains, extra)], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            sigma = T @ sigma @ T.swapaxes(1, 2)
        _refuse_non_finite(sigma, failed)
        out[list(index)] = sigma
        failures.update((index[j], exc) for j, exc in failed.items())
    out[list(failures)] = math.nan
    return OutputCovariance(labels + extra, out), failures


def object_oracle_sweep(sweep_knobs: list[dict], *, engine: str = "reduced",
                        which: tuple[str, ...] = _ORACLE_MODES) -> tuple:
    """``cli._oracle_sweep`` over ``object_output_covariances``."""
    rps, failures = [], {}
    for i, k in enumerate(sweep_knobs):
        try:
            rps.append(reduced_from_ratios(**k))
        except SteerkitError as exc:
            failures[i] = exc
    index = [i for i in range(len(sweep_knobs)) if i not in failures]
    stack, failed = object_output_covariances(rps, engine=engine,
                                              which=which)
    sigma = np.full((len(sweep_knobs),) + stack.sigma.shape[1:], math.nan)
    sigma[index] = stack.sigma
    failures.update((index[j], exc) for j, exc in failed.items())
    return OutputCovariance(stack.mode_labels, sigma), failures
