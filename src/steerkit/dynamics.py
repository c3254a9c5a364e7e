"""Linear stochastic models and temporal-mode output covariances.

This module is the numeric oracle against which the closed forms are
checked.  It builds the quadrature-level drift/diffusion description of
either the full three-mode model (two cavities and the mirror) or the
reduced mirror model obtained by adiabatic elimination, and augments the
state with linear filter accumulators for the temporal output modes.

Every kernel term is ``amp * exp(s t)`` acting on one system mode or noise
channel, and the terms of a kernel share its rate ``s``: one linear filter
per matched exponential temporal mode.  Its output can be written ``F(t) =
R(e^{s t}) h(t)`` with the time-invariant accumulator

    dh/dt = -R(s) h + sum_i R(amp_i) D_i y_i,

where ``R(c)`` is the 2x2 real form of multiplication by ``c`` and ``D_i =
diag(1, -1)`` for creation-type (dagger) terms.  The augmented system ``dz
= A z dt + B xi dt`` then has constant ``A`` and ``B``, one accumulator pair
per kernel, and ``F(tau) = T h(tau)`` with ``T = R(e^{s tau})``.
Its step map over a time ``h`` -- the transition matrix ``Phi_h = e^{A h}``
and the injected noise covariance ``Q_h`` -- follows exactly from Van
Loan's block exponential (C. F. Van Loan, "Computing integrals involving
the matrix exponential", IEEE Trans. Autom. Control 23 (1978) 395),
evaluated by a fixed-degree Taylor series on a scaled step followed by
exact doubling.  The deterministic oracle applies it once over the whole
pulse from the factorized initial state (cavities vacuum, mirror thermal),
and ``output_covariances`` runs it over a sweep of points as one stack (a
sweep of one point is the one-point read).  A model and its kernels have
one representation: ``LinearModel``, ``TemporalKernel`` and ``KernelTerm``
are named tuples, and the stack (``_Stack``) reads them as they are.  A
sweep's stack is built in one pass over its points, each from one
``derived_quantities`` call and plain tuples in the same layouts
(``_full_system``, ``_reduced_system`` and ``_kernel_terms``); the
one-point builders return the named forms of those tuples.
No ODE is integrated, so the only error is floating-point rounding.  The
Monte Carlo sampler draws each trajectory's output modes from the
oracle's output covariance.

Quadrature layout: system modes first, two rows (X, P) per mode, filters
appended in kernel order.  Symmetric ordering, vacuum variance 1/2.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    IntegratorFailure,
    InsufficientTrajectories,
    InvalidParams,
    MissingModes,
    SteerkitError,
)
from .model import DerivedQuantities, ReducedParams, derived_quantities

# canonical mode labels
A_M_OUT = "A_m_out"
A_1_OUT = "A_1_out"
A_2_OUT = "A_2_out"
B_TILDE = "B_tilde_m"
A_TILDE_1_IN = "A_tilde_1_in"
A_TILDE_2_IN = "A_tilde_2_in"
W_OUT = "W_out"
U_OUT = "U_out"
W_TILDE_IN = "W_tilde_in"
U_TILDE_IN = "U_tilde_in"

DEFAULT_OUTPUT_MODES = (A_1_OUT, A_2_OUT, B_TILDE, A_TILDE_1_IN, A_TILDE_2_IN)


class LinearModel(NamedTuple):
    """Quadrature-level linear stochastic model ``dz = A z dt + B xi dt``.

    ``mode_labels`` are the system bosonic modes (the mirror last), ``drift``
    the entries of the real (2m, 2m) drift matrix and ``noise_input`` those
    of the (2m, 2c) routing of the 2c quadratures of the noise channels
    ``channels`` into the state, each row-major (a list, or an array of the
    same entries).  ``occupations`` are the thermal occupations of the
    noise channels, and ``initial_occupations`` those of the system modes
    at the start of the pulse.
    """

    mode_labels: tuple[str, ...]
    drift: list[float]
    noise_input: list[float]
    channels: tuple[str, ...]
    occupations: tuple[float, ...]
    initial_occupations: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.mode_labels)


class KernelTerm(NamedTuple):
    """One coupling ``amplitude * exp(rate*t)`` of a temporal mode of that
    rate to a system mode or noise channel (``dagger`` for creation-type)."""

    kind: str  # "system" | "noise"
    target: str
    dagger: bool
    amplitude: complex


class TemporalKernel(NamedTuple):
    """A temporal output mode: a label, the rate ``s`` of its envelope
    ``e^{s t}`` and its kernel terms.

    The defining (first) envelope of every standard mode grows toward the
    end of the pulse and has unit L2 norm over it.
    """

    label: str
    rate: complex
    terms: tuple[KernelTerm, ...]


# the system modes of the two models (the mirror last) and their noise
# channels: the two cavity inputs and the mirror's bath
_FULL_MODES = ("a_1", "a_2", "b_m")
_REDUCED_MODES = ("b_m",)
_CHANNELS = ("a1_in", "a2_in", "b_in")


def _full_system(rp: ReducedParams) -> tuple:
    """The full model at ``rp`` as a plain tuple in ``LinearModel``'s layout
    (``build_full_model``)."""
    k, D, g1, g2, gm = rp.kappa, rp.Delta, rp.g1, rp.g2, rp.gamma
    drift = [
        -k,    D,   0.0,  0.0,  0.0, -g1,
        -D,   -k,   0.0,  0.0, -g1,  0.0,
        0.0,  0.0, -k,   -D,   0.0, -g2,
        0.0,  0.0,  D,   -k,  -g2,  0.0,
        0.0, -g1,  0.0, -g2,  -gm,  0.0,
        -g1,  0.0, -g2,  0.0,  0.0, -gm,
    ]
    sk = math.sqrt(2.0 * k)
    sg = math.sqrt(2.0 * gm)
    noise = [0.0] * 36
    noise[::7] = (-sk, -sk, -sk, -sk, -sg, -sg)  # the diagonal
    return (_FULL_MODES, drift, noise, _CHANNELS, (0.0, 0.0, rp.n),
            (0.0, 0.0, rp.n0))


def _reduced_system(rp: ReducedParams, dq: DerivedQuantities) -> tuple:
    """The reduced model at ``rp`` (``build_reduced_model``), from its
    derived quantities ``dq``, as ``_full_system`` gives it."""
    G1, G2, G, delta, phi = dq.G1, dq.G2, dq.G, dq.delta, dq.phi
    c, s = math.cos(phi), math.sin(phi)
    r1, r2 = math.sqrt(2.0 * G1), math.sqrt(2.0 * G2)
    rg = math.sqrt(2.0 * rp.gamma)
    noise = [-r1 * s, r1 * c, r2 * s,  r2 * c, -rg, 0.0,
             r1 * c, r1 * s, r2 * c, -r2 * s, 0.0, -rg]
    return (_REDUCED_MODES, [G, -delta, delta, G], noise, _CHANNELS,
            (0.0, 0.0, rp.n), (rp.n0,))


def build_full_model(rp: ReducedParams) -> LinearModel:
    """Three-mode rotating-frame model with cavities kept dynamical.

    Cavity j decays at kappa and sits at detuning +/-Delta; each couples to
    the mirror through the two-mode-squeezing (phase-conjugating) term of
    strength g_j; the mirror decays at gamma into a bath of occupation n.
    """
    return LinearModel._make(_full_system(rp))


def build_reduced_model(rp: ReducedParams) -> LinearModel:
    """Mirror-only model after adiabatic elimination of the cavities.

    The mirror amplitude grows at the net gain G and rotates at delta.  The
    eliminated cavities reappear as two amplified phase-conjugating noise
    channels with rates 2*G_j and phases +/-phi, alongside the mechanical
    damping channel.
    """
    return LinearModel._make(_reduced_system(rp, derived_quantities(rp)))


def _output_norm(dq: DerivedQuantities, tau: float) -> float:
    """Normalization of the growing envelope ``e^{G t}`` over [0, tau], or
    ``IntegratorFailure`` where it is not a finite float > 0: e^{2 G tau}
    leaves the float range past G tau ~ 354.9 (from G tau ~ 9e307 2 G tau
    is inf, which ``expm1`` returns without raising, and the quotient 0),
    and below G tau ~ 5.6e-309 the quotient does (Python float division
    overflows to inf)."""
    G = dq.G
    try:
        norm = math.sqrt(2.0 * G / math.expm1(2.0 * G * tau))
    except OverflowError:
        norm = math.inf
    if not 0.0 < norm < math.inf:
        raise IntegratorFailure(f"output kernel normalization overflows at "
                                f"G*tau = {G * tau:.6g}")
    return norm


# per cavity output or incident mode: its cavity j, j's input channel and
# j's mode in the full model
_CAVITY = {A_1_OUT: (1, "a1_in", "a_1"), A_TILDE_1_IN: (1, "a1_in", "a_1"),
           A_2_OUT: (2, "a2_in", "a_2"), A_TILDE_2_IN: (2, "a2_in", "a_2")}


def _kernel_terms(rp: ReducedParams, dq: DerivedQuantities, full: bool,
                  which: tuple[str, ...]) -> list[tuple]:
    """The kernels of ``output_kernels`` at ``rp``, from its derived
    quantities ``dq``, as plain tuples in ``TemporalKernel``'s layout, each
    term in ``KernelTerm``'s."""
    n_out = _output_norm(dq, rp.tau)
    zout = complex(dq.G, dq.delta)
    zmir = complex(dq.G, -dq.delta)
    # e^{(-1)^j i phi} per cavity j
    ph = (None, cmath.exp(-1j * dq.phi), cmath.exp(+1j * dq.phi))
    sqk = math.sqrt(2.0 * rp.kappa)
    kernels = []
    for name in which:
        if name == B_TILDE:
            kernels.append((name, zmir,
                            (("noise", "b_in", False, complex(n_out)),)))
            continue
        if name not in _CAVITY:
            unknown = set(which) - set(DEFAULT_OUTPUT_MODES)
            raise InvalidParams(f"unknown output modes {sorted(unknown)!r}")
        j, channel, mode = _CAVITY[name]
        if name in (A_TILDE_1_IN, A_TILDE_2_IN):
            terms = (("noise", channel, False, ph[j] * n_out),)
        elif full:
            terms = (("noise", channel, False, ph[j].conjugate() * n_out),
                     ("system", mode, False,
                      ph[j].conjugate() * n_out * sqk))
        else:
            G_j = dq.G1 if j == 1 else dq.G2
            terms = (("noise", channel, False, -ph[j] * n_out),
                     ("system", "b_m", True,
                      -1j * math.sqrt(2.0 * G_j) * n_out))
        kernels.append((name, zout, terms))
    return kernels


def output_kernels(rp: ReducedParams, *, full: bool,
                   which: tuple[str, ...] = DEFAULT_OUTPUT_MODES,
                   ) -> list[TemporalKernel]:
    """Growing-envelope temporal modes of the emitted and incident fields.

    For the full model the cavity output field is ``a_j_in + sqrt(2 kappa)
    a_j``; for the reduced model the eliminated cavity turns it into a
    reflected input plus a phase-conjugated mirror contribution.  Both
    decompositions filter the same physical signal, so either model feeds
    the identical mode definitions.  ``which`` names the modes, in order,
    from ``DEFAULT_OUTPUT_MODES``.
    """
    return [TemporalKernel(label, rate, tuple(map(KernelTerm._make, terms)))
            for label, rate, terms
            in _kernel_terms(rp, derived_quantities(rp), full, which)]


def _collective_weights(G1, G2, G,
                        ) -> dict[str, tuple[tuple[str, float],
                                             tuple[str, float], float]]:
    """The one table of collective-mode weights at the gain rates ``G1``,
    ``G2`` and the net gain ``G``, floats or arrays over points.

    ``label -> ((mode_1, c_1), (mode_2, c_2), b)`` defines ``label = c_1
    mode_1 + c_2 mode_2 + i b B~^dag``; in quadratures ``X = c_1 X_1 + c_2
    X_2 + b P_B~`` and ``P = c_1 P_1 + c_2 P_2 + b X_B~``.  So ``W_out =
    sqrt(G1/G) A_1_out + sqrt(G2/G) A_2_out + i sqrt(gamma/G) B~^dag`` and
    ``U_out = sqrt(G2/G) A_1_out - sqrt(G1/G) A_2_out + i sqrt(gamma/G)
    B~^dag`` (the conjugated bath term swaps X and P roles), as
    ``G1 + G2 - G = gamma``; the input-side aliases W_tilde_in and
    U_tilde_in combine the ``A_tilde_j_in`` modes the same way.  For gamma
    > 0 the bath term keeps W from commuting with the mirror output
    ``A_m_out``, and ``[X_W, P_W]`` differs from i.  The README overview
    describes W as a combination of the cavity outputs alone; the README
    records this discrepancy.
    """
    w1, w2, wg = (np.sqrt(G1 / G), np.sqrt(G2 / G), np.sqrt((G1 + G2 - G) / G))
    return {
        W_OUT: ((A_1_OUT, w1), (A_2_OUT, w2), wg),
        U_OUT: ((A_1_OUT, w2), (A_2_OUT, -w1), wg),
        W_TILDE_IN: ((A_TILDE_1_IN, w1), (A_TILDE_2_IN, w2), -wg),
        U_TILDE_IN: ((A_TILDE_1_IN, w2), (A_TILDE_2_IN, -w1), -wg),
    }


def mirror_output_phase(rp: ReducedParams) -> float:
    """Rotation angle delta*tau that defines the mirror output mode."""
    dq = derived_quantities(rp)
    return dq.delta * rp.tau


def _quad_index(mode_labels: tuple[str, ...], label: str, quad: str) -> int:
    """Row of quadrature ``quad`` of mode ``label`` in the two-rows-per-mode
    layout of ``mode_labels``; a ``quad`` other than ``"X"`` or ``"P"``
    raises ``InvalidParams``."""
    if label not in mode_labels:
        raise MissingModes(f"mode {label!r} not in covariance "
                           f"(have {list(mode_labels)})")
    if quad not in ("X", "P"):
        raise InvalidParams(f"quadrature must be 'X' or 'P', got {quad!r}")
    return 2 * mode_labels.index(label) + (0 if quad == "X" else 1)


@dataclass(frozen=True)
class OutputCovariance:
    """Symmetrized quadrature covariance over a declared list of modes.

    Layout: two rows (X, P) per mode in ``mode_labels`` order.  ``sigma``
    is one (n, n) covariance, or a (points, n, n) stack of them, on which
    ``variance`` and ``covariance`` return one entry per slice.  For Monte
    Carlo results ``standard_errors`` carries the per-entry statistical
    error of the covariance estimate.
    """

    mode_labels: tuple[str, ...]
    sigma: np.ndarray
    standard_errors: np.ndarray | None = None

    def __post_init__(self) -> None:
        nq = 2 * len(self.mode_labels)
        if self.sigma.ndim not in (2, 3) or self.sigma.shape[-2:] != (nq, nq):
            raise InvalidParams(
                f"sigma shape {self.sigma.shape} does not match "
                f"{len(self.mode_labels)} modes")

    def index(self, label: str, quad: str = "X") -> int:
        return _quad_index(self.mode_labels, label, quad)

    def variance(self, label: str, quad: str = "X") -> float | np.ndarray:
        return self.covariance((label, quad), (label, quad))

    def covariance(self, sel1: tuple[str, str], sel2: tuple[str, str],
                   ) -> float | np.ndarray:
        cell = self.sigma[..., self.index(*sel1), self.index(*sel2)]
        return cell if cell.ndim else float(cell)


# 2x2 real forms on (X, P), as indices into a value's (re, im, -re, -im):
# multiplication by c, its negative, and multiplication by c after the
# dagger D = diag(1, -1)
_FORMS = np.array([[[0, 3], [1, 0]], [[2, 1], [3, 2]], [[0, 1], [1, 2]]])
_R, _NEG_R, _R_DAGGER = range(3)


class _Stack:
    """Time-invariant augmented systems ``(A, V)`` and end maps ``T`` of a
    stack of points that share one structure: the first point's system
    modes (the mirror last) and noise channels, and kernels with the same
    labels and terms as the first point's.

    A point is ``(model, kernels, tau, phase)``: a ``LinearModel`` and a
    list of ``TemporalKernel``s, or plain tuples in their layouts.  A
    kernel of rate ``s`` gets one accumulator pair ``h`` with ``dh/dt =
    -R(s) h + sum_i R(amp_i) D_i y_i``, and its filter output is ``R(e^{s
    tau}) h(tau)``; an end factor ``e^{s tau}`` past the float range raises
    ``IntegratorFailure``.  ``T`` maps the augmented state at ``tau`` to the
    modes ``labels``: the terminal mirror rotated by ``phase``, then one
    mode per kernel.  Every array has the point as its first axis; each 2x2
    block is written for the whole stack at once, and a term's block is
    added onto zeros.
    """

    def __init__(self, points: list[tuple]):
        model, first = points[0][:2]
        modes, channels = model[0], model[3]
        labels = [label for label, _, _ in first]
        if len(set(labels)) != len(labels):
            raise InvalidParams(f"duplicate kernel labels in {labels!r}")
        self.labels = (A_M_OUT,) + tuple(labels)
        # per point: the mirror's phase factor, then per kernel its rate, its
        # end factor e^{s tau} and its terms' amplitudes
        values = []
        try:
            for _, kernels, tau, phase in points:
                row = [cmath.exp(-1j * phase)]
                for label, rate, terms in kernels:
                    row += [rate, cmath.exp(rate * tau)]
                    row += [t[3] for t in terms]
                values.append(row)
        except OverflowError:
            raise IntegratorFailure(
                f"end factor of kernel {label!r} overflows at s*tau = "
                f"{rate * tau:.6g}") from None
        v = np.asarray(values, dtype=complex).view(float).reshape(
            len(values), -1, 2)
        blocks = np.concatenate([v, -v], axis=2)[:, :, _FORMS]
        P, n_sys = len(points), 2 * len(modes)
        n = n_sys + 2 * len(first)
        _, drift, noise, _, occupations, initial = zip(*(p[0] for p in points))
        A = np.zeros((P, n, n))
        B = np.zeros((P, n, 2 * len(channels)))
        A[:, :n_sys, :n_sys] = np.array(drift).reshape(P, n_sys, n_sys)
        B[:, :n_sys] = np.array(noise).reshape(P, n_sys, -1)
        T = np.zeros((P, 2 + 2 * len(first), n))
        # the mirror is the last system mode
        T[:, :2, n_sys - 2:n_sys] = blocks[:, 0, _R]
        at = 1
        for k, (_, _, terms) in enumerate(first):
            row = slice(n_sys + 2 * k, n_sys + 2 * k + 2)
            A[:, row, row] = blocks[:, at, _NEG_R]
            T[:, 2 + 2 * k:4 + 2 * k, row] += blocks[:, at + 1, _R]
            for j, (kind, target, dagger, _) in enumerate(terms, start=at + 2):
                if kind == "system":
                    tgt, names = A, modes
                elif kind == "noise":
                    tgt, names = B, channels
                else:
                    raise InvalidParams(f"unknown kernel term kind {kind!r}")
                if target not in names:
                    raise MissingModes(f"{kind} {target!r} not in model")
                col = 2 * names.index(target)
                tgt[:, row, col:col + 2] += blocks[:, j, _R_DAGGER if dagger
                                                   else _R]
            at += 2 + len(terms)
        # symmetric ordering: occupation occ is variance occ + 1/2 per
        # quadrature, of the state and of the white noise alike
        intensities = np.array([[occ + 0.5 for occ in o]
                                for o in occupations]).repeat(2, axis=1)
        self.drift = A
        self.diffusion = (B * intensities[:, None, :]) @ B.swapaxes(1, 2)
        self.end_map = T
        self.initial_variances = np.zeros((P, n))
        self.initial_variances[:, :n_sys] = np.array(
            [[occ + 0.5 for occ in o] for o in initial]).repeat(2, axis=1)


_TAYLOR_DEGREE = 18


def _step_maps(A: np.ndarray, V: np.ndarray, h: list[float],
               ) -> tuple[np.ndarray, np.ndarray,
                          dict[int, IntegratorFailure]]:
    """Exact step maps ``(Phi_h, Q_h)`` of a stack of systems ``dz = A z dt
    + noise`` with constant diffusion ``V``: ``Phi_h = e^{A h}`` and ``Q_h =
    int_0^h e^{A s} V e^{A^T s} ds``, one slice per point and step ``h``.

    Van Loan: the exponential of ``[[-A, V], [0, A^T]] h0`` is ``[[., Phi^-1
    Q], [0, Phi^T]]``.  It is summed by a degree-18 Taylor series (Horner)
    on the step ``h0 = h / 2^k`` with ``||A h0|| <= 1``, where the truncation
    error is below e/19! ~ 2e-17 relative; ``V`` enters the series linearly
    and does not set the step.  ``k`` exact doublings ``Q <- Phi Q Phi^T +
    Q``, ``Phi <- Phi^2`` then reach ``h``.  Squaring the block itself would
    overflow through ``e^{-A h}`` on the stiff full model; the doubling
    never forms it.

    Every slice has its own ``k``: the series runs on the whole stack, and
    each doubling round on the slices that still need it.  The stack is
    taken in order of ``k``, largest first (a stable sort), so the slices
    that double in round ``d`` are always its leading ones, and each round
    runs on that prefix.  A stacked matmul computes each slice as the
    one-slice product would, so a slice's result does not depend on the
    others.  Returns ``(Phi, Q, failures)`` in the caller's order, where
    ``failures`` maps the index of each slice whose result is not finite to
    its ``IntegratorFailure``.
    """
    n = A.shape[1]
    norms = np.abs(A).sum(axis=2).max(axis=1).tolist()
    ks = [max(0, math.ceil(math.log2(x * hp))) if x * hp > 0.0 else 0
          for x, hp in zip(norms, h)]
    order = sorted(range(len(ks)), key=ks.__getitem__, reverse=True)
    # ``at`` puts the stack in that order and ``back`` restores it; a stack
    # already in it (a one-slice stack, as the sampler's) stays as it is
    at, back = (slice(None),) * 2 if order == sorted(order) \
        else (order, np.argsort(order))
    h0 = np.array([hp / 2.0 ** k for hp, k in zip(h, ks)])[:, None, None]
    C = np.zeros((len(ks), 2 * n, 2 * n))
    C[:, :n, :n] = -A * h0
    C[:, :n, n:] = V * h0
    C[:, n:, n:] = A.swapaxes(1, 2) * h0
    # a full stack of identities: adding it costs half a broadcast 2-d one
    eye = np.eye(2 * n)[None].repeat(len(ks), axis=0)
    E, F = eye.copy(), np.empty_like(C)
    for j in range(_TAYLOR_DEGREE, 0, -1):
        np.matmul(C, E, out=F)
        F /= j
        F += eye
        E, F = F, E
    phi = E[:, n:, n:].swapaxes(1, 2)[at]
    q = phi @ E[at, :n, n:]
    # per round, the count of slices still doubling: they lead the stack
    for c in [sum(k > d for k in ks) for d in range(max(ks))]:
        p, qc = phi[:c], q[:c]
        qc += p @ qc @ p.swapaxes(1, 2)
        phi[:c] = p @ p
    phi, q = phi[back], q[back]
    ok = np.isfinite(phi).all(axis=(1, 2)) & np.isfinite(q).all(axis=(1, 2))
    failures = {
        i: IntegratorFailure(f"step map over h = {h[i]!r} overflowed after "
                             f"{ks[i]} doublings")
        for i, fine in enumerate(ok.tolist()) if not fine}
    return phi, 0.5 * (q + q.swapaxes(1, 2)), failures


def _propagate(points: list[tuple],
               ) -> tuple[tuple[str, ...], np.ndarray,
                          dict[int, IntegratorFailure]]:
    """Exact second-moment propagation of a stack of points (``_Stack``;
    see ``propagate_output_covariance``): the mode labels, the stacked
    output covariances, and the failures of ``_step_maps``.  A slice that
    is not finite and has no failure is left for the caller to refuse
    (``_refuse_non_finite``)."""
    # from r ~ 354.5 (gamma/G = 0.1) the moments pass the float range, and
    # below r ~ 1e-308 the squared kernel normalization in the diffusion
    with np.errstate(over="ignore", invalid="ignore"):
        st = _Stack(points)
        T = st.end_map
        phi, q, failures = _step_maps(st.drift, st.diffusion,
                                      [tau for _, _, tau, _ in points])
        S = T @ ((phi * st.initial_variances[:, None, :]) @ phi.swapaxes(1, 2)
                 + q) @ T.swapaxes(1, 2)
        S = 0.5 * (S + S.swapaxes(1, 2))
    return st.labels, S, failures


def _refuse_non_finite(sigma: np.ndarray,
                       failures: dict[int, IntegratorFailure]) -> None:
    """Give each slice of ``sigma`` that is not finite and has no failure
    yet an ``IntegratorFailure`` in ``failures``."""
    for i, ok in enumerate(np.isfinite(sigma).all(axis=(1, 2)).tolist()):
        if not ok:
            failures.setdefault(
                i, IntegratorFailure("output covariance is not finite"))


def propagate_output_covariance(model: LinearModel,
                                kernels: list[TemporalKernel],
                                tau: float, *, terminal_phase: float = 0.0,
                                ) -> OutputCovariance:
    """Exact second-moment propagation over one pulse.

    The joint covariance of the system state and the filter accumulators
    at the end of the pulse is ``Phi S0 Phi^T + Q`` with the Van Loan step
    map ``(Phi, Q)`` over the whole pulse (see ``_step_maps``); the end map
    turns accumulators into filter outputs.  No ODE is integrated, so
    floating-point rounding is the only error source.  The mirror state at
    the end of the pulse is rotated by
    ``terminal_phase`` and returned as the mode ``A_m_out`` alongside all
    filtered modes.  A ``tau`` that is not finite and > 0 raises
    ``InvalidParams``.
    """
    if not tau > 0.0:
        raise InvalidParams(f"tau must be > 0, got {tau!r}")
    if tau == math.inf:
        raise InvalidParams(f"tau must be finite, got {tau!r}")
    labels, sigma, failures = _propagate([(model, kernels, tau,
                                           terminal_phase)])
    _refuse_non_finite(sigma, failures)
    if failures:
        raise failures[0]
    return OutputCovariance(labels, sigma[0])


MIN_TRAJECTORIES = 1000
_BATCH = 512  # trajectories per Philox stream


def monte_carlo_output_covariance(model: LinearModel,
                                  kernels: list[TemporalKernel],
                                  tau: float, trajectories: int, seed: int, *,
                                  terminal_phase: float = 0.0,
                                  ) -> OutputCovariance:
    """Stochastic estimate of the output covariance.

    The output quadratures of a classical Gaussian trajectory of the linear
    dynamics are jointly Gaussian with the exact covariance ``Sigma_out``
    of ``propagate_output_covariance``, so each trajectory is one draw from
    N(0, Sigma_out): one normal per output quadrature, 6 for the mirror and
    two cavity modes.  The draw factors the correlation matrix ``Sigma_ij /
    (s_i s_j)``, ``s_i = sqrt(Sigma_ii)``, once by ``eigh`` with negative
    (rounding) eigenvalues clipped to 0.  The second- and fourth-moment sums
    run over these standardized draws and ``s_i s_j`` is put back at the
    end, so they stay in the float range wherever ``Sigma_out`` does.

    Trajectories run in batches of 512.  Batch ``b`` draws from one
    counter-based Philox stream keyed by ``(seed, b)`` (Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Batches run and
    are reduced in index order, so the result is a pure function of
    ``(seed, trajectories)`` and of the model.  ``Sigma_out`` is the
    oracle's own result, so agreement between the two validates the
    estimator, its standard errors and its reproducibility, not the model
    assembly.

    Raises ``InvalidParams`` for a trajectory count or a seed that is not
    an integer (a seed that is a bool included) and for a seed outside
    ``[0, 2**64)``, ``InsufficientTrajectories`` for fewer than
    ``MIN_TRAJECTORIES`` trajectories, and ``IntegratorFailure`` when
    ``Sigma_out``, the moment sums or their standard errors are not
    finite.
    """
    if not isinstance(trajectories, numbers.Integral):
        raise InvalidParams(f"trajectories must be an integer, got "
                            f"{trajectories!r}")
    if trajectories < MIN_TRAJECTORIES:
        raise InsufficientTrajectories(
            f"need >= {MIN_TRAJECTORIES} trajectories, got {trajectories}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise InvalidParams(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2 ** 64:
        raise InvalidParams(f"seed must be in [0, 2**64), got {seed}")
    exact = propagate_output_covariance(model, kernels, tau,
                                        terminal_phase=terminal_phase)
    scale = np.sqrt(np.diag(exact.sigma))
    w, vec = np.linalg.eigh(exact.sigma / scale[:, None] / scale)
    factor = vec * np.sqrt(np.maximum(w, 0.0))
    key_hi = np.uint64(seed)
    sums, sums2 = 0.0, 0.0  # second- and fourth-moment sums, in batch order
    for b in range(math.ceil(trajectories / _BATCH)):
        gen = np.random.Generator(np.random.Philox(
            key=np.array([key_hi, np.uint64(b)], dtype=np.uint64)))
        z = factor @ gen.standard_normal(
            (len(scale), min(_BATCH, trajectories - b * _BATCH)))
        sq = z * z
        sums = sums + z @ z.T
        sums2 = sums2 + sq @ sq.T
    mean, mean2 = sums / trajectories, sums2 / trajectories
    mean = 0.5 * (mean + mean.T)
    errors = np.sqrt(np.maximum(mean2 - mean ** 2, 0.0) / trajectories)
    outer = np.outer(scale, scale)
    mean, errors = mean * outer, errors * outer
    if not (np.isfinite(mean).all() and np.isfinite(errors).all()):
        raise IntegratorFailure(
            f"Monte Carlo moment sums overflow over {trajectories} "
            f"trajectories")
    return OutputCovariance(exact.mode_labels, mean, errors)


def _collective_rows(mode_labels: tuple[str, ...], table: dict,
                     labels: tuple[str, ...]) -> np.ndarray:
    """Quadrature rows (X, P per label) of collective modes over the modes
    ``mode_labels``, one slice per point: ``table`` is
    ``_collective_weights`` over the points' gains, arrays of one axis."""
    points = len(table[W_OUT][2])  # W's bath weight, one per point
    out = np.zeros((points, 2 * len(labels), 2 * len(mode_labels)))
    for i, label in enumerate(labels):
        (m1, c1), (m2, c2), b = table[label]
        x1, x2, xb = (_quad_index(mode_labels, m, "X")
                      for m in (m1, m2, B_TILDE))
        # the X row reads X_1, X_2 and P_B~; the P row P_1, P_2 and X_B~
        out[:, 2 * i, [x1, x2, xb + 1]] = out[:, 2 * i + 1,
                                              [x1 + 1, x2 + 1, xb]] \
            = np.stack([c1, c2, b], axis=1)
    return out


def output_covariances(rps: list[ReducedParams], *, engine: str = "reduced",
                       which: tuple[str, ...] = DEFAULT_OUTPUT_MODES,
                       ) -> tuple[OutputCovariance, dict[int, SteerkitError]]:
    """The oracle at every point of a sweep, propagated as one stack.

    Takes each point's model (``engine``) and output kernels as the numbers
    they are made of, from one ``derived_quantities`` call, propagates them
    through the pulse exactly (as ``propagate_output_covariance`` does), and
    appends the collective modes of ``_collective_weights`` with exact cross
    moments to everything else; a sweep of one point is the one-point read.

    ``which`` selects the output kernels as in ``output_kernels``; a
    collective mode is appended only when its parts (the two modes it
    combines and ``B_tilde_m``) are among them.  Returns one
    ``OutputCovariance`` whose ``sigma`` has a slice per point, NaN on each
    slice whose point fails, and the ``SteerkitError`` that each such
    point raises when run alone, keyed by its index.  An entry of ``rps``
    may be, in place of a point's parameters, the ``SteerkitError`` that
    refused them; that point fails with it.  A point that fails before
    propagation never enters the stack, and every slice of the stack is
    computed as it would be alone, so each slice is bit for bit that of
    the point on its own.  An unknown ``engine``, or a ``which`` that names
    a mode twice, raises ``InvalidParams``.
    """
    if engine not in ("reduced", "full"):
        raise InvalidParams(f"engine must be 'reduced' or 'full', got {engine!r}")
    full = engine == "full"
    failures, index, points, gains = {}, [], [], []
    for i, rp in enumerate(rps):
        if isinstance(rp, SteerkitError):
            failures[i] = rp
            continue
        try:
            dq = derived_quantities(rp)
            kernels = _kernel_terms(rp, dq, full, which)
        except SteerkitError as exc:
            failures[i] = exc
            continue
        index.append(i)
        # the mirror output phase is delta tau, as in mirror_output_phase
        points.append((_full_system(rp) if full else _reduced_system(rp, dq),
                       kernels, rp.tau, dq.delta * rp.tau))
        gains.append((dq.G1, dq.G2, dq.G))
    labels = (A_M_OUT,) + tuple(which)
    table = _collective_weights(*np.array(gains).reshape(-1, 3).T)
    extra = tuple(lab for lab, ((m1, _), (m2, _), _) in table.items()
                  if {m1, m2, B_TILDE} <= set(labels))
    nq = 2 * len(labels + extra)
    out = np.full((len(rps), nq, nq), math.nan)
    if points:
        _, sigma, failed = _propagate(points)
        T = np.concatenate([np.broadcast_to(np.eye(sigma.shape[1]),
                                            sigma.shape),
                            _collective_rows(labels, table, extra)], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            sigma = T @ sigma @ T.swapaxes(1, 2)
        _refuse_non_finite(sigma, failed)
        out[index] = sigma
        failures.update((index[j], exc) for j, exc in failed.items())
    out[list(failures)] = math.nan
    return OutputCovariance(labels + extra, out), failures


def mode_cross_correlation(oc: OutputCovariance, label1: str, label2: str,
                           ) -> tuple[complex, float | None]:
    """Symmetrized ``<mode1^dag mode2>`` and, for Monte Carlo covariances,
    its linearized standard error on the magnitude."""
    x1, p1 = oc.index(label1, "X"), oc.index(label1, "P")
    x2, p2 = oc.index(label2, "X"), oc.index(label2, "P")
    s = oc.sigma
    value = 0.5 * (s[x1, x2] + s[p1, p2]) + 0.5j * (s[x1, p2] - s[p1, x2])
    if oc.standard_errors is None:
        return value, None
    e = oc.standard_errors
    se_re = 0.5 * math.hypot(e[x1, x2], e[p1, p2])
    se_im = 0.5 * math.hypot(e[x1, p2], e[p1, x2])
    mag = abs(value)
    if mag == 0.0:
        return value, max(se_re, se_im)
    # divided first: the value and its errors both grow like e^{2r}
    return value, math.hypot(value.real / mag * se_re,
                             value.imag / mag * se_im)
