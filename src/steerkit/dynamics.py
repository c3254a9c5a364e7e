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
sweep of one point is the one-point read).  No ODE is integrated, so the
only error is floating-point rounding.  The Monte Carlo sampler draws each
trajectory's output modes from the oracle's output covariance.

Quadrature layout: system modes first, two rows (X, P) per mode, filters
appended in kernel order.  Symmetric ordering, vacuum variance 1/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class NoiseChannel:
    """One bosonic white-noise input; symmetric-ordering intensity is
    ``occupation + 1/2`` per quadrature."""

    name: str
    occupation: float


@dataclass(frozen=True)
class LinearModel:
    """Quadrature-level linear stochastic model ``dz = A z dt + B xi dt``.

    ``mode_labels`` are the system bosonic modes (the mirror last), ``drift``
    the real (2m, 2m) drift matrix, ``noise_input`` the (2m, 2c) routing of
    the 2c noise quadratures into the state, and ``initial_occupations`` the
    thermal occupation of each system mode at the start of the pulse.
    """

    mode_labels: tuple[str, ...]
    drift: np.ndarray
    noise_input: np.ndarray
    noise_channels: tuple[NoiseChannel, ...]
    initial_occupations: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.mode_labels)

    @property
    def noise_intensities(self) -> np.ndarray:
        """Per-quadrature symmetric-ordering intensities, length 2c."""
        return np.repeat([ch.occupation + 0.5 for ch in self.noise_channels], 2)

    def channel_index(self, name: str) -> int:
        for i, ch in enumerate(self.noise_channels):
            if ch.name == name:
                return i
        raise MissingModes(f"noise channel {name!r} not in model")


@dataclass(frozen=True)
class KernelTerm:
    """One exponential coupling ``amplitude * exp(rate*t)`` of a temporal mode
    to a system mode or noise channel (``dagger`` for creation-type)."""

    kind: str  # "system" | "noise"
    target: str
    dagger: bool
    amplitude: complex
    rate: complex


@dataclass(frozen=True)
class TemporalKernel:
    """A temporal output mode: a labelled list of kernel terms.

    The defining (first) envelope of every standard mode grows toward the
    end of the pulse and has unit L2 norm over it.
    """

    label: str
    terms: tuple[KernelTerm, ...]


def build_full_model(rp: ReducedParams) -> LinearModel:
    """Three-mode rotating-frame model with cavities kept dynamical.

    Cavity j decays at kappa and sits at detuning +/-Delta; each couples to
    the mirror through the two-mode-squeezing (phase-conjugating) term of
    strength g_j; the mirror decays at gamma into a bath of occupation n.
    """
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
    return LinearModel(
        mode_labels=("a_1", "a_2", "b_m"),
        drift=drift,
        noise_input=noise,
        noise_channels=(NoiseChannel("a1_in", 0.0), NoiseChannel("a2_in", 0.0),
                        NoiseChannel("b_in", rp.n)),
        initial_occupations=(0.0, 0.0, rp.n0),
    )


def build_reduced_model(rp: ReducedParams) -> LinearModel:
    """Mirror-only model after adiabatic elimination of the cavities.

    The mirror amplitude grows at the net gain G and rotates at delta.  The
    eliminated cavities reappear as two amplified phase-conjugating noise
    channels with rates 2*G_j and phases +/-phi, alongside the mechanical
    damping channel.
    """
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
    return LinearModel(
        mode_labels=("b_m",),
        drift=drift,
        noise_input=noise,
        noise_channels=(NoiseChannel("a1_in", 0.0), NoiseChannel("a2_in", 0.0),
                        NoiseChannel("b_in", rp.n)),
        initial_occupations=(rp.n0,),
    )


def _output_norm(dq: DerivedQuantities, tau: float) -> float:
    """Normalization of the growing envelope ``e^{G t}`` over [0, tau], or
    ``IntegratorFailure`` where it is not a finite float: e^{2 G tau}
    leaves the float range past G tau ~ 354.9, and below G tau ~ 5.6e-309
    the quotient does (Python float division overflows to inf)."""
    G = dq.G
    try:
        norm = math.sqrt(2.0 * G / math.expm1(2.0 * G * tau))
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise IntegratorFailure(f"output kernel normalization overflows at "
                                f"G*tau = {G * tau:.6g}")
    return norm


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
    dq = derived_quantities(rp)
    n_out = _output_norm(dq, rp.tau)
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
            terms = (KernelTerm("noise", "b_in", False, complex(n_out), zmir),)
        elif name in (A_TILDE_1_IN, A_TILDE_2_IN):
            terms = (KernelTerm("noise", f"a{j}_in", False, ph[j] * n_out,
                                zout),)
        elif full:
            terms = (
                KernelTerm("noise", f"a{j}_in", False,
                           ph[j].conjugate() * n_out, zout),
                KernelTerm("system", f"a_{j}", False,
                           ph[j].conjugate() * n_out * sqk, zout),
            )
        else:
            G_j = dq.G1 if j == 1 else dq.G2
            terms = (
                KernelTerm("noise", f"a{j}_in", False, -ph[j] * n_out, zout),
                KernelTerm("system", "b_m", True,
                           -1j * math.sqrt(2.0 * G_j) * n_out, zout),
            )
        kernels.append(TemporalKernel(name, terms))
    return kernels


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
    layout of ``mode_labels``."""
    if label not in mode_labels:
        raise MissingModes(f"mode {label!r} not in covariance "
                           f"(have {list(mode_labels)})")
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
    stack of points that share one structure: one model kind, and kernels
    with the same labels and terms as the first point's.

    The terms of a kernel share one rate ``s`` (as every kernel of
    ``output_kernels`` does; a kernel whose terms mix rates is refused).
    Each kernel gets one accumulator pair ``h`` with ``dh/dt = -R(s) h +
    sum_i R(amp_i) D_i y_i``, and its filter output is ``R(e^{s tau})
    h(tau)``.  ``T`` maps the augmented state at ``tau`` to the modes
    ``labels``: the terminal mirror rotated by ``phase``, then one mode per
    kernel.  Every array has the point as its first axis; each 2x2 block is
    written for the whole stack at once, and a term's block is added onto
    zeros.
    """

    def __init__(self, models: list[LinearModel],
                 kernels: list[list[TemporalKernel]], taus: list[float],
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
                    tgt, col = B, 2 * model.channel_index(t.target)
                else:
                    raise InvalidParams(f"unknown kernel term kind {t.kind!r}")
                tgt[:, row, col:col + 2] += blocks[:, j, _R_DAGGER if t.dagger
                                                   else _R]
            at += 2 + len(kern.terms)
        intensities = np.array([m.noise_intensities for m in models])
        self.drift = A
        self.diffusion = (B * intensities[:, None, :]) @ B.swapaxes(1, 2)
        self.end_map = T
        self.initial_variances = np.zeros((P, n))
        self.initial_variances[:, :n_sys] = [
            [x for occ in m.initial_occupations for x in [occ + 0.5] * 2]
            for m in models]


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
    each doubling round on the slices that still need it.  A stacked matmul
    computes each slice as the one-slice product would, so a slice's result
    does not depend on the others.  Returns ``(Phi, Q, failures)``, where
    ``failures`` maps the index of each slice whose result is not finite to
    its ``IntegratorFailure``.
    """
    n = A.shape[1]
    norms = np.abs(A).sum(axis=2).max(axis=1).tolist()
    ks = [max(0, math.ceil(math.log2(x * hp))) if x * hp > 0.0 else 0
          for x, hp in zip(norms, h)]
    h0 = np.array([hp / 2.0 ** k for hp, k in zip(h, ks)])[:, None, None]
    C = np.zeros((len(ks), 2 * n, 2 * n))
    C[:, :n, :n] = -A * h0
    C[:, :n, n:] = V * h0
    C[:, n:, n:] = A.swapaxes(1, 2) * h0
    # a full stack of identities: adding it costs half a broadcast 2-d one
    eye = np.tile(np.eye(2 * n), (len(ks), 1, 1))
    E, F = eye.copy(), np.empty_like(C)
    for j in range(_TAYLOR_DEGREE, 0, -1):
        np.matmul(C, E, out=F)
        F /= j
        F += eye
        E, F = F, E
    phi = E[:, n:, n:].swapaxes(1, 2)
    q = phi @ E[:, :n, n:]
    for d in range(max(ks)):
        # The masked round at every d gives the same bytes, but its mask
        # copies the due slices out and back.  The sampler propagates
        # one-slice stacks, where every round is all-due: on one 10 x 10
        # system the masked round alone takes 117-149 us against 89-103 us
        # with this branch (2-core x86 machine, min of 7 x 500 calls).
        if d < min(ks):  # every slice is due
            q, phi = phi @ q @ phi.swapaxes(1, 2) + q, phi @ phi
        else:
            due = np.array(ks) > d
            p, qd = phi[due], q[due]
            q[due], phi[due] = p @ qd @ p.swapaxes(1, 2) + qd, p @ p
    finite = (np.isfinite(phi).all(axis=(1, 2))
              & np.isfinite(q).all(axis=(1, 2)))
    failures = {
        i: IntegratorFailure(f"step map over h = {h[i]!r} overflowed after "
                             f"{ks[i]} doublings")
        for i, ok in enumerate(finite.tolist()) if not ok}
    return phi, 0.5 * (q + q.swapaxes(1, 2)), failures


def _propagate(models: list[LinearModel], kernels: list[list[TemporalKernel]],
               taus: list[float], phases: list[float],
               ) -> tuple[tuple[str, ...], np.ndarray,
                          dict[int, IntegratorFailure]]:
    """Exact second-moment propagation of a stack of points (see
    ``propagate_output_covariance``): the mode labels, the stacked output
    covariances, and the failures of ``_step_maps``.  A slice that is not
    finite and has no failure is left for the caller to refuse
    (``_refuse_non_finite``)."""
    # from r ~ 354.5 (gamma/G = 0.1) the moments pass the float range, and
    # below r ~ 1e-308 the squared kernel normalization in the diffusion
    with np.errstate(over="ignore", invalid="ignore"):
        st = _Stack(models, kernels, taus, phases)
        T = st.end_map
        phi, q, failures = _step_maps(st.drift, st.diffusion, taus)
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
    filtered modes.
    """
    if not tau > 0.0:
        raise InvalidParams(f"tau must be > 0, got {tau!r}")
    labels, sigma, failures = _propagate([model], [kernels], [tau],
                                         [terminal_phase])
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

    Raises ``InsufficientTrajectories`` for fewer than ``MIN_TRAJECTORIES``
    trajectories, and ``IntegratorFailure`` when ``Sigma_out``, the moment
    sums or their standard errors are not finite.
    """
    if trajectories < MIN_TRAJECTORIES:
        raise InsufficientTrajectories(
            f"need >= {MIN_TRAJECTORIES} trajectories, got {trajectories}")
    exact = propagate_output_covariance(model, kernels, tau,
                                        terminal_phase=terminal_phase)
    scale = np.sqrt(np.diag(exact.sigma))
    w, vec = np.linalg.eigh(exact.sigma / scale[:, None] / scale)
    factor = vec * np.sqrt(np.maximum(w, 0.0))
    key_hi = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
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


def _collective_rows(mode_labels: tuple[str, ...], gains: np.ndarray,
                     labels: tuple[str, ...]) -> np.ndarray:
    """Quadrature rows (X, P per label) of collective modes over the modes
    ``mode_labels``, one slice per point: per row ``(G1, G2, G)`` of
    ``gains``."""
    table = _collective_weights(*gains.T)
    out = np.zeros((len(gains), 2 * len(labels), 2 * len(mode_labels)))
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

    Builds each point's model (``engine``) and output kernels, propagates
    them through the pulse exactly (as ``propagate_output_covariance``
    does), and appends the collective modes of ``_collective_weights`` with
    exact cross moments to everything else; a sweep of one point is the
    one-point read.

    ``which`` selects the output kernels as in ``output_kernels``; a
    collective mode is appended only when its parts (the two modes it
    combines and ``B_tilde_m``) are among them.  Returns one
    ``OutputCovariance`` whose ``sigma`` has a slice per point, NaN on each
    slice whose point fails, and the ``SteerkitError`` that each such
    point raises when run alone, keyed by its index.  A point that fails
    before propagation never enters the stack, and every slice of the stack
    is computed as it would be alone, so each slice is bit for bit that of
    the point on its own.  An unknown ``engine``, or a ``which`` that names
    a mode twice, raises ``InvalidParams``.
    """
    if engine == "reduced":
        build = build_reduced_model
    elif engine == "full":
        build = build_full_model
    else:
        raise InvalidParams(f"engine must be 'reduced' or 'full', got {engine!r}")
    failures, points = {}, []
    for i, rp in enumerate(rps):
        try:
            # the model, its kernels, the gains' dq and, from that dq, the
            # mirror output phase delta tau of mirror_output_phase
            points.append((i, build(rp),
                           output_kernels(rp, full=(engine == "full"),
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
        _, sigma, failed = _propagate(models, kernels,
                                      [rps[i].tau for i in index], phases)
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
