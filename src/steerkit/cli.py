"""Scenario-driven command-line front end.

A scenario is a single JSON document (``schema_version`` mandatory) naming a
computation mode, a parameter block, an optional sweep (plus a second sweep
axis for heatmaps), and output options.  Results are written as
RFC-4180-compatible CSV with ``#`` comment lines carrying the scenario
digest and tool version, or as JSON.  Identical scenario plus seed gives
byte-identical CSV.

Frequencies in parameter blocks are accepted either as plain numbers
(rad/s) or as strings with an explicit unit, e.g. ``"500 MHz"`` or
``"2.1e9 rad/s"``; Hz-family values are multiplied by 2*pi at this boundary
and everything is stored in rad/s internally.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import numbers
import os
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

# hashlib loads OpenSSL's libcrypto (3.5 MB resident on x86-64 Linux) for
# the one hash used here; the interpreter's built-in SHA-256 gives the same
# digests
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__, closedform, dynamics, steering
from .errors import ConfigError, SteerkitError
from .model import (
    PhysicalParams,
    ReducedParams,
    derive_working_point,
    derived_quantities,
    reduce as reduce_params,
    reduced_from_ratios,
    working_point_residuals,
)

SCHEMA_VERSION = 1

ENGINES = ("closedform", "oracle", "both")
SWEEP_VARIABLES = ("r", "tau", "n", "n0", "gamma_over_G", "G1_over_G2")

_HZ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12}


def _number(value, what: str) -> float:
    """A finite float from a scenario value; bools and strings are not
    numbers here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return x


def _refuse_unknown(keys, known, what: str) -> None:
    """Refuse any of ``keys`` that is not in ``known`` with a
    ``ConfigError`` that lists them: ``unknown <what> [...]``."""
    unknown = set(keys).difference(known)
    if unknown:
        raise ConfigError(f"unknown {what} {sorted(unknown)}")


def parse_rate(value) -> float:
    """Finite angular rate in rad/s from a number or a '<value> <unit>'
    string."""
    if not isinstance(value, str):
        return _number(value, "rate")
    parts = value.split()
    if len(parts) == 2:
        num, unit = parts
        key = unit.lower()
        try:
            x = float(num)
        except ValueError as exc:
            raise ConfigError(f"bad rate value {value!r}") from exc
        if key in _HZ_UNITS:
            return _number(2.0 * math.pi * x * _HZ_UNITS[key],
                           f"rate {value!r}")
        if key == "rad/s":
            return _number(x, f"rate {value!r}")
    raise ConfigError(
        f"bad rate {value!r}; use a number (rad/s) or '<value> Hz|kHz|"
        f"MHz|GHz|THz|rad/s'")


@dataclass(frozen=True)
class Sweep:
    """One sweep axis; building one refuses a bad value with
    ``ConfigError``."""

    variable: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep variable {self.variable!r} not in "
                              f"{SWEEP_VARIABLES}")
        if self.points < 2:
            raise ConfigError(f"sweep needs >= 2 points, got {self.points}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(
                f"sweep range must be finite, got [{self.start}, {self.stop}]")
        if not self.start < self.stop:
            raise ConfigError(
                f"sweep range must have start < stop, got "
                f"[{self.start}, {self.stop}]")
        if self.stop - self.start == math.inf:
            raise ConfigError(
                f"sweep range [{self.start}, {self.stop}] is wider than the "
                f"float range")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep scale {self.scale!r} not linear|log")
        if self.scale == "log" and self.start <= 0:
            raise ConfigError("log sweep needs start > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.start), math.log10(self.stop),
                               self.points)
        return np.linspace(self.start, self.stop, self.points)

    @classmethod
    def from_dict(cls, d: dict) -> "Sweep":
        if not isinstance(d, dict):
            raise ConfigError(f"sweep block must be an object, got {d!r}")
        _refuse_unknown(d, [f.name for f in fields(cls)], "sweep fields")
        missing = {f.name for f in fields(cls)
                   if f.default is MISSING} - set(d)
        if missing:
            raise ConfigError(f"sweep block misses {sorted(missing)}")
        points = d["points"]
        if isinstance(points, bool) or not isinstance(points, int):
            raise ConfigError(f"sweep points must be an integer, got "
                              f"{points!r}")
        return cls(**{**d, "start": _number(d["start"], "sweep start"),
                      "stop": _number(d["stop"], "sweep stop")})


@dataclass(frozen=True)
class Scenario:
    mode: str
    params: dict = field(default_factory=dict)
    sweep: Sweep | None = None
    sweep2: Sweep | None = None
    cases: tuple[dict, ...] = ()
    engine: str = "closedform"
    output: str | None = None
    seed: int = 12345
    trajectories: int = 100_000
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Check every field's value, then that the mode reads every field
        that is set (``_MODES``): a field the mode would ignore is an
        error.  A sweep block checked itself when it was built."""
        mode = _MODES.get(self.mode) if isinstance(self.mode, str) else None
        if mode is None:
            raise ConfigError(f"mode {self.mode!r} not in {tuple(_MODES)}")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine {self.engine!r} not in {ENGINES}")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be an object")
        mode.params(self.params)
        labels = set()
        for i, case in enumerate(self.cases):
            if not isinstance(case, dict):
                raise ConfigError(f"cases entries must be objects, got "
                                  f"{case!r}")
            label = str(_case_label(i, case))
            if label in labels:
                raise ConfigError(f"cases label {label!r} is repeated")
            labels.add(label)
            for key, val in case.items():
                if key == "label":
                    continue
                if key not in _RATIO_DEFAULTS:
                    raise ConfigError(f"unknown case override {key!r}")
                swept = self.sweep and self.sweep.variable
                if swept and key == _knob(swept):
                    raise ConfigError(f"case override {key!r} sets the knob "
                                      f"of the {swept!r} sweep")
                _number(val, f"case override {key!r}")
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must be an object")
        for key, val in self.tolerances.items():
            if not _number(val, f"tolerance {key!r}") > 0.0:
                raise ConfigError(f"tolerance {key!r} must be > 0, got "
                                  f"{val!r}")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError(f"output must be a string, got "
                              f"{self.output!r}")
        for key in ("seed", "trajectories"):
            val = getattr(self, key)
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"{key} must be an integer, got {val!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.mode == "cross-correlation" and self.engine != "closedform" \
                and self.trajectories < dynamics.MIN_TRAJECTORIES:
            raise ConfigError(
                f"the Monte Carlo sampler needs >= "
                f"{dynamics.MIN_TRAJECTORIES} trajectories, got "
                f"{self.trajectories}")

        if self.engine != "closedform" and not mode.engine:
            raise ConfigError(f"mode {self.mode!r} runs the closed form "
                              f"only; engine {self.engine!r} is not allowed")
        for k, block in enumerate((self.sweep, self.sweep2)):
            if (block is None) == (k < mode.sweeps):
                raise ConfigError(f"mode {self.mode!r} takes " + (
                    "no sweep block", "one sweep block",
                    "a sweep and a sweep2 block")[mode.sweeps])
            if block is not None and block.variable not in \
                    mode.sweep_variables:
                raise ConfigError(f"mode {self.mode!r} sweeps "
                                  f"{' or '.join(mode.sweep_variables)}")
        if mode.sweeps == 2 and \
                _knob(self.sweep.variable) == _knob(self.sweep2.variable):
            raise ConfigError(f"mode {self.mode!r} needs sweep variables that "
                              f"set two different knobs ('tau' sets 'r')")
        if self.cases and not mode.cases:
            raise ConfigError(f"mode {self.mode!r} reads no cases")
        unread = set(self.tolerances) - set(mode.tolerances)
        if unread:
            raise ConfigError(f"mode {self.mode!r} reads no tolerances "
                              f"{sorted(unread)}; it reads "
                              f"{sorted(mode.tolerances)}")

    def to_dict(self) -> dict:
        """The scenario document: ``schema_version`` and every field, a
        sweep block as a dict and ``cases`` as a list, less the fields that
        are unset (None) or empty sequences: ``sweep``, ``sweep2``,
        ``output`` and ``cases`` at their defaults."""
        d: dict = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            v = getattr(self, f.name)
            if not (v is None or isinstance(v, (tuple, list)) and not v):
                d[f.name] = dict(vars(v)) if isinstance(v, Sweep) \
                    else list(v) if isinstance(v, tuple) else v
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ConfigError("scenario must be a JSON object")
        if "schema_version" not in d:
            raise ConfigError("scenario is missing mandatory schema_version")
        if type(d["schema_version"]) is not int \
                or d["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {d['schema_version']!r} "
                f"(tool speaks {SCHEMA_VERSION})")
        kwargs = {k: v for k, v in d.items() if k != "schema_version"}
        _refuse_unknown(kwargs, [f.name for f in fields(cls)],
                        "scenario fields")
        try:
            for key in ("sweep", "sweep2"):
                if key in kwargs:
                    kwargs[key] = Sweep.from_dict(kwargs[key])
            if "cases" in kwargs:
                kwargs["cases"] = tuple(kwargs["cases"])
            return cls(**kwargs)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario is not valid JSON: {exc}") from exc

    def digest(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return sha256(canon.encode()).hexdigest()


@dataclass
class RunRecord:
    """What one run computed.  ``points`` reads as a sequence of row
    dicts, one per CSV row, keyed by ``columns`` and holding Python floats.
    It is a view over the run's float array: a one-axis run's
    (points x columns) table (``_Table``), or a heatmap's grid
    (``_GridPoints``), which the CSV and SVG writers read."""

    scenario_digest: str
    tool_version: str
    wall_time_s: float
    columns: list[str]
    points: Sequence[dict]
    warnings: list[str]
    summary: dict
    exit_code: int = 0


# ---------------------------------------------------------------------------
# parameter normalization

# the ratio knobs and their defaults: exactly the parameters of
# ``reduced_from_ratios``, so the oracle and sampler runners pass it a knob
# dict as its keywords
_RATIO_DEFAULTS = {"r": 1.0, "gamma_over_G": 0.0, "G1_over_G2": 1.0,
                   "n0": 0.0, "n": 0.0, "Delta_over_kappa": 1.0,
                   "kappa": 20.0}


def ratio_params(params: dict) -> dict:
    """Normalize a params block to the dimensionless knobs.

    ``kind: ratios`` blocks are taken as-is; ``kind: reduced`` blocks are
    collapsed through ``derived_quantities``.  The result always contains
    the keys of ``_RATIO_DEFAULTS``.
    """
    kind = params.get("kind", "ratios")
    out = dict(_RATIO_DEFAULTS)
    if kind == "ratios":
        _refuse_unknown(params, [*_RATIO_DEFAULTS, "kind"], "ratios params")
        for key in _RATIO_DEFAULTS:
            if key in params:
                out[key] = _number(params[key], f"params {key!r}")
        return out
    if kind == "reduced":
        rp = _rate_block(ReducedParams, params, kind)
        dq = derived_quantities(rp)
        out.update({
            "r": dq.r,
            "gamma_over_G": dq.gamma_over_G,
            "G1_over_G2": dq.G1 / dq.G2 if dq.G2 > 0 else math.inf,
            "n0": rp.n0, "n": rp.n,
            "Delta_over_kappa": rp.Delta / rp.kappa,
            "kappa": rp.kappa / dq.G,
        })
        return out
    raise ConfigError(f"params kind {kind!r} not usable here "
                      "(need 'ratios' or 'reduced')")


def physical_params(params: dict) -> PhysicalParams:
    if params.get("kind") != "physical":
        raise ConfigError("this mode needs a params block with kind 'physical'")
    return _rate_block(PhysicalParams, params, "physical")


def _rate_block(cls, params: dict, kind: str):
    """``cls`` from a params block that sets each of its fields and nothing
    else, in field order: ``n0``, ``n`` and ``tau`` are numbers, every other
    field a rate (``parse_rate``)."""
    _refuse_unknown(params, [*(f.name for f in fields(cls)), "kind"],
                    f"{kind} params")
    try:
        return cls(**{f.name: _number(params[f.name], f"params {f.name!r}")
                      if f.name in ("n0", "n", "tau")
                      else parse_rate(params[f.name]) for f in fields(cls)})
    except KeyError as exc:
        raise ConfigError(f"{kind} params missing {exc}") from exc


def _knob(variable: str) -> str:
    """The ratio knob a sweep variable sets: ``tau`` sets ``r``, because
    net gain is the unit of rate in ratio form."""
    return "r" if variable == "tau" else variable


def _apply(knobs: dict, variable: str, value: float) -> dict:
    return {**knobs, _knob(variable): value}


# the output kernels whose modes E_mW, E_m1 and the validate-oracle moments
# read: the cavity outputs and the mirror bath, which make W_out and U_out
_ORACLE_MODES = (dynamics.A_1_OUT, dynamics.A_2_OUT, dynamics.B_TILDE)


def _oracle_sweep(sweep_knobs: list[dict], *, engine: str = "reduced",
                  which: tuple[str, ...] = _ORACLE_MODES) -> tuple:
    """The oracle's output covariances over a sweep as one stacked
    ``OutputCovariance``, NaN on each slice whose point failed, and the
    failures keyed by point index, from one stacked call.  Knobs that make
    no ``ReducedParams`` go into that call as their error."""
    rps = []
    for k in sweep_knobs:
        try:
            rps.append(reduced_from_ratios(**k))
        except SteerkitError as exc:
            rps.append(exc)
    return dynamics.output_covariances(rps, engine=engine, which=which)


def _oracle_refusal(sweep: tuple, party: str, start: int = 0) -> Callable:
    """``refusal(at)`` (``_refusals``) of an ``_oracle_sweep``'s witness with
    ``party`` over its points from ``start`` on: for each point ``i`` of
    ``at``, the failure of slice ``start + i``, else that slice's party
    variance below 1e-15 (``steering._refusal``), or None."""
    stack, failures = sweep
    return lambda at: (failures.get(j) or steering._refusal(stack, party, (j,))
                       for j in (start + i for i in at))


def _closed_refusal(kind: tuple, shape: tuple, knobs: dict, *more) -> Callable:
    """``refusal(at)`` (``_refusals``) of a closed-form array call over a
    grid of ``shape``, of the function whose ``(domain, error)`` is
    ``kind``: for each cell of ``at`` (row-major) in turn, the error that
    ``closedform._refusal`` reads from the cell's arguments alone.  The
    arguments are the knobs r, gamma/G, n0 and n, then ``more``, each a
    float or an array on its own axes of the grid, as the call took them;
    a cell reads each as a Python float."""
    args = knobs["r"], knobs["gamma_over_G"], knobs["n0"], knobs["n"], *more
    return lambda at: (closedform._refusal(cell, kind) for cell in zip(
        *(np.broadcast_to(a, shape).flat[at].tolist() for a in args)))


def _refusals(steps: list) -> list[tuple[int, object, str]]:
    """The refused cells of a run as ``(point, tag, message)``, by point and
    then in the order of ``steps``: the one step that turns a run's NaN
    cells into its warnings.

    ``steps`` is a list of ``(tag, column, refusal)``: ``column`` holds one
    column's cells over the run's points, and ``refusal(at)`` the errors
    that refuse the NaN cells ``at`` (flat indices), read from their
    inputs, each None where nothing does.  A tag refuses a point once, with
    its first step's error.  Only the error's message is kept, so that a
    map of many refused cells keeps no error objects alive for the garbage
    collector to walk (it tripled the time of a 401 x 401 map).
    """
    # keyed by point and by the tag's first step, so that sorting orders
    # them by point and then by tag
    first, tags = {}, [tag for tag, _, _ in steps]
    for tag, column, refusal in steps:
        at = np.flatnonzero(np.isnan(column)).tolist()
        for i, exc in zip(at, refusal(at) if at else ()):
            if exc is not None:
                first.setdefault((i, tags.index(tag)), (tag, str(exc)))
    return [(i, *found) for (i, _), found in sorted(first.items())]


# ---------------------------------------------------------------------------
# mode runners: ``runner(scenario, parsed params, tolerances)`` returns
# (columns, points, warnings, summary) with every column in every point; a
# sweep runner warns of its NaN cells through ``_refusals``


def _witness_grid(knobs: dict, shape: tuple[int, ...]) -> np.ndarray:
    """The collective witness over a grid of knobs, in one array call.
    Each knob is a float or an array on its own axes of the grid; r goes
    in as a ``np.broadcast_to`` view of the grid's ``shape``, which copies
    nothing, so the result has that shape also where the witness ignores
    an axis and the call's r counts the grid's cells."""
    return closedform.collective_steering_value(
        np.broadcast_to(knobs["r"], shape), knobs["gamma_over_G"],
        knobs["n0"], knobs["n"])


def _case_label(i: int, case: dict):
    """Label of curve case ``i``: its ``label``, else ``case{i}``; an empty
    case is ``E``."""
    return case.get("label", f"case{i}") if case else "E"


@dataclass(frozen=True, eq=False)
class _Table(Sequence):
    """A one-axis run's points as a view over its table: ``cells[i, k]`` is
    column ``columns[k]`` at point ``i``.  Reads as one dict of floats per
    row; the CSV and SVG writers read the table."""

    columns: list[str]
    cells: np.ndarray

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, i: int) -> dict:
        return dict(zip(self.columns, self.cells[i].tolist()))


def _point_warnings(var: str, values: np.ndarray, refused: list) -> list:
    """The warnings of a sweep of ``var`` over ``values`` for its refused
    cells ``(i, tag, message)`` (``_refusals``): ``point i (<var>=v[,
    tag]): <message>``, v the point's value as a Python float."""
    return [f"point {i} ({var}={values[i].item():.6g}"
            f"{f', {tag}' if tag else ''}): {message}"
            for i, tag, message in refused]


def _run_curve(sc: Scenario, base: dict, tol: dict):
    var = sc.sweep.variable
    values = sc.sweep.values()
    closed = sc.engine != "oracle"
    cases = list(sc.cases) or [{}]
    labelled = len(cases) > 1 or "label" in cases[0]
    m, w = dynamics.A_M_OUT, dynamics.W_OUT

    overs = [{k: float(v) for k, v in case.items() if k != "label"}
             for case in cases]
    if sc.engine != "closedform":
        # every case's points in one stack, case after case; case i's
        # cells are row i of its witness
        sweep = _oracle_sweep([{**_apply(base, var, v), **over}
                               for over in overs for v in values.tolist()])
        oracle = steering.steering_product(sweep[0], m, w).reshape(
            len(cases), len(values))
    # per case, its columns and what refuses their NaN cells: the witness's
    # knobs, then the oracle's failure; a refused closed-form cell also
    # leaves that case's oracle cell NaN
    columns, cells, steps = [var], [values], []
    for i, (case, over) in enumerate(zip(cases, overs)):
        lab = _case_label(i, case)
        knobs = {**_apply(base, var, values), **over}
        if closed:
            columns.append(f"E[{lab}]" if labelled else "E")
            cells.append(_witness_grid(knobs, values.shape))
            steps.append((lab, cells[-1], _closed_refusal(
                closedform._WITNESS, values.shape, knobs)))
        if sc.engine != "closedform":
            columns.append(f"E_oracle[{lab}]" if labelled else "E_oracle")
            cells.append(oracle[i])
            if closed:
                cells[-1][np.isnan(cells[-2])] = math.nan
            steps.append((lab, cells[-1],
                          _oracle_refusal(sweep, w, i * len(values))))
    warnings = _point_warnings(var, values, _refusals(steps))
    return columns, _Table(columns, np.column_stack(cells)), warnings, {}


@dataclass(frozen=True, eq=False)
class _GridPoints(Sequence):
    """A heatmap's points as a view over its grid: ``E[i, j]`` is the cell
    at ``var1 = v1[j]``, ``var2 = v2[i]`` (``v1`` and ``v2`` are lists of
    floats).  Reads as one ``{var1, var2, "E"}`` dict of floats per cell,
    row-major (``var2`` outer); the CSV and SVG writers read the grid."""

    var1: str
    var2: str
    v1: list[float]
    v2: list[float]
    E: np.ndarray

    def __len__(self) -> int:
        return self.E.size

    def __getitem__(self, k: int) -> dict:
        i, j = divmod(range(self.E.size)[k], len(self.v1))
        return {self.var1: self.v1[j], self.var2: self.v2[i],
                "E": float(self.E[i, j])}

    # ``Sequence.__iter__`` gives the same dicts through ``__getitem__``;
    # this row walk writes fig4's JSON in 229-230 ms, against 252-253 ms
    # without it (2-core x86 machine, min of 7 runs)
    def __iter__(self):
        var1, var2 = self.var1, self.var2
        for x2, row in zip(self.v2, self.E.tolist()):
            for x1, e in zip(self.v1, row):
                yield {var1: x1, var2: x2, "E": e}


def _has_contour(sc: Scenario) -> bool:
    """Whether a run of ``sc`` has an E = 1/2 contour, and so writes
    ``<output>.contour.csv``: a heatmap of r (``sweep``) by gamma/G
    (``sweep2``)."""
    return sc.mode == "heatmap" and sc.sweep.variable == "r" \
        and sc.sweep2.variable == "gamma_over_G"


def _run_heatmap(sc: Scenario, base: dict, tol: dict):
    var1, var2 = sc.sweep.variable, sc.sweep2.variable
    v1 = sc.sweep.values()
    v2 = sc.sweep2.values()
    shape = len(v2), len(v1)
    knobs = _apply(_apply(base, var1, v1), var2, v2[:, None])
    # an (r, gamma/G) map has the contour of E = 1/2 along r, per gamma/G
    # row; a map over other axes has none, and writes no contour file
    summary = {}
    if _has_contour(sc):
        region = steering.steering_region(v1, v2, base["n0"], base["n"])
        E, summary["contour"] = region.E, list(region.contour)
    else:
        E = _witness_grid(knobs, shape)

    points = _GridPoints(var1, var2, v1.tolist(), v2.tolist(), E)
    warnings = [f"point {k}: {message}" for k, _, message in _refusals([(
        None, E, _closed_refusal(closedform._WITNESS, shape, knobs))])]
    return [var1, var2, "E"], points, warnings, summary


def _run_nthreshold(sc: Scenario, base: dict, tol: dict):
    x = sc.sweep.values()
    args = base["n0"], tol["r_max"], tol["n_tol"]
    res = steering.noise_threshold(x, *args)
    # n_max(r) is least at the window's end, where the bound binds
    sup_r = np.where(np.isnan(res.value), math.nan, tol["r_max"])
    steps = [(None, res.value,
              lambda at: steering._threshold_refusal(x[at], *args)[1])]
    warnings = _point_warnings(sc.sweep.variable, x, _refusals(steps))
    columns = ["gamma_over_G", "n_threshold", "sup_r", "bracket_lo",
               "bracket_hi"]
    return columns, _Table(columns, np.column_stack(
        (x, res.value, sup_r, *res.bracket))), warnings, {}


_ORACLE_COMPARED = ("var_Xm_out", "var_X1_out", "var_X2_out", "var_XW_out",
                    "cov_Xm_P1", "cov_Xm_P2", "cov_Xm_PW", "E_mW", "E_m1")

# the compared moments that are entries (i, j) of closedform.output_block,
# whose layout (X and P of A_m_out, A_1_out, A_2_out) the oracle's shares
_BLOCK_MOMENTS = {"var_Xm_out": (0, 0), "var_X1_out": (2, 2),
                  "var_X2_out": (4, 4), "cov_Xm_P1": (0, 3),
                  "cov_Xm_P2": (0, 5)}


def _run_validate_oracle(sc: Scenario, base: dict, tol: dict):
    var = sc.sweep.variable
    values = sc.sweep.values()
    sweep = _oracle_sweep([_apply(base, var, v) for v in values.tolist()])
    stack, m, w = sweep[0], dynamics.A_M_OUT, dynamics.W_OUT
    shape = values.shape
    # the oracle's side of every compared value at every point, read from
    # the stack in array calls
    oracle = {key: stack.sigma[:, i, j]
              for key, (i, j) in _BLOCK_MOMENTS.items()}
    oracle["var_XW_out"] = stack.variance(w)
    oracle["cov_Xm_PW"] = stack.covariance((m, "X"), (w, "P"))
    oracle["E_mW"] = steering.steering_product(stack, m, w)
    oracle["E_m1"] = steering.steering_product(stack, m, dynamics.A_1_OUT)

    # the closed-form side, one array call per column, with r as a view of
    # the sweep's shape, so that a witness counts its points
    k = _apply(base, var, values)
    args = np.broadcast_to(k["r"], shape), k["gamma_over_G"], k["n0"], k["n"]
    f = closedform._gain_fractions(args[1], k["G1_over_G2"])[0]
    S = closedform.output_block(*args, G1_over_G2=k["G1_over_G2"])
    closed = {key: S[..., a, b] for key, (a, b) in _BLOCK_MOMENTS.items()}
    closed["var_XW_out"], closed["cov_Xm_PW"] = closedform._w_moments(*args)
    closed["E_mW"] = closedform.collective_steering_value(*args)
    closed["E_m1"] = closedform.single_steering_value(*args, f)
    got, want = (np.array([side[key] for key in _ORACLE_COMPARED]).T
                 for side in (oracle, closed))
    rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-9)
    table = np.column_stack((values, rel, np.fmax.reduce(rel, axis=1,
                                                         initial=0.0)))
    # a refused row warns with its first error, in the order block and W's
    # moments (one domain check and one overflow text: W's check is the
    # block's without G1/G2), oracle (W party, then A_1), witness, single
    # witness, and reads NaN in every rel_* cell
    refused = _refusals([(None, column, refusal) for column, refusal in (
        (closed["var_Xm_out"] + closed["var_XW_out"], _closed_refusal(
            closedform._MOMENTS, shape, k, k["G1_over_G2"])),
        (oracle["E_mW"], _oracle_refusal(sweep, w)),
        (oracle["E_m1"], _oracle_refusal(sweep, dynamics.A_1_OUT)),
        (closed["E_mW"], _closed_refusal(closedform._WITNESS, shape, k)),
        (closed["E_m1"], _closed_refusal(closedform._SINGLE, shape, k, f)))])
    table[[i for i, _, _ in refused], 1:] = math.nan
    warnings = _point_warnings(var, values, refused)
    columns = [var] + [f"rel_{k}" for k in _ORACLE_COMPARED] + ["max_rel"]
    rels = table[:, -1].tolist()
    # the largest discrepancy over the rows that resolved; a failed row
    # reads NaN and fails the validation
    summary = {"max_rel_discrepancy": max(
                   (rel for rel in rels if not math.isnan(rel)),
                   default=math.nan),
               "tolerance": tol["oracle_rel"],
               "validated": all(rel <= tol["oracle_rel"] for rel in rels)}
    return columns, _Table(columns, table), warnings, summary


def _adiabatic_params(params: dict) -> tuple[list[float], list[dict]]:
    """The kappa/g ladder of a validate-adiabatic params block and the
    ratio knobs of each rung."""
    ratios = params.get("kappa_over_g", [5.0, 10.0, 20.0, 40.0])
    if not isinstance(ratios, list) or len(ratios) < 1:
        raise ConfigError("validate-adiabatic needs a kappa_over_g list")
    ladder = [_number(v, "kappa_over_g entry") for v in ratios]
    if min(ladder) <= 0.0:
        raise ConfigError(f"kappa_over_g entries must be > 0, got {ratios!r}")
    # the ladder sets kappa, and the comparison runs at equal gains
    if params.get("kind", "ratios") == "ratios" and "kappa" in params:
        raise ConfigError("validate-adiabatic takes kappa from its "
                          "kappa_over_g ladder, not from params")
    base = ratio_params({k: v for k, v in params.items()
                         if k != "kappa_over_g"})
    if base["G1_over_G2"] != 1.0:
        raise ConfigError(f"validate-adiabatic runs at G1_over_G2 = 1, got "
                          f"{base['G1_over_G2']!r}")
    # kappa/g = sqrt(kappa / (2 G_j)) in G = 1 units, G1 = G2; a square
    # that underflows to 0 or a kappa that overflows sets no kappa
    try:
        squares = [ratio ** 2 for ratio in ladder]
    except OverflowError:
        squares = [math.inf]
    kappas = [(1.0 + base["gamma_over_G"]) * square for square in squares]
    if min(squares) == 0.0 or not all(map(math.isfinite, kappas)):
        raise ConfigError(f"kappa_over_g entries {ratios!r} put kappa past "
                          f"the float range")
    return ladder, [{**base, "kappa": kappa} for kappa in kappas]


def _run_validate_adiabatic(sc: Scenario, params: tuple, tol: dict):
    ratios, rungs = params
    # the whole covariance is compared, so every standard mode is kept
    (got, got_failures), (ref, ref_failures) = (
        _oracle_sweep(rungs, engine=e, which=dynamics.DEFAULT_OUTPUT_MODES)
        for e in ("full", "reduced"))
    failures = {**ref_failures, **got_failures}
    if failures:  # the first rung's, the full model's first
        raise failures[min(failures)]
    # per rung, the largest relative error over the entries above 1e-6
    mask = np.abs(ref.sigma) > 1e-6
    rels = np.divide(np.abs(got.sigma - ref.sigma), np.abs(ref.sigma),
                     out=np.zeros(mask.shape),
                     where=mask).max(axis=(1, 2)).tolist()
    decreasing = all(a > b for a, b in zip(rels[:-1], rels[1:]))
    ok = rels[-1] <= tol["adiabatic_rel"] and decreasing
    warnings = [] if decreasing else [
        "adiabatic discrepancy is not monotonically decreasing in kappa/g"]
    summary = {"final_discrepancy": rels[-1],
               "tolerance": tol["adiabatic_rel"],
               "monotone_decreasing": decreasing, "validated": ok}
    columns = ["kappa_over_g", "max_rel_discrepancy"]
    return columns, _Table(columns, np.column_stack((ratios, rels))), \
        warnings, summary


def _run_working_point(sc: Scenario, p: PhysicalParams, tol: dict):
    import warnings as pywarnings

    wp = derive_working_point(p, tol=tol["fixed_point_tol"])
    warnings_out: list[str] = []
    with pywarnings.catch_warnings(record=True) as caught:
        pywarnings.simplefilter("always")
        rp = reduce_params(p, wp)
    warnings_out.extend(str(w.message) for w in caught)
    dq = derived_quantities(rp)
    res = working_point_residuals(p, wp)
    row = {
        "x_s": wp.x_s, "p_s": wp.p_s,
        "abs_alpha1_sq": abs(wp.alpha1) ** 2,
        "abs_alpha2_sq": abs(wp.alpha2) ** 2,
        "Delta1": wp.Delta1, "Delta2": wp.Delta2,
        "g1": wp.g1, "g2": wp.g2,
        "kappa": rp.kappa, "Delta": rp.Delta,
        "G1": dq.G1, "G2": dq.G2, "G": dq.G,
        "delta": dq.delta, "phi": dq.phi, "r": dq.r,
        "gamma_over_G": dq.gamma_over_G,
        "max_residual": max(res),
    }
    return list(row), _Table(list(row), np.array([list(row.values())])), \
        warnings_out, {}


def _run_cross_correlation(sc: Scenario, base: dict, tol: dict):
    var = sc.sweep.variable
    values = sc.sweep.values()
    k = _apply(base, var, values)
    cross = closedform.output_block(
        k["r"], k["gamma_over_G"], k["n0"], k["n"],
        G1_over_G2=k["G1_over_G2"])[..., 2, 4]
    columns, cells = [var, "cross_corr"], [values, cross]
    steps = [(None, cross, _closed_refusal(
        closedform._MOMENTS, values.shape, k, k["G1_over_G2"]))]
    if sc.engine != "closedform":
        # the sampler runs point by point; a point's failure is kept by index
        mc, failures = np.full((len(values), 2), math.nan), {}
        for i, v in enumerate(values.tolist()):
            try:
                rp = reduced_from_ratios(**_apply(base, var, v))
                model = dynamics.build_reduced_model(rp)
                kernels = dynamics.output_kernels(
                    rp, full=False, which=(dynamics.A_1_OUT, dynamics.A_2_OUT))
                # hashing (seed, point index) keeps scenarios at adjacent
                # seeds from sharing streams
                seed = int.from_bytes(sha256(
                    f"{sc.seed}:{i}".encode()).digest()[:8], "little")
                oc = dynamics.monte_carlo_output_covariance(
                    model, kernels, rp.tau, sc.trajectories, seed,
                    terminal_phase=dynamics.mirror_output_phase(rp))
                cc, mc[i, 1] = dynamics.mode_cross_correlation(
                    oc, dynamics.A_1_OUT, dynamics.A_2_OUT)
                mc[i, 0] = abs(cc)
            except SteerkitError as exc:
                failures[i] = exc
        columns += ["cross_corr_mc", "cross_corr_mc_se"]
        cells.append(mc)
        steps.append(("mc", mc[:, 0], lambda at: map(failures.get, at)))
    warnings = _point_warnings(var, values, _refusals(steps))
    return columns, _Table(columns, np.column_stack(cells)), warnings, {}


@dataclass(frozen=True)
class _Mode:
    """Everything the CLI knows about one scenario mode: its runner, the
    parser of its params block, the sweep blocks it takes (0: none, 1:
    ``sweep``, 2: ``sweep`` and ``sweep2`` on different variables) and the
    variables they may sweep, whether it reads ``engine`` and ``cases``,
    and the tolerances it reads with their defaults.  Building a
    ``Scenario`` refuses any field its mode does not read."""

    runner: Callable
    params: Callable
    sweeps: int = 1
    sweep_variables: tuple[str, ...] = SWEEP_VARIABLES
    engine: bool = False
    cases: bool = False
    tolerances: dict = field(default_factory=dict)


_MODES = {
    "curve": _Mode(_run_curve, ratio_params, engine=True, cases=True),
    "heatmap": _Mode(_run_heatmap, ratio_params, sweeps=2),
    "n-threshold": _Mode(_run_nthreshold, ratio_params,
                         sweep_variables=("gamma_over_G",),
                         tolerances={"n_tol": steering.N_TOL,
                                     "r_max": steering.R_MAX}),
    "validate-oracle": _Mode(_run_validate_oracle, ratio_params,
                             tolerances={"oracle_rel": 1e-6}),
    "validate-adiabatic": _Mode(_run_validate_adiabatic, _adiabatic_params,
                                sweeps=0, tolerances={"adiabatic_rel": 5e-2}),
    "working-point": _Mode(_run_working_point, physical_params, sweeps=0,
                           tolerances={"fixed_point_tol": 1e-9}),
    "cross-correlation": _Mode(_run_cross_correlation, ratio_params,
                               engine=True),
}


def run(scenario: Scenario, *, output: str | None = None,
        fmt: str = "csv", threads: int | None = None,
        svg: bool = False) -> RunRecord:
    """Execute a scenario and write its artifacts.

    Returns the run record; ``exit_code`` is nonzero when a validation mode
    failed its tolerance.  The format is checked (the scenario checked
    itself when it was built), then each file of the run's one list
    (``_files``: the table, the contour of an (r, gamma/G) map and the SVG)
    before any point is computed, and the same list is written in its
    order.  Points run in order on one thread.  ``threads`` is not read:
    it stays only because ``benchmark/worker.py`` passes it.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format {fmt!r} not csv|json")
    files = _files(scenario, output or scenario.output, fmt, svg)
    for path, _ in files:
        _check_output(path)
    mode = _MODES[scenario.mode]
    tol = {k: float(v)
           for k, v in {**mode.tolerances, **scenario.tolerances}.items()}
    started = time.monotonic()
    columns, points, warnings, summary = mode.runner(
        scenario, mode.params(scenario.params), tol)
    record = RunRecord(
        scenario_digest=scenario.digest(),
        tool_version=__version__,
        wall_time_s=time.monotonic() - started,
        columns=columns,
        points=points,
        warnings=warnings,
        summary=summary,
        exit_code=0 if summary.get("validated", True) else 3,
    )
    for path, write in files:
        write(path, record)
    return record


def _files(scenario: Scenario, path: str | None, fmt: str,
           svg: bool) -> list[tuple[str, Callable]]:
    """Every file a run of ``scenario`` writes to ``path``, in writing
    order, with its ``writer(path, record)``: the table as ``fmt``, the
    E = 1/2 contour of an (r, gamma/G) map (``_has_contour``) and, with
    ``svg``, the chart; none without a path.  The contour and the chart
    take the path less its ``.csv`` or ``.json`` suffix, if it has one,
    plus ``.contour.csv`` and ``.svg``."""
    if not path:
        return []
    stem = path.removesuffix(".csv" if path.endswith(".csv") else ".json")
    files = [(path, _write_csv if fmt == "csv" else _write_json)]
    if _has_contour(scenario):
        files.append((stem + ".contour.csv", _write_contour))
    if svg:
        files.append((stem + ".svg",
                      lambda path, record: _write_svg(path, scenario, record)))
    return files


# A CSV cell as the kernel writes it: "%.11e" and its separator in 20
# bytes, the sign (byte 0) and the exponent's hundreds digit (byte 16) NUL
# when absent, as three little-endian words:
#   head  bytes 0-7    sign, d.dd (the first three digits), three digits
#   body  bytes 8-15   six digits, "e" and the exponent's sign
#   tail  bytes 16-19  the exponent's digits and the separator
_CELL = np.dtype([("head", "<u8"), ("body", "<u8"), ("tail", "<u4")])
# _P10[k + 297] is 10**k, correctly rounded by the float parser
_P10 = np.array([float(f"1e{k}") for k in range(-297, 309)])
# by three-digit group g: its three ASCII digits, and "d.dd" at bytes 1-4
_G = np.arange(1000, dtype="<u8")
_DIGITS = 48 + _G // 100 | (48 + _G // 10 % 10) << 8 | (48 + _G % 10) << 16
_LEAD = (_DIGITS & 0xFF) << 8 | 46 << 16 | (_DIGITS >> 8) << 24
# by exponent e + 308: "e" and its sign at bytes 14-15, and its digits
# (the hundreds NUL below 100)
_E = np.arange(-308, 309)
_E_SIGN = (101 | np.where(_E < 0, 45, 43).astype("<u8") << 8) << 48
_E_ABS = np.abs(_E).astype("<u4")
_E_DIGITS = (np.where(_E_ABS >= 100, 48 + _E_ABS // 100, 0).astype("<u4")
             | (48 + _E_ABS // 10 % 10) << 8 | (48 + _E_ABS % 10) << 16)
# below about this many cells one "%" template per row is faster than the
# kernel, whose numpy calls cost ~0.1 ms per table whatever its size
_KERNEL_MIN_CELLS = 200
# the kernel formats about this many cells at a time
_BLOCK_CELLS = 1 << 14


def _cells(x: np.ndarray, seps) -> np.ndarray:
    """``"%.11e" % v`` for each ``v`` of ``x``, followed by its separator
    byte (``seps`` broadcast against ``x``), as NUL-padded records of dtype
    ``V20`` and shape ``x.shape``.

    Cells the exact fast path (see ``_write_rows``) does not accept go
    through ``%`` one by one.
    """
    flat = x.ravel()
    ax = np.abs(flat)
    fast = (ax >= 1e-296) & (ax < math.inf)
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.intp)
    s = ax * _P10[308 - e]
    m = np.rint(s)
    fast &= (s >= 1e11) & (m < 1e12) & (np.abs(s - m) < 0.5 - 1e-3)
    m = np.where(fast, m, 0.0)  # so that every cell indexes the tables
    # m's digits in groups of three; the quotients are exact
    q9, q6, q3 = np.floor(m / 1e9), np.floor(m / 1e6), np.floor(m / 1e3)
    groups = [g.astype(np.intp)
              for g in (q9, q6 - 1e3 * q9, q3 - 1e3 * q6, m - 1e3 * q3)]
    e += 308
    buf = np.empty(flat.shape, _CELL)
    buf["head"] = (_LEAD.take(groups[0]) | np.signbit(flat) * np.uint64(45)
                   | _DIGITS.take(groups[1]) << np.uint64(40))
    buf["body"] = (_DIGITS.take(groups[2]) | _E_SIGN.take(e)
                   | _DIGITS.take(groups[3]) << np.uint64(24))
    buf["tail"] = _E_DIGITS.take(e) | np.broadcast_to(
        np.asarray(seps, "<u4"), x.shape).ravel() << np.uint32(24)
    slow = ~fast & (flat != 0.0)  # a zero is m = 0 at e = 0
    if slow.any():
        buf.view(np.uint8).reshape(-1, 20)[slow, :19] = np.array(
            ["%.11e" % v for v in flat[slow].tolist()],
            dtype="S19").view(np.uint8).reshape(-1, 19)
    return buf.view("V20").reshape(x.shape)


def _text(cells: np.ndarray) -> str:
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _write_rows(out, columns: list[str], rows) -> None:
    """Write a CSV header and one ``%.11e`` line per row of floats.

    ``rows`` is a float array with one column per column name, or a
    heatmap's ``_GridPoints``.  The header goes through ``csv`` because
    labels such as ``E[n0=0,n=0]`` need quoting; formatted floats never do.

    A table of fewer than ``_KERNEL_MIN_CELLS`` cells is written with one
    ``%`` row template, which is faster there.  A larger one, and a heatmap
    of any size, is formatted by ``_cells`` in blocks of about
    ``_BLOCK_CELLS`` cells that go straight to ``out``, so no text of the
    table's size is ever held and the temporaries stay a fraction of the
    file's size; in a heatmap each x1 and x2 is formatted once per map.
    ``_cells`` writes what ``%`` writes, byte for byte.  For a finite x
    with ``|x| >= 1e-296`` it takes ``e = floor(log10|x|)`` and
    ``s = |x| * P``, where ``P`` is ``10**(11 - e)`` correctly rounded.
    The product is correctly rounded too, so ``s`` is within ``2**-52``
    relative, under 2.3e-4 absolute for ``s < 1e12``, of the exact
    ``t = |x| * 10**(11 - e)``.  A cell is accepted when ``1e11 <= s``,
    ``m = rint(s) < 1e12`` and ``|s - m| < 0.5 - 1e-3``.  Then
    ``|t - m| < 0.5``, so ``m`` is ``t`` rounded to nearest, as correctly
    rounded ``%`` rounds it, and the cell is m's 12 digits and ``e`` (a
    ``t`` just under ``1e11`` rounds to 12 digits as
    ``1e11 * 10**(e - 11)``, which is this ``m``).  A zero is written as
    ``m = 0`` at ``e = 0``.  Every other cell (NaN, infinities, subnormals,
    ``|x| < 1e-296``, near-ties and a ``log10`` off by one) goes through
    ``%``.
    """
    csv.writer(out, lineterminator="\n").writerow(columns)
    if isinstance(rows, _GridPoints):
        axes = _cells(np.array(rows.v1 + rows.v2), ord(","))
        x1, x2 = axes[:len(rows.v1)], axes[len(rows.v1):, None]
        step = max(1, _BLOCK_CELLS // (len(columns) * len(x1)))
        for i in range(0, len(x2), step):
            E = rows.E[i:i + step]
            block = np.empty(E.shape + (3,), axes.dtype)
            block[..., 0] = x1
            block[..., 1] = x2[i:i + step]
            block[..., 2] = _cells(E, ord("\n"))
            out.write(_text(block))
    elif len(rows) * len(columns) < _KERNEL_MIN_CELLS:
        line = ",".join(["%.11e"] * len(columns)) + "\n"
        out.write((line * len(rows)) % tuple(rows.ravel().tolist()))
    else:
        seps = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
        step = max(1, _BLOCK_CELLS // len(columns))
        for i in range(0, len(rows), step):
            out.write(_text(_cells(rows[i:i + step], seps)))


@contextlib.contextmanager
def _output(path: str):
    """``path`` opened for writing; an ``OSError`` in opening, writing or
    closing it becomes a ``ConfigError`` that names it."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _check_output(path: str) -> None:
    """Refuse an output whose directory is missing, or that is a directory,
    with a ``ConfigError`` that names it as ``_output``'s does; create
    nothing."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"cannot write {path!r}: no directory {folder!r}")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path!r}: it is a directory")


def _csv_head(record: RunRecord) -> str:
    """The digest and tool lines that open each CSV file of a run."""
    return (f"# scenario_digest: {record.scenario_digest}\n"
            f"# tool: steerkit {record.tool_version}\n")


def _write_csv(path: str, record: RunRecord) -> None:
    """Write the record's table to a CSV file as it is formatted: the
    digest and tool lines, the warning and summary lines, then the rows."""
    with _output(path) as fh:
        fh.write(_csv_head(record))
        fh.writelines(f"# warning: {w}\n" for w in record.warnings)
        fh.writelines(f"# {key}: {val}\n" for key, val
                      in sorted(record.summary.items()) if key != "contour")
        points = record.points
        _write_rows(fh, record.columns, points
                    if isinstance(points, _GridPoints) else points.cells)


def _write_contour(path: str, record: RunRecord) -> None:
    """Write the record's E = 1/2 contour, ``summary["contour"]`` (a list
    of ``(r, gamma/G)``), to a CSV file: the digest and tool lines, then
    the rows."""
    with _output(path) as fh:
        fh.write(_csv_head(record))
        _write_rows(fh, ["r", "gamma_over_G"], np.array(
            record.summary["contour"], dtype=float).reshape(-1, 2))


def _write_json(path: str, record: RunRecord) -> None:
    doc = {
        "scenario_digest": record.scenario_digest,
        "tool_version": record.tool_version,
        "wall_time_s": record.wall_time_s,
        "columns": record.columns,
        "points": list(record.points),
        "warnings": record.warnings,
        "summary": {k: v for k, v in record.summary.items() if k != "contour"},
    }
    with _output(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def _write_svg(path: str, scenario: Scenario, record: RunRecord) -> None:
    """Draw the record's chart and write it through ``_output``; when it has
    no finite value, write no file and say so in one line on stderr."""
    from . import svgplot

    try:
        if scenario.mode == "heatmap":
            grid = record.points
            text = svgplot.heatmap(
                grid.v1, grid.v2, grid.E, x_label=grid.var1,
                y_label=grid.var2,
                contour=tuple(record.summary.get("contour", ())),
                x_scale=scenario.sweep.scale, y_scale=scenario.sweep2.scale)
        else:
            cells = record.points.cells
            xcol, *ycols = record.columns
            text = svgplot.line_chart(
                cells[:, 0], dict(zip(ycols, cells[:, 1:].T)), x_label=xcol,
                hline=0.5 if scenario.mode == "curve" else None,
                x_scale=scenario.sweep.scale if scenario.sweep else "linear")
    except svgplot.NothingToPlot:
        sys.stderr.write(f"steerkit: warning: no finite value to plot; {path} "
                         f"not written\n")
        return
    with _output(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# presets


def preset_fig3(panel: str = "a") -> Scenario:
    """Witness-vs-pulse-area curves: (a) equal mirror and bath occupations,
    (b) ground-state mirror with a hot bath."""
    if panel == "a":
        return Scenario(
            mode="curve",
            params={"kind": "ratios", "gamma_over_G": 0.1},
            sweep=Sweep("r", 0.0, 3.0, 301),
            cases=({"label": "n0=0,n=0", "n0": 0.0, "n": 0.0},
                   {"label": "n0=0.5,n=0.5", "n0": 0.5, "n": 0.5},
                   {"label": "n0=5,n=5", "n0": 5.0, "n": 5.0}),
            output="fig3a.csv",
        )
    if panel == "b":
        return Scenario(
            mode="curve",
            params={"kind": "ratios", "gamma_over_G": 0.1, "n0": 0.0},
            sweep=Sweep("r", 0.0, 10.0, 301),
            cases=({"label": "n=100", "n": 100.0},
                   {"label": "n=600", "n": 600.0},
                   {"label": "n=1000", "n": 1000.0}),
            output="fig3b.csv",
        )
    raise ConfigError(f"fig3 panel must be 'a' or 'b', got {panel!r}")


def preset_inset() -> Scenario:
    """Bath-occupation threshold versus damping ratio."""
    return Scenario(
        mode="n-threshold",
        params={"kind": "ratios", "n0": 0.0},
        sweep=Sweep("gamma_over_G", 0.05, 0.2, 3, scale="log"),
        output="inset.csv",
    )


def preset_fig4() -> Scenario:
    """Witness over the (pulse area, damping ratio) plane, zero occupations."""
    return Scenario(
        mode="heatmap",
        params={"kind": "ratios", "n0": 0.0, "n": 0.0},
        sweep=Sweep("r", 0.0, 3.0, 201),
        sweep2=Sweep("gamma_over_G", 0.0, 0.3, 201),
        output="fig4.csv",
    )


PRESETS = {
    "fig3a": lambda: preset_fig3("a"),
    "fig3b": lambda: preset_fig3("b"),
    "inset": preset_inset,
    "fig4": preset_fig4,
}


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="Collective-steering simulator for pulsed optomechanics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", "-o", help="output path override")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--seed", type=int, help="Monte Carlo seed override")
        sp.add_argument("--svg", action="store_true",
                        help="also render a minimal SVG chart")

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("--config", required=True)
    common(run_p)

    val_p = sub.add_parser("validate",
                           help="execute a validate-* scenario and gate on "
                                "its tolerance")
    val_p.add_argument("--config", required=True)
    common(val_p)

    pre_p = sub.add_parser("preset", help="emit (or run) a built-in scenario")
    pre_p.add_argument("name", choices=sorted(PRESETS))
    pre_p.add_argument("--run", action="store_true",
                       help="execute the preset instead of printing it")
    common(pre_p)
    return parser


def _load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Scenario.from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path!r}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            scenario = PRESETS[args.name]()
        else:
            scenario = _load_scenario(args.config)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        if args.command == "validate" \
                and not scenario.mode.startswith("validate-"):
            raise ConfigError(
                f"validate expects a validate-* scenario, got "
                f"{scenario.mode!r}")
        if args.command == "preset" and not args.run:
            text = scenario.to_json()
            if args.output:
                with _output(args.output) as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
        record = run(scenario, output=args.output, fmt=args.format,
                     svg=args.svg)
        return record.exit_code
    except SteerkitError as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }) + "\n")
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
