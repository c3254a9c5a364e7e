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
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import closedform, dynamics, steering
from .errors import ConfigError, SteerkitError
from .model import (
    PhysicalParams,
    derive_working_point,
    derived_from_ratios,
    derived_quantities,
    reduce as reduce_params,
    reduced_from_ratios,
    working_point_residuals,
)

__version__ = "0.1.0"
SCHEMA_VERSION = 1

MODES = ("curve", "heatmap", "n-threshold", "validate-oracle",
         "validate-adiabatic", "working-point", "cross-correlation")
ENGINES = ("closedform", "oracle", "both")
SWEEP_VARIABLES = ("r", "tau", "n", "n0", "gamma_over_G", "G1_over_G2")

_HZ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12}


def _number(value, what: str) -> float:
    """A finite float from a scenario value; bools are not numbers here."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return x


def parse_rate(value) -> float:
    """Angular rate in rad/s from a number or a '<value> <unit>' string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        parts = value.split()
        if len(parts) == 2:
            num, unit = parts
            key = unit.lower()
            try:
                x = float(num)
            except ValueError as exc:
                raise ConfigError(f"bad rate value {value!r}") from exc
            if key in _HZ_UNITS:
                return 2.0 * math.pi * x * _HZ_UNITS[key]
            if key == "rad/s":
                return x
        raise ConfigError(
            f"bad rate {value!r}; use a number (rad/s) or '<value> Hz|kHz|"
            f"MHz|GHz|THz|rad/s'")
    raise ConfigError(f"bad rate {value!r}")


@dataclass(frozen=True)
class Sweep:
    variable: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def validate(self) -> None:
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
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep scale {self.scale!r} not linear|log")
        if self.scale == "log" and self.start <= 0:
            raise ConfigError("log sweep needs start > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.start), math.log10(self.stop),
                               self.points)
        return np.linspace(self.start, self.stop, self.points)

    def to_dict(self) -> dict:
        return {"variable": self.variable, "start": self.start,
                "stop": self.stop, "points": self.points, "scale": self.scale}

    @classmethod
    def from_dict(cls, d: dict) -> "Sweep":
        try:
            sweep = cls(variable=d["variable"], start=float(d["start"]),
                        stop=float(d["stop"]), points=int(d["points"]),
                        scale=d.get("scale", "linear"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad sweep block {d!r}: {exc}") from exc
        sweep.validate()
        return sweep


@dataclass(frozen=True)
class Scenario:
    mode: str
    params: dict
    sweep: Sweep | None = None
    sweep2: Sweep | None = None
    cases: tuple[dict, ...] = ()
    engine: str = "closedform"
    output: str | None = None
    seed: int = 12345
    trajectories: int = 100_000
    tolerances: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode {self.mode!r} not in {MODES}")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine {self.engine!r} not in {ENGINES}")
        if self.sweep is not None:
            self.sweep.validate()
        if self.sweep2 is not None:
            self.sweep2.validate()
        if self.mode in ("curve", "heatmap", "n-threshold",
                         "validate-oracle", "cross-correlation") \
                and self.sweep is None:
            raise ConfigError(f"mode {self.mode!r} requires a sweep block")
        if self.mode == "heatmap" and self.sweep2 is None:
            raise ConfigError("heatmap mode requires a sweep2 block")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be an object")
        if self.mode == "working-point":
            physical_params(self.params)
        elif self.mode == "validate-adiabatic":
            _adiabatic_params(self.params)
        else:
            ratio_params(self.params)
        for case in self.cases:
            if not isinstance(case, dict):
                raise ConfigError(f"cases entries must be objects, got "
                                  f"{case!r}")
            for key, val in case.items():
                if key == "label":
                    continue
                if key not in _RATIO_DEFAULTS:
                    raise ConfigError(f"unknown case override {key!r}")
                _number(val, f"case override {key!r}")
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must be an object")
        for key, val in self.tolerances.items():
            _number(val, f"tolerance {key!r}")
        if self.mode == "cross-correlation" and self.engine != "closedform" \
                and self.trajectories < dynamics.MIN_TRAJECTORIES:
            raise ConfigError(
                f"the Monte Carlo sampler needs >= "
                f"{dynamics.MIN_TRAJECTORIES} trajectories, got "
                f"{self.trajectories}")

    def to_dict(self) -> dict:
        d: dict = {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "engine": self.engine,
            "params": self.params,
            "seed": self.seed,
            "trajectories": self.trajectories,
            "tolerances": self.tolerances,
        }
        if self.sweep is not None:
            d["sweep"] = self.sweep.to_dict()
        if self.sweep2 is not None:
            d["sweep2"] = self.sweep2.to_dict()
        if self.cases:
            d["cases"] = list(self.cases)
        if self.output is not None:
            d["output"] = self.output
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ConfigError("scenario must be a JSON object")
        if "schema_version" not in d:
            raise ConfigError("scenario is missing mandatory schema_version")
        if d["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {d['schema_version']!r} "
                f"(tool speaks {SCHEMA_VERSION})")
        known = {"schema_version", "mode", "engine", "params", "sweep",
                 "sweep2", "cases", "output", "seed", "trajectories",
                 "tolerances"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown scenario fields {sorted(unknown)}")
        try:
            scenario = cls(
                mode=d["mode"],
                params=d.get("params", {}),
                sweep=Sweep.from_dict(d["sweep"]) if "sweep" in d else None,
                sweep2=Sweep.from_dict(d["sweep2"]) if "sweep2" in d else None,
                cases=tuple(d.get("cases", ())),
                engine=d.get("engine", "closedform"),
                output=d.get("output"),
                seed=int(d.get("seed", 12345)),
                trajectories=int(d.get("trajectories", 100_000)),
                tolerances=d.get("tolerances", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario: {exc}") from exc
        scenario.validate()
        return scenario

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
        return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class RunRecord:
    scenario_digest: str
    tool_version: str
    wall_time_s: float
    columns: list[str]
    points: list[dict]
    warnings: list[str]
    summary: dict
    exit_code: int = 0


# ---------------------------------------------------------------------------
# parameter normalization

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
        unknown = set(params) - set(_RATIO_DEFAULTS) - {"kind"}
        if unknown:
            raise ConfigError(f"unknown ratios params {sorted(unknown)}")
        for key in _RATIO_DEFAULTS:
            if key in params:
                out[key] = _number(params[key], f"params {key!r}")
        return out
    if kind == "reduced":
        try:
            from .model import ReducedParams
            rp = ReducedParams(
                g1=parse_rate(params["g1"]), g2=parse_rate(params["g2"]),
                kappa=parse_rate(params["kappa"]),
                Delta=parse_rate(params["Delta"]),
                gamma=parse_rate(params["gamma"]),
                n0=_number(params["n0"], "params 'n0'"),
                n=_number(params["n"], "params 'n'"),
                tau=_number(params["tau"], "params 'tau'"))
        except KeyError as exc:
            raise ConfigError(f"reduced params missing {exc}") from exc
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
    try:
        return PhysicalParams(
            omega1=parse_rate(params["omega1"]),
            omega2=parse_rate(params["omega2"]),
            omega_m=parse_rate(params["omega_m"]),
            omega_L=parse_rate(params["omega_L"]),
            kappa1=parse_rate(params["kappa1"]),
            kappa2=parse_rate(params["kappa2"]),
            gamma=parse_rate(params["gamma"]),
            g01=parse_rate(params["g01"]),
            g02=parse_rate(params["g02"]),
            E1=parse_rate(params["E1"]),
            E2=parse_rate(params["E2"]),
            n0=_number(params["n0"], "params 'n0'"),
            n=_number(params["n"], "params 'n'"),
            tau=_number(params["tau"], "params 'tau'"),
        )
    except KeyError as exc:
        raise ConfigError(f"physical params missing {exc}") from exc


def _apply(knobs: dict, variable: str, value: float) -> dict:
    out = dict(knobs)
    if variable == "tau":
        out["r"] = value  # net gain is the unit of rate in ratio form
    else:
        out[variable] = value
    return out


def _oracle_E(knobs: dict, tol: float) -> float:
    """Collective witness from deterministic moment propagation."""
    rp = reduced_from_ratios(
        knobs["r"], knobs["gamma_over_G"], G1_over_G2=knobs["G1_over_G2"],
        n0=knobs["n0"], n=knobs["n"],
        Delta_over_kappa=knobs["Delta_over_kappa"], kappa=knobs["kappa"])
    oc = dynamics.output_covariance(rp, engine="reduced", tol=tol)
    return steering.steering_product(oc, dynamics.A_M_OUT,
                                     dynamics.W_OUT).E_value


# ---------------------------------------------------------------------------
# mode runners (each returns columns, points, warnings, summary)


def _witness_error(knobs: dict) -> SteerkitError | None:
    """Why the collective witness is NaN at one point: the error the float
    call raises there, or None when the NaN is its value."""
    try:
        closedform.collective_steering_value(
            knobs["r"], knobs["gamma_over_G"], knobs["n0"], knobs["n"])
    except SteerkitError as exc:
        return exc
    return None


def _witness_grid(knobs: dict, shape: tuple[int, ...]) -> np.ndarray:
    """The collective witness over a grid of knobs, in one array call."""
    return closedform.collective_steering_value(
        np.full(shape, knobs["r"]), knobs["gamma_over_G"], knobs["n0"],
        knobs["n"])


def _run_curve(sc: Scenario, threads: int):
    base = ratio_params(sc.params)
    cases = list(sc.cases) or [{}]
    tol = float(sc.tolerances.get("oracle_tol", 1e-9))
    var = sc.sweep.variable
    values = sc.sweep.values()
    closed = sc.engine in ("closedform", "both")
    oracle = sc.engine in ("oracle", "both")
    labelled = len(cases) > 1 or "label" in cases[0]
    series = []  # (label, E column, oracle column, overrides, E values)
    for i, case in enumerate(cases):
        lab = case.get("label", f"case{i}") if case else "E"
        over = {k: float(v) for k, v in case.items() if k != "label"}
        E = _witness_grid({**_apply(base, var, values), **over},
                          values.shape) if closed else None
        series.append((lab, f"E[{lab}]" if labelled else "E",
                       f"E_oracle[{lab}]" if labelled else "E_oracle",
                       over, E))

    def point(idx: int, warn) -> dict:
        v = float(values[idx])
        row = {var: v}
        for lab, col, ocol, over, E in series:
            knobs = {**_apply(base, var, v), **over}
            exc = None
            if closed:
                row[col] = float(E[idx])
                if math.isnan(row[col]):
                    exc = _witness_error(knobs)
            if exc is None and oracle:
                try:
                    row[ocol] = _oracle_E(knobs, tol)
                except SteerkitError as err:
                    exc = err
            if exc is not None:
                warn(f"point {idx} ({var}={v:.6g}, {lab}): {exc}")
                if oracle:
                    row[ocol] = math.nan
        return row

    points, warnings = _map_ordered(point, len(values))
    columns = [var] + [k for k in points[0] if k != var]
    return columns, points, warnings, {}


def _run_heatmap(sc: Scenario, threads: int):
    base = ratio_params(sc.params)
    var1, var2 = sc.sweep.variable, sc.sweep2.variable
    if var1 == var2:
        raise ConfigError("heatmap axes must differ")
    v1 = sc.sweep.values()
    v2 = sc.sweep2.values()
    # contour of E = 1/2 along the first sweep axis, per second-axis row
    contour: list[tuple[float, float]] = []
    if var1 == "r" and var2 == "gamma_over_G":
        region = steering.steering_region(v1, v2, base["n0"], base["n"])
        E, contour = region.E, list(region.contour)
    else:
        a1, a2 = np.meshgrid(v1, v2)
        E = _witness_grid(_apply(_apply(base, var1, a1), var2, a2), a1.shape)

    x1s = v1.tolist()
    points = [{var1: x1, var2: x2, "E": e}
              for x2, row in zip(v2.tolist(), E.tolist())
              for x1, e in zip(x1s, row)]
    warnings = []
    for idx in np.flatnonzero(np.isnan(E)).tolist():
        p = points[idx]
        exc = _witness_error(_apply(_apply(base, var1, p[var1]), var2,
                                    p[var2]))
        if exc is not None:
            warnings.append(f"point {idx}: {exc}")
    return [var1, var2, "E"], points, warnings, {"contour": contour}


def _run_nthreshold(sc: Scenario, threads: int):
    base = ratio_params(sc.params)
    if sc.sweep.variable != "gamma_over_G":
        raise ConfigError("n-threshold mode sweeps gamma_over_G")
    values = sc.sweep.values()
    r_max = float(sc.tolerances.get("r_max", 10.0))
    tol = float(sc.tolerances.get("n_tol", 0.5))

    def point(idx: int, warn) -> dict:
        x = float(values[idx])
        row = {"gamma_over_G": x}
        try:
            res = steering.noise_threshold(x, base["n0"], r_max, tol)
            row.update({"n_threshold": res.value, "sup_r": res.sup_location,
                        "bracket_lo": res.bracket[0],
                        "bracket_hi": res.bracket[1]})
        except SteerkitError as exc:
            warn(f"point {idx} (gamma_over_G={x:.6g}): {exc}")
            row.update({"n_threshold": math.nan, "sup_r": math.nan,
                        "bracket_lo": math.nan, "bracket_hi": math.nan})
        return row

    points, warnings = _map_ordered(point, len(values))
    return (["gamma_over_G", "n_threshold", "sup_r", "bracket_lo",
             "bracket_hi"], points, warnings, {})


_ORACLE_COMPARED = ("var_Xm_out", "var_X1_out", "var_X2_out", "var_XW_out",
                    "cov_Xm_P1", "cov_Xm_P2", "cov_Xm_PW", "E_mW", "E_m1")


def _oracle_moment_row(knobs: dict, tol: float) -> dict:
    """Closed-form vs oracle values and relative errors at one point."""
    dq = derived_from_ratios(knobs["r"], knobs["gamma_over_G"],
                             G1_over_G2=knobs["G1_over_G2"],
                             Delta_over_kappa=knobs["Delta_over_kappa"])
    ms = closedform.moment_set(dq, knobs["n0"], knobs["n"])
    rp = reduced_from_ratios(
        knobs["r"], knobs["gamma_over_G"], G1_over_G2=knobs["G1_over_G2"],
        n0=knobs["n0"], n=knobs["n"],
        Delta_over_kappa=knobs["Delta_over_kappa"], kappa=knobs["kappa"])
    oc = dynamics.output_covariance(rp, engine="reduced", tol=tol)
    m, w = dynamics.A_M_OUT, dynamics.W_OUT
    a1, a2 = dynamics.A_1_OUT, dynamics.A_2_OUT
    oracle = {
        "var_Xm_out": oc.variance(m),
        "var_X1_out": oc.variance(a1),
        "var_X2_out": oc.variance(a2),
        "var_XW_out": oc.variance(w),
        "cov_Xm_P1": oc.covariance((m, "X"), (a1, "P")),
        "cov_Xm_P2": oc.covariance((m, "X"), (a2, "P")),
        "cov_Xm_PW": oc.covariance((m, "X"), (w, "P")),
        "E_mW": steering.steering_product(oc, m, w).E_value,
        "E_m1": steering.steering_product(oc, m, a1).E_value,
    }
    closed = dict(ms.as_dict())
    closed["E_mW"] = closedform.steering_collective(dq, knobs["n0"], knobs["n"])
    closed["E_m1"] = closedform.steering_single(dq, knobs["n0"], knobs["n"], 1)
    row = {}
    worst = 0.0
    for key in _ORACLE_COMPARED:
        ref = closed[key]
        got = oracle[key]
        scale = max(abs(ref), 1e-9)
        rel = abs(got - ref) / scale
        row[f"rel_{key}"] = rel
        worst = max(worst, rel)
    row["max_rel"] = worst
    return row


def _run_validate_oracle(sc: Scenario, threads: int):
    base = ratio_params(sc.params)
    values = sc.sweep.values()
    tol = float(sc.tolerances.get("oracle_rel", 1e-6))
    itol = float(sc.tolerances.get("oracle_tol", 1e-10))

    def point(idx: int, warn) -> dict:
        v = float(values[idx])
        knobs = _apply(base, sc.sweep.variable, v)
        row = {sc.sweep.variable: v}
        try:
            row.update(_oracle_moment_row(knobs, itol))
        except SteerkitError as exc:
            warn(f"point {idx}: {exc}")
            row.update({f"rel_{k}": math.nan for k in _ORACLE_COMPARED})
            row["max_rel"] = math.nan
        return row

    points, warnings = _map_ordered(point, len(values))
    worst = max((p["max_rel"] for p in points), default=math.nan)
    ok = math.isfinite(worst) and worst <= tol
    summary = {"max_rel_discrepancy": worst, "tolerance": tol,
               "validated": ok}
    columns = [sc.sweep.variable] + [f"rel_{k}" for k in _ORACLE_COMPARED] \
        + ["max_rel"]
    return columns, points, warnings, summary


def _adiabatic_params(params: dict) -> tuple[dict, list[float]]:
    """Ratio knobs and kappa/g ladder of a validate-adiabatic params block."""
    ratios = params.get("kappa_over_g", [5.0, 10.0, 20.0, 40.0])
    if not isinstance(ratios, list) or len(ratios) < 1:
        raise ConfigError("validate-adiabatic needs a kappa_over_g list")
    ladder = [_number(v, "kappa_over_g entry") for v in ratios]
    if min(ladder) <= 0.0:
        raise ConfigError(f"kappa_over_g entries must be > 0, got {ratios!r}")
    return ratio_params({k: v for k, v in params.items()
                         if k != "kappa_over_g"}), ladder


def _run_validate_adiabatic(sc: Scenario, threads: int):
    base, ratios = _adiabatic_params(sc.params)
    tol = float(sc.tolerances.get("adiabatic_rel", 5e-2))
    itol = float(sc.tolerances.get("oracle_tol", 1e-10))

    def point(idx: int, warn) -> dict:
        ratio = ratios[idx]
        # kappa/g = sqrt(kappa / (2 G_j)) in G = 1 units, G1 = G2
        kappa = (1.0 + base["gamma_over_G"]) * ratio ** 2
        rp = reduced_from_ratios(
            base["r"], base["gamma_over_G"], G1_over_G2=1.0,
            n0=base["n0"], n=base["n"],
            Delta_over_kappa=base["Delta_over_kappa"], kappa=kappa)
        oc_full = dynamics.output_covariance(rp, engine="full", tol=itol)
        oc_red = dynamics.output_covariance(rp, engine="reduced", tol=itol)
        ref = oc_red.sigma
        got = oc_full.sigma
        mask = np.abs(ref) > 1e-6
        rel = float(np.max(np.abs(got[mask] - ref[mask]) / np.abs(ref[mask])))
        return {"kappa_over_g": ratio, "max_rel_discrepancy": rel}

    points, warnings = _map_ordered(point, len(ratios))
    rels = [p["max_rel_discrepancy"] for p in points]
    decreasing = all(a > b for a, b in zip(rels[:-1], rels[1:]))
    ok = rels[-1] <= tol and decreasing
    if not decreasing:
        warnings.append("adiabatic discrepancy is not monotonically "
                        "decreasing in kappa/g")
    summary = {"final_discrepancy": rels[-1], "tolerance": tol,
               "monotone_decreasing": decreasing, "validated": ok}
    return ["kappa_over_g", "max_rel_discrepancy"], points, warnings, summary


def _run_working_point(sc: Scenario, threads: int):
    import warnings as pywarnings

    p = physical_params(sc.params)
    tol = float(sc.tolerances.get("fixed_point_tol", 1e-9))
    wp = derive_working_point(p, tol=tol, max_iter=500)
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
    return list(row), [row], warnings_out, {}


def _run_cross_correlation(sc: Scenario, threads: int):
    base = ratio_params(sc.params)
    values = sc.sweep.values()
    with_mc = sc.engine in ("oracle", "both")

    def point(idx: int, warn) -> dict:
        v = float(values[idx])
        knobs = _apply(base, sc.sweep.variable, v)
        row = {sc.sweep.variable: v}
        try:
            dq = derived_from_ratios(knobs["r"], knobs["gamma_over_G"],
                                     G1_over_G2=knobs["G1_over_G2"],
                                     Delta_over_kappa=knobs["Delta_over_kappa"])
            row["cross_corr"] = closedform.cross_correlation(
                dq, knobs["n0"], knobs["n"])
        except SteerkitError as exc:
            warn(f"point {idx}: {exc}")
            row["cross_corr"] = math.nan
        if with_mc:
            try:
                rp = reduced_from_ratios(
                    knobs["r"], knobs["gamma_over_G"],
                    G1_over_G2=knobs["G1_over_G2"], n0=knobs["n0"],
                    n=knobs["n"], Delta_over_kappa=knobs["Delta_over_kappa"],
                    kappa=knobs["kappa"])
                model = dynamics.build_reduced_model(rp)
                kernels = dynamics.output_kernels(rp, full=False)
                oc = dynamics.monte_carlo_output_covariance(
                    model, kernels, rp.tau, sc.trajectories, sc.seed + idx,
                    threads=threads,
                    terminal_phase=dynamics.mirror_output_phase(rp))
                cc, se = dynamics.mode_cross_correlation(
                    oc, dynamics.A_1_OUT, dynamics.A_2_OUT)
                row["cross_corr_mc"] = abs(cc)
                row["cross_corr_mc_se"] = se
            except SteerkitError as exc:
                warn(f"point {idx} (mc): {exc}")
                row["cross_corr_mc"] = math.nan
                row["cross_corr_mc_se"] = math.nan
        return row

    points, warnings = _map_ordered(point, len(values))
    columns = [sc.sweep.variable, "cross_corr"]
    if with_mc:
        columns += ["cross_corr_mc", "cross_corr_mc_se"]
    return columns, points, warnings, {}


_RUNNERS = {
    "curve": _run_curve,
    "heatmap": _run_heatmap,
    "n-threshold": _run_nthreshold,
    "validate-oracle": _run_validate_oracle,
    "validate-adiabatic": _run_validate_adiabatic,
    "working-point": _run_working_point,
    "cross-correlation": _run_cross_correlation,
}


def _map_ordered(fn, count: int) -> tuple[list, list[str]]:
    """Evaluate points in index order, collecting their warnings in order."""
    warnings: list[str] = []
    return [fn(i, warnings.append) for i in range(count)], warnings


def run(scenario: Scenario, *, output: str | None = None,
        fmt: str = "csv", threads: int | None = None,
        svg: bool = False) -> RunRecord:
    """Execute a scenario and write its artifacts.

    Returns the run record; ``exit_code`` is nonzero when a validation mode
    failed its tolerance.  ``threads`` (default ``STEERKIT_THREADS`` or 1)
    caps the Monte Carlo sampler's thread pool; points run in order.  A
    thread count that is not an integer >= 1 is a ``ConfigError``.
    """
    scenario.validate()
    if threads is None:
        env = os.environ.get("STEERKIT_THREADS", "1")
        try:
            threads = int(env)
        except ValueError:
            raise ConfigError(
                f"STEERKIT_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads!r}")
    started = time.monotonic()
    columns, points, warnings, summary = _RUNNERS[scenario.mode](
        scenario, threads)
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
    path = output or scenario.output
    if path:
        if fmt == "csv":
            _write_csv(path, record)
        elif fmt == "json":
            _write_json(path, record)
        else:
            raise ConfigError(f"format {fmt!r} not csv|json")
        contour = summary.get("contour")
        if contour is not None:
            _write_contour(_with_suffix(path, ".contour.csv"), record, contour)
        if svg:
            _write_svg(_with_suffix(path, ".svg"), scenario, record)
    return record


def _with_suffix(path: str, suffix: str) -> str:
    stem = path[:-4] if path.endswith(".csv") or path.endswith(".json") \
        else path
    return stem + suffix


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.11e}"
    return str(value)


def _csv_text(record: RunRecord) -> str:
    buf = io.StringIO()
    buf.write(f"# scenario_digest: {record.scenario_digest}\n")
    buf.write(f"# tool: steerkit {record.tool_version}\n")
    for w in record.warnings:
        buf.write(f"# warning: {w}\n")
    for key, val in sorted(record.summary.items()):
        if key == "contour":
            continue
        buf.write(f"# {key}: {val}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.columns)
    for p in record.points:
        writer.writerow([_format_cell(p.get(c, math.nan))
                         for c in record.columns])
    return buf.getvalue()


def _write_csv(path: str, record: RunRecord) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_text(record))


def _write_json(path: str, record: RunRecord) -> None:
    doc = {
        "scenario_digest": record.scenario_digest,
        "tool_version": record.tool_version,
        "wall_time_s": record.wall_time_s,
        "columns": record.columns,
        "points": record.points,
        "warnings": record.warnings,
        "summary": {k: v for k, v in record.summary.items() if k != "contour"},
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def _write_contour(path: str, record: RunRecord, contour) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# scenario_digest: {record.scenario_digest}\n")
        fh.write(f"# tool: steerkit {record.tool_version}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["r", "gamma_over_G"])
        for rv, gv in contour:
            writer.writerow([_format_cell(float(rv)), _format_cell(float(gv))])


def _write_svg(path: str, scenario: Scenario, record: RunRecord) -> None:
    from . import svgplot

    if scenario.mode == "heatmap":
        v1 = scenario.sweep.values()
        v2 = scenario.sweep2.values()
        grid = [[record.points[i * len(v1) + j]["E"] for j in range(len(v1))]
                for i in range(len(v2))]
        svgplot.heatmap(v1, v2, grid, path, x_label=scenario.sweep.variable,
                        y_label=scenario.sweep2.variable,
                        contour=tuple(record.summary.get("contour", ())))
        return
    xcol = record.columns[0]
    xs = [p[xcol] for p in record.points]
    series = {c: [p.get(c, math.nan) for p in record.points]
              for c in record.columns[1:]}
    svgplot.line_chart(xs, series, path, x_label=xcol,
                       hline=0.5 if scenario.mode == "curve" else None)


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
        sp.add_argument("--threads", type=int,
                        help="parallelism cap of the Monte Carlo sampler "
                             "(default: STEERKIT_THREADS or 1)")
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


def _load_scenario(path: str, args) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scenario = Scenario.from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path!r}: {exc}") from exc
    if args.seed is not None:
        scenario = Scenario(**{**scenario.__dict__, "seed": args.seed})
    return scenario


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("run", "validate"):
            scenario = _load_scenario(args.config, args)
            if args.command == "validate" \
                    and not scenario.mode.startswith("validate-"):
                raise ConfigError(
                    f"validate expects a validate-* scenario, got "
                    f"{scenario.mode!r}")
            record = run(scenario, output=args.output, fmt=args.format,
                         threads=args.threads, svg=args.svg)
            return record.exit_code
        if args.command == "preset":
            scenario = PRESETS[args.name]()
            if args.seed is not None:
                scenario = Scenario(**{**scenario.__dict__,
                                       "seed": args.seed})
            if not args.run:
                text = scenario.to_json()
                if args.output:
                    with open(args.output, "w", encoding="utf-8") as fh:
                        fh.write(text)
                else:
                    sys.stdout.write(text)
                return 0
            record = run(scenario, output=args.output, fmt=args.format,
                         threads=args.threads, svg=args.svg)
            return record.exit_code
        raise ConfigError(f"unknown command {args.command!r}")
    except SteerkitError as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }) + "\n")
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
