"""Reference values owned by the benchmark, and the per-row verdicts.

The references do not call steerkit.  The collective witness is evaluated
from the naive definition ``var_m - cov_W^2 / var_W`` of the output moments
in mpmath at ``40 + 2 r`` significant digits, which absorbs the ``e^{4r}``
cancellation at any pulse area (a fixed 60 digits is not enough past
r ~ 30).  The cross-correlation and the working point are re-derived from
their defining formulas in the same way.

An operation is one emitted row: a data row of a scenario's CSV or a row of
its contour CSV.  A row either passes, or fails as

- ``refused``: the program said it cannot: a NaN cell, or the whole
  scenario raised (typed ``SteerkitError`` or, worse, an untyped exception);
- ``wrong``: a finite value that misses its reference, or a nonzero exit
  code the references do not explain.

A wrong row is *silent* when the scenario exited 0 and no warning names the
row's point.
"""

from __future__ import annotations

import csv
import math
import re

import mpmath
import numpy as np

WITNESS_REL = 1e-10        # closed-form rows
WITNESS_FLOOR = 1e-12
ORACLE_REL = 1e-6          # oracle rows, acceptance criterion 07
ORACLE_FLOOR = 1e-9
ADIABATIC_REL = 0.05       # criterion 08: met at kappa/g = 20, monotone
MC_SIGMAS = 4.0
AXIS_REL = 1e-11           # CSV cells carry 12 significant digits
CONTOUR_ABS = 1e-8
WORKING_POINT_REL = 1e-8

SERIES_CROSSOVER = 1e-4    # closed-form branches, see steerkit.closedform
LARGE_R = 350.0

# defaults of the ratio knobs the references use (scenario schema 1)
RATIO_DEFAULTS = {"r": 1.0, "gamma_over_G": 0.0, "G1_over_G2": 1.0,
                  "n0": 0.0, "n": 0.0}

_WARNED_POINT = re.compile(r"^point (\d+)\b")


# ---------------------------------------------------------------------------
# references


def _digits(r: float) -> int:
    return 40 + 2 * int(math.ceil(max(r, 0.0)))


def witness_reference(r: float, x: float, n0: float, n: float) -> float:
    """Collective witness E(r, gamma/G, n0, n) from the naive moment formula."""
    with mpmath.workdps(_digits(r)):
        r_, x_, n0_, n_ = (mpmath.mpf(v) for v in (r, x, n0, n))
        half = mpmath.mpf(1) / 2
        if r_ == 0:
            return float(n0_ + half)
        e2 = mpmath.exp(2 * r_)
        u = e2 - 1
        a = n0_ + 1 + x_ * (n_ + 1)
        b = half + x_ * (n_ + 1)
        kr = 4 * r_ * e2 / u
        var_m = n0_ + half + a * u
        var_w = (1 + x_) ** 2 * (a * u + b) + x_ * b * (x_ - (1 + x_) * kr)
        er = mpmath.exp(r_)
        cov_w = -(1 + x_) * er * mpmath.sqrt(u) * a \
            + x_ * (2 * r_ * er / mpmath.sqrt(u)) * b
        return float(var_m - cov_w ** 2 / var_w)


def gain_fractions(x: float, g1_over_g2: float) -> tuple[float, float]:
    """(G1/G, G2/G) for G1 + G2 = (1 + gamma/G) G split as G1/G2."""
    g2 = (1.0 + x) / (1.0 + g1_over_g2)
    return (1.0 + x) - g2, g2


def cross_correlation_reference(r: float, x: float, g1_over_g2: float,
                                n0: float, n: float) -> float:
    """|<A1out^dag A2out>| from its closed definition, in mpmath."""
    f1, f2 = gain_fractions(x, g1_over_g2)
    with mpmath.workdps(_digits(r)):
        r_, x_ = mpmath.mpf(r), mpmath.mpf(x)
        u = mpmath.expm1(2 * r_)
        w = 2 * r_
        coherence = (mpmath.exp(w) * (mpmath.sinh(w) - w) / u) if r_ > 0 else 0
        value = mpmath.sqrt(mpmath.mpf(f1) * f2) * (
            (mpmath.mpf(n0) + 1) * u + 2 * (mpmath.mpf(n) + 1) * x_ * coherence)
        return float(value)


def working_point_reference(p: dict, x_s: float) -> dict:
    """Quantities implied by the defining equations at displacement x_s.

    ``p`` holds rates in rad/s.  Returns the self-consistent displacement
    and the derived values a working-point row reports.
    """
    sqrt2 = math.sqrt(2.0)
    d1 = p["omega1"] - p["omega_L"] + sqrt2 * p["g01"] * x_s
    d2 = p["omega2"] - p["omega_L"] + sqrt2 * p["g02"] * x_s
    a1 = p["E1"] ** 2 / (p["kappa1"] ** 2 + d1 ** 2)
    a2 = p["E2"] ** 2 / (p["kappa2"] ** 2 + d2 ** 2)
    kappa = 0.5 * (p["kappa1"] + p["kappa2"])
    delta = 0.5 * (p["omega1"] - p["omega2"])
    g1 = p["g01"] * math.sqrt(a1)
    g2 = p["g02"] * math.sqrt(a2)
    c2 = kappa ** 2 + delta ** 2
    big_g1 = g1 ** 2 * kappa / c2
    big_g2 = g2 ** 2 * kappa / c2
    big_g = big_g1 + big_g2 - p["gamma"]
    return {
        "x_s": -sqrt2 * (p["g01"] * a1 + p["g02"] * a2) / p["omega_m"],
        "abs_alpha1_sq": a1, "abs_alpha2_sq": a2,
        "Delta1": d1, "Delta2": d2, "g1": g1, "g2": g2,
        "G1": big_g1, "G2": big_g2, "G": big_g,
        "r": big_g * p["tau"], "gamma_over_G": p["gamma"] / big_g,
    }


_HZ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12}


def rate(value) -> float:
    """A scenario rate in rad/s (numbers are rad/s, 'x kHz' strings are Hz)."""
    if isinstance(value, str):
        num, unit = value.split()
        if unit.lower() == "rad/s":
            return float(num)
        return 2.0 * math.pi * float(num) * _HZ[unit.lower()]
    return float(value)


# ---------------------------------------------------------------------------
# verdicts


def close(got: float, ref: float, rel: float, floor: float) -> bool:
    return abs(got - ref) <= rel * max(abs(ref), floor)


def classify(*, raised: bool, finite: bool, matches: bool,
             exit_code: int, exit_expected: bool, warned: bool,
             ) -> tuple[str, bool]:
    """Verdict of one row: (``ok`` | ``wrong`` | ``refused``, silent).

    ``exit_expected`` says whether the scenario's exit code is the one its
    checked rows call for.
    """
    if raised or not finite:
        return "refused", False
    if matches and exit_expected:
        return "ok", False
    silent = exit_code == 0 and not warned
    return "wrong", silent


def axis_values(sweep: dict) -> np.ndarray:
    """The sweep grid, built the way schema version 1 defines it."""
    if sweep.get("scale", "linear") == "log":
        return np.logspace(math.log10(sweep["start"]),
                           math.log10(sweep["stop"]), sweep["points"])
    return np.linspace(sweep["start"], sweep["stop"], sweep["points"])


def expected_rows(doc: dict) -> int:
    """Data rows a scenario emits when it runs to completion."""
    if doc["mode"] == "heatmap":
        return doc["sweep"]["points"] * doc["sweep2"]["points"]
    if doc["mode"] == "validate-adiabatic":
        return len(doc["params"]["kappa_over_g"])
    if doc["mode"] == "working-point":
        return 1
    return doc["sweep"]["points"]


def read_csv(path: str) -> tuple[list[str], list[str], list[list[str]]]:
    """(warnings, header, rows) of a steerkit CSV file."""
    warnings, body = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                if line.startswith("# warning: "):
                    warnings.append(line[len("# warning: "):].rstrip("\n"))
            else:
                body.append(line)
    rows = list(csv.reader(body))
    return warnings, rows[0], rows[1:]


def _knobs(params: dict) -> dict:
    out = dict(RATIO_DEFAULTS)
    for key in RATIO_DEFAULTS:
        if key in params:
            out[key] = float(params[key])
    return out


def _apply(knobs: dict, variable: str, value: float) -> dict:
    out = dict(knobs)
    out["r" if variable == "tau" else variable] = value
    return out


class RowChecker:
    """Checks the rows of one finished scenario against the references.

    ``sample`` is the set of data-row indices whose closed-form cells (and
    grid coordinates) get a reference evaluation; every row is checked for
    NaN, and every oracle, threshold, Monte Carlo and working-point row is
    checked in full.
    Results accumulate in ``rows`` as dicts with keys ``status``,
    ``silent``, ``engine`` and ``reason``.
    """

    def __init__(self, doc: dict, exit_code: int | None, raised: bool,
                 csv_path: str, sample: set[int]):
        self.doc = doc
        self.exit_code = exit_code
        self.raised = raised
        self.csv_path = csv_path
        self.sample = sample
        self.rows: list[dict] = []
        self.props: dict[str, int] = {}

    # -- entry point -------------------------------------------------------

    def run(self) -> list[dict]:
        doc = self.doc
        if self.raised:
            engine = _engine_of(doc)
            self.rows = [{"status": "refused", "silent": False,
                          "engine": engine, "reason": "raised"}
                         for _ in range(expected_rows(doc))]
            return self.rows
        checker = getattr(self, "_" + doc["mode"].replace("-", "_"))
        n = expected_rows(doc)
        try:
            warnings, header, rows = read_csv(self.csv_path)
            # [(engine, finite, matches, reason)] per row
            outcomes = checker(header, rows[:n])
        except (OSError, ValueError, IndexError, KeyError) as exc:
            self.rows = [{"status": "wrong", "silent": self.exit_code == 0,
                          "engine": _engine_of(doc),
                          "reason": f"unreadable output: {exc!r}"}
                         for _ in range(n)]
            return self.rows
        warned = {int(m.group(1)) for w in warnings
                  if (m := _WARNED_POINT.match(w))}
        if len(rows) != n:
            outcomes.append((_engine_of(doc), True, False,
                             f"{len(rows)} rows, expected {n}"))
        # a validate-* scenario exits 3 when a row misses its tolerance;
        # with NaN rows either code is defensible
        allowed = {0}
        if doc["mode"].startswith("validate-"):
            if any(f and not m for _, f, m, _ in outcomes):
                allowed = {3}
            elif not all(f for _, f, _, _ in outcomes):
                allowed = {0, 3}
        for idx, (engine, finite, matches, reason) in enumerate(outcomes):
            status, silent = classify(
                raised=False, finite=finite, matches=matches,
                exit_code=self.exit_code,
                exit_expected=self.exit_code in allowed,
                warned=idx in warned)
            if status != "ok" and not reason:
                reason = f"exit {self.exit_code}, expected {sorted(allowed)}"
            self.rows.append({"status": status, "silent": silent,
                              "engine": engine, "reason": reason})
        return self.rows

    def _count(self, key: str, k: int = 1) -> None:
        self.props[key] = self.props.get(key, 0) + k

    # -- per mode ------------------------------------------------------------

    def _axis_ok(self, cell: str, value: float) -> bool:
        return abs(float(cell) - value) <= AXIS_REL * abs(value)

    def _count_branches(self, rs: np.ndarray, times: int) -> None:
        """Count witness cells by closed-form branch; ``times`` per r."""
        self._count("witness_rows", times * rs.size)
        self._count("branch_series", times * int((rs < SERIES_CROSSOVER).sum()))
        self._count("branch_asymptotic", times * int((rs > LARGE_R).sum()))
        self._count("branch_direct", times * int(
            ((rs >= SERIES_CROSSOVER) & (rs <= LARGE_R)).sum()))

    def _curve(self, header, rows):
        doc = self.doc
        base = _knobs(doc["params"])
        cases = doc.get("cases") or [{}]
        labelled = len(cases) > 1 or "label" in cases[0]
        var = doc["sweep"]["variable"]
        axis = axis_values(doc["sweep"])
        col = {name: i for i, name in enumerate(header)}
        columns = []          # (closed-form column, oracle column, knobs)
        for k, case in enumerate(cases):
            lab = case.get("label", f"case{k}") if case else "E"
            name = f"E[{lab}]" if labelled else "E"
            oname = "E_oracle" if name == "E" else f"E_oracle[{lab}]"
            knobs = dict(base)
            knobs.update({key: float(val) for key, val in case.items()
                          if key != "label"})
            columns.append((col.get(name), col.get(oname), knobs))
            rs = axis if var in ("r", "tau") else np.full(axis.size,
                                                          knobs["r"])
            if name in col:
                self._count_branches(rs, 1)
            if oname in col:
                self._count("oracle_cells", rs.size)
                self._count("oracle_cells_r_gt_4", int((rs > 4.0).sum()))
        oracle = any(o is not None for _, o, _ in columns)
        out = []
        for idx, row in enumerate(rows):
            finite = "nan" not in row
            matches, reason = True, ""
            engine = "oracle" if oracle else "closedform"
            if finite and (oracle or idx in self.sample):
                matches = self._axis_ok(row[0], axis[idx])
                for c, o, knobs in columns:
                    args = (*(_apply(knobs, var, float(axis[idx]))[key]
                              for key in ("r", "gamma_over_G", "n0", "n")),)
                    ref = None
                    if c is not None and idx in self.sample:
                        self._count("checked")
                        ref = witness_reference(*args)
                        if not close(float(row[c]), ref, WITNESS_REL,
                                     WITNESS_FLOOR):
                            engine, matches, reason = "closedform", False, (
                                f"{header[c]}={row[c]} ref={ref!r}")
                            break
                    if o is not None:
                        self._count("checked")
                        ref = witness_reference(*args) if ref is None else ref
                        if not close(float(row[o]), ref, ORACLE_REL,
                                     ORACLE_FLOOR):
                            engine, matches, reason = "oracle", False, (
                                f"{header[o]}={row[o]} ref={ref!r}")
                            break
            out.append((engine, finite, matches, reason))
        return out

    def _heatmap(self, header, rows):
        doc = self.doc
        base = _knobs(doc["params"])
        v1, v2 = axis_values(doc["sweep"]), axis_values(doc["sweep2"])
        var1, var2 = doc["sweep"]["variable"], doc["sweep2"]["variable"]
        if "r" in (var1, var2) or "tau" in (var1, var2):
            r_axis, times = (v1, v2.size) if var1 in ("r", "tau") \
                else (v2, v1.size)
            self._count_branches(r_axis, times)
        else:
            self._count_branches(np.array([base["r"]]), v1.size * v2.size)
        out = []
        for idx, row in enumerate(rows):
            finite = row[2] != "nan"
            matches, reason = True, ""
            if finite and idx in self.sample:
                i, j = divmod(idx, len(v1))
                knobs = _apply(_apply(base, var1, float(v1[j])), var2,
                               float(v2[i]))
                self._count("checked")
                ref = witness_reference(knobs["r"], knobs["gamma_over_G"],
                                        knobs["n0"], knobs["n"])
                e = float(row[2])
                matches = (self._axis_ok(row[0], v1[j])
                           and self._axis_ok(row[1], v2[i]))
                if not close(e, ref, WITNESS_REL, WITNESS_FLOOR):
                    matches, reason = False, f"E={e!r} ref={ref!r}"
            out.append(("closedform", finite, matches, reason))
        if var1 == "r" and var2 == "gamma_over_G":
            out.extend(self._contour(base))
        return out

    def _contour(self, base: dict):
        path = self.csv_path[:-4] + ".contour.csv"
        _, header, rows = read_csv(path)
        out = []
        for idx, row in enumerate(rows):
            rc, x = float(row[0]), float(row[1])
            finite = not (math.isnan(rc) or math.isnan(x))
            matches, reason = True, ""
            if finite and idx % 16 == 0:
                self._count("checked")
                ref = witness_reference(rc, x, base["n0"], base["n"])
                if abs(ref - 0.5) > CONTOUR_ABS:
                    matches, reason = False, f"E(contour)={ref!r}"
            out.append(("closedform", finite, matches, reason))
        return out

    def _n_threshold(self, header, rows):
        doc = self.doc
        base = _knobs(doc["params"])
        tol = doc.get("tolerances", {})
        r_max, n_tol = tol.get("r_max", 10.0), tol.get("n_tol", 0.5)
        axis = axis_values(doc["sweep"])
        out = []
        for idx, row in enumerate(rows):
            x, value, sup_r, lo, hi = (float(c) for c in row)
            finite = not any(math.isnan(c) for c in (x, value, sup_r, lo, hi))
            matches, reason = self._axis_ok(row[0], axis[idx]), ""
            if finite:
                self._count("checked")
                e_lo = witness_reference(sup_r, float(axis[idx]), base["n0"],
                                         lo)
                if not (lo <= value <= hi and hi - lo <= n_tol
                        and 0.0 < sup_r <= r_max * (1.0 + AXIS_REL)
                        and e_lo <= 0.5 + 1e-12):
                    matches, reason = False, (
                        f"n={value!r} in [{lo!r}, {hi!r}], sup_r={sup_r!r}, "
                        f"E(sup_r, lo)={e_lo!r}")
            out.append(("steering", finite, matches, reason))
        return out

    def _validate_oracle(self, header, rows):
        doc = self.doc
        base = _knobs(doc["params"])
        var = doc["sweep"]["variable"]
        axis = axis_values(doc["sweep"])
        out = []
        for idx, row in enumerate(rows):
            worst = float(row[-1])
            finite = not math.isnan(worst)
            r = _apply(base, var, float(axis[idx]))["r"]
            self._count("oracle_cells")
            if r > 4.0:
                self._count("oracle_cells_r_gt_4")
            self._count("checked")
            matches = self._axis_ok(row[0], axis[idx]) and worst <= ORACLE_REL
            out.append(("oracle", finite, matches,
                        "" if matches else f"max_rel={worst!r} at r={r!r}"))
        return out

    def _validate_adiabatic(self, header, rows):
        ladder = [float(v) for v in self.doc["params"]["kappa_over_g"]]
        got = [float(row[0]) for row in rows]
        rels = [float(row[1]) for row in rows]
        finite = [not math.isnan(v) for v in rels]
        ok = got == ladder and all(finite) \
            and all(a > b for a, b in zip(rels[:-1], rels[1:])) \
            and rels[ladder.index(20.0)] <= ADIABATIC_REL
        self._count("oracle_cells", len(rows))
        self._count("checked", len(rows))
        reason = "" if ok else f"ladder {rels!r} breaks the criterion-08 rule"
        return [("oracle", f, ok, reason) for f in finite]

    def _working_point(self, header, rows):
        cells = dict(zip(header, (float(c) for c in rows[0])))
        finite = all(not math.isnan(v) for v in cells.values())
        p = {k: (rate(v) if k not in ("kind", "n0", "n", "tau") else v)
             for k, v in self.doc["params"].items()}
        ref = working_point_reference(p, cells["x_s"])
        self._count("checked")
        bad = [k for k, v in ref.items()
               if not close(cells[k], v, WORKING_POINT_REL, 0.0)]
        return [("model", finite, not bad,
                 f"mismatch in {bad}" if bad else "")]

    def _cross_correlation(self, header, rows):
        doc = self.doc
        base = _knobs(doc["params"])
        var = doc["sweep"]["variable"]
        axis = axis_values(doc["sweep"])
        col = {name: i for i, name in enumerate(header)}
        out = []
        for idx, row in enumerate(rows):
            cells = [float(c) for c in row]
            finite = all(not math.isnan(c) for c in cells)
            k = _apply(base, var, float(axis[idx]))
            matches, reason = self._axis_ok(row[0], axis[idx]), ""
            engine = "mc" if "cross_corr_mc" in col else "closedform"
            if finite:
                self._count("checked")
                ref = cross_correlation_reference(
                    k["r"], k["gamma_over_G"], k["G1_over_G2"], k["n0"],
                    k["n"])
                if not close(cells[col["cross_corr"]], ref, WITNESS_REL,
                             WITNESS_FLOOR):
                    engine, matches, reason = "closedform", False, \
                        f"cross_corr ref={ref!r}"
                elif engine == "mc":
                    mc, se = cells[col["cross_corr_mc"]], \
                        cells[col["cross_corr_mc_se"]]
                    if not (se > 0.0 and abs(mc - ref) <= MC_SIGMAS * se):
                        matches, reason = False, (
                            f"mc={mc!r} se={se!r} ref={ref!r}")
            out.append((engine, finite, matches, reason))
        return out


def _engine_of(doc: dict) -> str:
    mode = doc["mode"]
    if mode.startswith("validate-") or (mode == "curve"
                                        and doc.get("engine") != "closedform"):
        return "oracle"
    if mode == "cross-correlation" and doc.get("engine") != "closedform":
        return "mc"
    return {"n-threshold": "steering", "working-point": "model"}.get(
        mode, "closedform")
