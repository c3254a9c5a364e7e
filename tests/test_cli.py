"""Scenario schema, runners, determinism, file formats, entry point."""

import ast
import base64
import csv
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import steerkit
from conftest import deadline
from test_readme import quick_start
from steerkit import (
    cli,
    closedform,
    collective_steering_value,
    dynamics,
    steering,
    svgplot,
)
from steerkit.cli import PRESETS, Scenario, Sweep, parse_rate, run
from steerkit.errors import ConfigError

TWO_PI = 2.0 * math.pi


def tiny_curve_scenario(**overrides) -> Scenario:
    base = dict(
        mode="curve",
        params={"kind": "ratios", "gamma_over_G": 0.1},
        sweep=Sweep("r", 0.0, 2.0, 11),
        cases=({"label": "cold", "n0": 0.0, "n": 0.0},
               {"label": "warm", "n0": 5.0, "n": 5.0}),
    )
    base.update(overrides)
    return Scenario(**base)


def device_params(**overrides) -> dict:
    """A ``physical`` params block: a blue-sideband nanobeam device."""
    kappa = TWO_PI * 5.0e8
    omega0 = TWO_PI * 2.0e14
    omega_m = TWO_PI * 3.68e9
    g0 = TWO_PI * 1.0e3
    alpha = TWO_PI * 40.7e6 / g0  # cavity amplitude for g = 2pi x 40.7 MHz
    params = {
        "kind": "physical",
        "omega1": omega0 + kappa, "omega2": omega0 - kappa,
        "omega_m": omega_m, "omega_L": omega0 + omega_m,
        "kappa1": kappa, "kappa2": kappa, "gamma": "35 kHz",
        "g01": g0, "g02": g0,
        "E1": alpha * abs(kappa + 1j * (kappa - omega_m)),
        "E2": alpha * abs(kappa + 1j * (-kappa - omega_m)),
        "n0": 0.85, "n": 0.85, "tau": 1e-7,
    }
    params.update(overrides)
    return params


SMALL_SWEEP = {"variable": "r", "start": 0.5, "stop": 1.0, "points": 2}


def valid_doc(mode: str) -> dict:
    """A small valid scenario document of ``mode``."""
    doc = {"schema_version": 1, "mode": mode,
           "params": {"kind": "ratios", "gamma_over_G": 0.1}}
    if mode in ("curve", "validate-oracle", "cross-correlation"):
        doc["sweep"] = SMALL_SWEEP
    elif mode == "heatmap":
        doc["sweep"] = SMALL_SWEEP
        doc["sweep2"] = {**SMALL_SWEEP, "variable": "gamma_over_G",
                         "start": 0.0}
    elif mode == "n-threshold":
        doc["sweep"] = {**SMALL_SWEEP, "variable": "gamma_over_G",
                        "start": 0.05, "stop": 0.1}
    elif mode == "validate-adiabatic":
        doc["params"]["kappa_over_g"] = [10.0, 20.0]
    elif mode == "working-point":
        doc["params"] = device_params()
    return doc


def csv_text(record, tmp_path) -> str:
    """The CSV file that ``cli._write_csv`` writes for ``record``."""
    path = tmp_path / "record.csv"
    cli._write_csv(str(path), record)
    return path.read_bytes().decode("utf-8")


def svg_png(text: str) -> tuple[str, bytes, np.ndarray]:
    """The SVG text with its one PNG's base64 payload cut out, the PNG's
    decoded scanlines and its ``(height, width, 3)`` pixels, read with
    zlib: 8-bit RGB, unfiltered rows, every chunk's CRC checked."""
    head, rest = text.split('href="data:image/png;base64,')
    payload, tail = rest.split('"', 1)
    png = base64.b64decode(payload, validate=True)
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(png):
        (size,) = struct.unpack(">I", png[pos:pos + 4])
        tag, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + size]
        (crc,) = struct.unpack(">I", png[pos + 8 + size:pos + 12 + size])
        assert crc == zlib.crc32(tag + data)
        chunks.append((tag, data))
        pos += 12 + size
    tags = [tag for tag, _ in chunks]
    assert tags[0] == b"IHDR" and tags[-1] == b"IEND"
    assert set(tags[1:-1]) == {b"IDAT"}
    w, h, *kind = struct.unpack(">IIBBBBB", chunks[0][1])
    assert kind == [8, 2, 0, 0, 0]
    scanlines = zlib.decompress(b"".join(d for t, d in chunks if t == b"IDAT"))
    rows = np.frombuffer(scanlines, dtype=np.uint8).reshape(h, 1 + 3 * w)
    assert not rows[:, 0].any()
    return (head + 'href="data:image/png;base64,"' + tail, scanlines,
            rows[:, 1:].reshape(h, w, 3))


def assert_exit_2(tmp_path, capsys, doc: dict) -> None:
    """Running ``doc`` exits 2 with a ConfigError and writes no output."""
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "result.csv"
    code = cli.main(["run", "--config", str(cfg), "--output", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


class TestRateParsing:
    def test_hz_family(self):
        assert parse_rate("500 MHz") == pytest.approx(TWO_PI * 5.0e8)
        assert parse_rate("40.7 MHz") == pytest.approx(TWO_PI * 40.7e6)
        assert parse_rate("35 kHz") == pytest.approx(TWO_PI * 3.5e4)
        assert parse_rate("3.68 GHz") == pytest.approx(TWO_PI * 3.68e9)

    def test_rad_per_second_passthrough(self):
        assert parse_rate(123.0) == 123.0
        assert parse_rate("2.5 rad/s") == 2.5

    def test_rejects_unknown_units(self):
        with pytest.raises(ConfigError):
            parse_rate("5 furlongs")
        with pytest.raises(ConfigError):
            parse_rate("abc MHz")


class TestScenarioSchema:
    def test_round_trip_is_identity(self):
        # scenarios with and without sweep, sweep2, cases and output:
        # to_dict leaves out each unset one, and the digests are pinned
        heatmap = Scenario(mode="heatmap",
                           params={"kind": "ratios", "n0": 0.5},
                           sweep=Sweep("r", 0.0, 2.0, 5),
                           sweep2=Sweep("n", 0.0, 4.0, 3))
        adiabatic = Scenario(mode="validate-adiabatic", params={
            "kind": "ratios", "gamma_over_G": 0.1,
            "kappa_over_g": [10.0, 20.0]},
            tolerances={"adiabatic_rel": 0.1})
        cross = Scenario(mode="cross-correlation", engine="both",
                         params={"kind": "ratios", "gamma_over_G": 0.1},
                         sweep=Sweep("r", 0.5, 1.0, 2), seed=7,
                         trajectories=2000, output="x.json")
        scenarios = [
            (tiny_curve_scenario(), {"sweep2", "output"}),
            (tiny_curve_scenario(cases=(), output="c.csv"),
             {"sweep2", "cases"}),
            (PRESETS["fig3a"](), {"sweep2"}),
            (PRESETS["fig4"](), {"cases"}),
            (PRESETS["inset"](), {"sweep2", "cases"}),
            (heatmap, {"cases", "output"}),
            (adiabatic, {"sweep", "sweep2", "cases", "output"}),
            (cross, {"sweep2", "cases"})]
        digests = [
            "a0702f728bec6190c2129d1d919835a62c2b6c2feaa1f500f6870195a396a3ab",
            "216713411271458a8c95c5985aaa2a49e1fa63de46b7890d04c7b3d5ace78b99",
            "015b11cf41489c5fb5819cbd36d731aa0dbc10f1ef868f91fdf0ffcf71b7ab05",
            "4b77dd69015d42f384ae4e90b14cd9ebb3182209e7588cf3531c01d1ff4f1327",
            "4d5f51efe03d46a581f7d82efd9c623b55ea35832a8f438a9142eecd988bbb9e",
            "af25863c4a26b11475ccdaa93e12684619e71da5129b496af6cc7dc315093090",
            "1defbd7028663abc45ed20bd2f81141c02121a845ac7bbe56dcaebffe16bb449",
            "934cb6c0e6d7fd9a160b2d3ebc5d6799ae26ba85b153f4024a3787a727547f7e"]
        names = {"schema_version", *(f.name for f in fields(Scenario))}
        for (sc, unset), digest in zip(scenarios, digests, strict=True):
            assert Scenario.from_json(sc.to_json()) == sc
            assert set(sc.to_dict()) == names - unset
            assert sc.digest() == digest

    def test_schema_version_is_mandatory(self):
        doc = tiny_curve_scenario().to_dict()
        del doc["schema_version"]
        with pytest.raises(ConfigError):
            Scenario.from_dict(doc)
        doc["schema_version"] = 99
        with pytest.raises(ConfigError):
            Scenario.from_dict(doc)

    def test_sweep_validation(self):
        # a sweep refuses a bad value when built, directly or through
        # dataclasses.replace, which builds anew
        base = Sweep("r", 0.0, 1.0, 10)
        for edit, message in [
            ({"variable": "bogus"}, f"sweep variable 'bogus' not in "
                                    f"{cli.SWEEP_VARIABLES}"),
            ({"start": 1.0, "stop": 0.0},
             "sweep range must have start < stop, got [1.0, 0.0]"),
            ({"points": 1}, "sweep needs >= 2 points, got 1"),
            ({"stop": math.inf}, "sweep range must be finite, got [0.0, inf]"),
            ({"start": -1e308, "stop": 1e308}, "sweep range [-1e+308, "
                                               "1e+308] is wider than the "
                                               "float range"),
            ({"scale": "cubic"}, "sweep scale 'cubic' not linear|log"),
            ({"scale": "log"}, "log sweep needs start > 0"),
        ]:
            with pytest.raises(ConfigError) as built:
                Sweep(**{**vars(base), **edit})
            with pytest.raises(ConfigError) as replaced:
                replace(base, **edit)
            assert str(built.value) == str(replaced.value) == message

    def test_mode_requirements(self):
        # as a sweep, a scenario refuses a bad value when built
        base = tiny_curve_scenario()
        for edit, message in [
            ({"mode": "bogus"}, f"mode 'bogus' not in {tuple(cli._MODES)}"),
            ({"sweep": None}, "mode 'curve' takes one sweep block"),
            ({"mode": "heatmap"}, "mode 'heatmap' takes a sweep and a "
                                  "sweep2 block"),
            ({"seed": -1}, "seed must be in [0, 2**64), got -1"),
            ({"engine": "magic"}, "engine 'magic' not in "
                                  "('closedform', 'oracle', 'both')"),
            ({"params": {"kind": "ratios", "gamma": 0.1}},
             "unknown ratios params ['gamma']"),
            ({"tolerances": {"n_tol": 0.5}}, "mode 'curve' reads no "
                                             "tolerances ['n_tol']; it reads "
                                             "[]"),
        ]:
            with pytest.raises(ConfigError) as built:
                Scenario(**{**{f.name: getattr(base, f.name)
                               for f in fields(Scenario)}, **edit})
            with pytest.raises(ConfigError) as replaced:
                replace(base, **edit)
            assert str(built.value) == str(replaced.value) == message

    def test_a_seed_override_is_checked(self, tmp_path, capsys):
        # --seed replaces the preset's seed, which builds a new, checked
        # scenario; -1 exits 2 with the seed's message and writes nothing
        out = tmp_path / "fig4.csv"
        assert cli.main(["preset", "fig4", "--run", "--seed", "-1",
                         "--output", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": "seed must be in [0, 2**64), got -1"}
        assert not any(tmp_path.iterdir())

    def test_a_run_checks_each_value_once(self, tmp_path, monkeypatch):
        # a scenario, its sweep and each sampler point's ReducedParams are
        # checked once, when built; the params block is parsed when the
        # scenario is built and once more for its runner
        counts = dict.fromkeys(("sweep", "scenario", "params", "point"), 0)

        def spy(key, fn):
            def spied(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return spied

        for key, cls in (("sweep", Sweep), ("scenario", Scenario),
                         ("point", steerkit.ReducedParams)):
            monkeypatch.setattr(cls, "__post_init__",
                                spy(key, cls.__post_init__))
        mode = cli._MODES["cross-correlation"]
        monkeypatch.setitem(cli._MODES, "cross-correlation", replace(
            mode, params=spy("params", mode.params)))
        sc = Scenario.from_dict({
            "schema_version": 1, "mode": "cross-correlation",
            "engine": "both", "trajectories": 1000,
            "params": {"kind": "ratios", "gamma_over_G": 0.1, "n0": 0.5,
                       "n": 5.0},
            "sweep": {"variable": "r", "start": 0.5, "stop": 2.5,
                      "points": 5}})
        record = run(sc, output=str(tmp_path / "cc.csv"))
        assert len(record.points) == 5 and not record.warnings
        assert counts == {"sweep": 1, "scenario": 1, "params": 2,
                          "point": 5}

    def test_ratio_knobs_are_the_parameters_of_reduced_from_ratios(self):
        # the oracle and sampler runners call reduced_from_ratios(**knobs):
        # a knob it does not take, or a default that differs, would break
        # them or change their points
        params = inspect.signature(steerkit.reduced_from_ratios).parameters
        assert set(params) == set(cli._RATIO_DEFAULTS)
        assert {name: p.default for name, p in params.items()
                if p.kind is p.KEYWORD_ONLY} == {
            name: v for name, v in cli._RATIO_DEFAULTS.items()
            if name not in ("r", "gamma_over_G")}

    def test_digest_tracks_content(self):
        a = tiny_curve_scenario()
        b = tiny_curve_scenario(seed=999)
        assert a.digest() != b.digest()
        assert a.digest() == tiny_curve_scenario().digest()


class TestCurveRuns:
    def test_row_count_matches_sweep(self, tmp_path):
        out = tmp_path / "curve.csv"
        record = run(tiny_curve_scenario(), output=str(out))
        assert len(record.points) == 11
        rows = [line for line in out.read_text().splitlines()
                if line and not line.startswith("#")]
        assert len(rows) == 12  # header plus one row per sweep point

    def test_byte_identical_reruns_and_thread_counts(self, tmp_path):
        texts = []
        for tag, threads in (("a", 1), ("b", 3), ("c", 1)):
            out = tmp_path / f"curve_{tag}.csv"
            run(tiny_curve_scenario(), output=str(out), threads=threads)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_warm_curve_starts_at_occupation_plus_half(self, tmp_path):
        record = run(tiny_curve_scenario())
        first = record.points[0]
        assert first["E[cold]"] == pytest.approx(0.5, rel=1e-12)
        assert first["E[warm]"] == pytest.approx(5.5, rel=1e-12)

    def test_failed_points_become_nan_rows_with_warnings(self, tmp_path):
        sc = Scenario(
            mode="curve",
            params={"kind": "ratios", "gamma_over_G": 0.1},
            sweep=Sweep("n", -1.0, 1.0, 5),
        )
        out = tmp_path / "bad.csv"
        record = run(sc, output=str(out))
        assert len(record.points) == 5
        assert math.isnan(record.points[0]["E"])
        assert not math.isnan(record.points[-1]["E"])
        assert record.warnings
        text = out.read_text()
        assert "# warning:" in text
        assert "nan" in text.lower()

    def test_out_of_domain_points_warn_once_and_skip_the_oracle(
            self, monkeypatch):
        oracle_n = []
        sweep = dynamics.output_covariances

        def output_covariances(rps, **kw):
            stack, failures = sweep(rps, **kw)
            oracle_n.append([rp.n for i, rp in enumerate(rps)
                             if i not in failures])
            return stack, failures

        monkeypatch.setattr(dynamics, "output_covariances", output_covariances)
        sc = Scenario(
            mode="curve",
            params={"kind": "ratios", "gamma_over_G": 0.1, "r": 0.5},
            sweep=Sweep("n", -1.0, 1.0, 3),
            cases=({"label": "a", "n0": 0.0}, {"label": "b", "n0": 2.0},
                   {"label": "c", "n0": 1.0}),
            engine="both",
        )
        record = run(sc)
        assert record.warnings == [
            f"point 0 (n=-1, {lab}): n must be >= 0, got -1.0"
            for lab in "abc"]
        # one oracle sweep for the three cases; the point that failed is not
        # propagated
        assert oracle_n == [[0.0, 1.0] * 3]
        first, *rest = record.points
        for lab in "abc":
            assert math.isnan(first[f"E[{lab}]"])
            assert math.isnan(first[f"E_oracle[{lab}]"])
        for point in rest:
            assert point["E_oracle[b]"] == pytest.approx(point["E[b]"],
                                                         rel=1e-9)

    def test_oracle_refusal_inside_a_sweep(self, tmp_path):
        # the points past the float range leave the stacked oracle sweep
        # with their own warnings; the rows before them are unchanged
        sc = Scenario(mode="curve",
                      params={"kind": "ratios", "gamma_over_G": 0.1},
                      sweep=Sweep("r", 340.0, 370.0, 4), engine="both")
        text = csv_text(run(sc), tmp_path)
        assert text.split("\n", 2)[2] == (
            "# warning: point 2 (r=360, E): output kernel normalization "
            "overflows at G*tau = 360\n"
            "# warning: point 3 (r=370, E): output kernel normalization "
            "overflows at G*tau = 370\n"
            "r,E,E_oracle\n"
            "3.40000000000e+02,4.95867768595e-03,0.00000000000e+00\n"
            "3.50000000000e+02,4.95867768595e-03,0.00000000000e+00\n"
            "3.60000000000e+02,4.95867768595e-03,nan\n"
            "3.70000000000e+02,4.95867768595e-03,nan\n")

    def test_knob_and_oracle_refusals_interleave_by_point(self, tmp_path):
        # every point of "warm" is refused by its knobs, in both engines;
        # "cold" is refused by the oracle from r = 355: the warnings run
        # point by point, case by case, as the cells do
        sc = Scenario(mode="curve",
                      params={"kind": "ratios", "gamma_over_G": 0.1},
                      sweep=Sweep("r", 353.0, 356.0, 4), engine="both",
                      cases=({"label": "warm", "n0": -1.0},
                             {"label": "cold", "n": 0.0}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run(sc)
        assert record.exit_code == 0
        assert csv_text(record, tmp_path).split("\n", 2)[2] == (
            "# warning: point 0 (r=353, warm): n0 must be >= 0, got -1.0\n"
            "# warning: point 1 (r=354, warm): n0 must be >= 0, got -1.0\n"
            "# warning: point 2 (r=355, warm): n0 must be >= 0, got -1.0\n"
            "# warning: point 2 (r=355, cold): output kernel normalization "
            "overflows at G*tau = 355\n"
            "# warning: point 3 (r=356, warm): n0 must be >= 0, got -1.0\n"
            "# warning: point 3 (r=356, cold): output kernel normalization "
            "overflows at G*tau = 356\n"
            "r,E[warm],E_oracle[warm],E[cold],E_oracle[cold]\n"
            "3.53000000000e+02,nan,nan,4.95867768595e-03,0.00000000000e+00\n"
            "3.54000000000e+02,nan,nan,4.95867768595e-03,0.00000000000e+00\n"
            "3.55000000000e+02,nan,nan,4.95867768595e-03,nan\n"
            "3.56000000000e+02,nan,nan,4.95867768595e-03,nan\n")

    def test_a_subnormal_pulse_area_refuses_its_kernel_normalization(
            self, tmp_path):
        # below G tau ~ 5.6e-309, 2G / (e^{2 G tau} - 1) overflows in float
        # division, which raises nothing: the normalization says so, as it
        # does past r ~ 354.9; at r = 6e-309 it is finite and E resolves.
        # From G tau ~ 9e307, 2 G tau is inf, which expm1 returns without
        # raising, and the quotient is 0: refused as well
        for sweep, rows in (
                (Sweep("r", 1e-311, 6e-309, 2),
                 "# warning: point 0 (r=1e-311, E): output kernel "
                 "normalization overflows at G*tau = 1e-311\n"
                 "r,E_oracle\n"
                 "1.00000000000e-311,nan\n"
                 "6.00000000000e-309,5.00000000000e-01\n"),
                (Sweep("r", 1.0, 1e308, 2),
                 "# warning: point 1 (r=1e+308, E): output kernel "
                 "normalization overflows at G*tau = 1e+308\n"
                 "r,E_oracle\n"
                 "1.00000000000e+00,2.67457857222e-02\n"
                 "1.00000000000e+308,nan\n")):
            sc = Scenario(mode="curve", engine="oracle",
                          params={"kind": "ratios", "gamma_over_G": 0.1},
                          sweep=sweep)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                text = csv_text(run(sc), tmp_path)
            assert text.split("\n", 2)[2] == rows

    @pytest.mark.parametrize("gamma_over_G, sweep, rows", [
        # the covariance passes half the float maximum from r ~ 354.5, and
        # its symmetrization overflows
        (0.1, Sweep("r", 353.0, 354.8, 4),
         "# warning: point 3 (r=354.8, E): output covariance is not finite\n"
         "r,E,E_oracle\n"
         "3.53000000000e+02,4.95867768595e-03,0.00000000000e+00\n"
         "3.53600000000e+02,4.95867768595e-03,0.00000000000e+00\n"
         "3.54200000000e+02,4.95867768595e-03,0.00000000000e+00\n"
         "3.54800000000e+02,4.95867768595e-03,nan\n"),
        # the covariance is finite and the collective rows overflow
        (1.0, Sweep("r", 353.5, 354.0, 2),
         "# warning: point 1 (r=354, E): output covariance is not finite\n"
         "r,E,E_oracle\n"
         "3.53500000000e+02,3.75000000000e-01,0.00000000000e+00\n"
         "3.54000000000e+02,3.75000000000e-01,nan\n"),
    ], ids=["symmetrization", "collective-rows"])
    def test_oracle_refuses_an_overflowed_output_covariance(
            self, tmp_path, gamma_over_G, sweep, rows):
        # below the kernel normalization's limit (r ~ 354.9): a NaN row with
        # a warning, and no numpy warning on stderr
        sc = Scenario(mode="curve",
                      params={"kind": "ratios", "gamma_over_G": gamma_over_G},
                      sweep=sweep, engine="both")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = csv_text(run(sc), tmp_path)
        assert text.split("\n", 2)[2] == rows

    def test_cases_in_one_stack_are_the_cases_alone(self):
        # a case's cells and warnings in the shared stacks (the closed form's
        # and the oracle's) are those of the case run alone, bit for bit, up
        # to the float range's edge; over r, the third case's rates leave
        # the float range at every point; over n, each case sets r, and the
        # cold case's n0 refuses every cell of both engines
        curves = [(Sweep("r", 0.5, 354.8, 6),
                   ({"label": "warm", "n0": 1.5, "n": 2.0},
                    {"label": "edge", "gamma_over_G": 0.05},
                    {"label": "wide", "Delta_over_kappa": 1e160}), 8),
                  (Sweep("n", 0.0, 40.0, 5),
                   ({"label": "short", "r": 0.5},
                    {"label": "cold", "r": 2.0, "n0": -1.0},
                    {"label": "edge", "r": 354.8, "gamma_over_G": 0.05}), 10)]
        for sweep, cases, refused in curves:
            def curve(*cases):
                return run(Scenario(
                    mode="curve", engine="both", cases=cases,
                    params={"kind": "ratios", "gamma_over_G": 0.1,
                            "G1_over_G2": 1.5},
                    sweep=sweep))

            both = curve(*cases)
            assert len(both.warnings) == refused
            for case in cases:
                alone, lab = curve(case), case["label"]
                for col in (f"E[{lab}]", f"E_oracle[{lab}]"):
                    assert [p[col].hex() for p in both.points] \
                        == [p[col].hex() for p in alone.points]
                assert [w for w in both.warnings if f", {lab})" in w] \
                    == alone.warnings

    def test_one_stack_per_curve_on_each_side(self, monkeypatch):
        # the three cases' points go into one closed-form witness call, and
        # into one oracle stack and one witness call
        calls, witness_calls, closed_calls = [], [], []
        sweep, witness = dynamics.output_covariances, steering.steering_product
        closed = closedform.collective_steering_value

        def output_covariances(rps, **kw):
            calls.append(len(rps))
            return sweep(rps, **kw)

        def steering_product(oc, *args):
            witness_calls.append(oc.sigma.shape[0])
            return witness(oc, *args)

        def collective_steering_value(r, *args):
            closed_calls.append(np.shape(r))
            return closed(r, *args)

        monkeypatch.setattr(dynamics, "output_covariances", output_covariances)
        monkeypatch.setattr(steering, "steering_product", steering_product)
        monkeypatch.setattr(closedform, "collective_steering_value",
                            collective_steering_value)
        sc = Scenario(mode="curve",
                      params={"kind": "ratios", "gamma_over_G": 0.1},
                      sweep=Sweep("r", 0.5, 2.5, 5), engine="both",
                      cases=({"label": "a", "n": 0.0},
                             {"label": "b", "n": 5.0},
                             {"label": "c", "n0": 1.0}))
        record = run(sc)
        assert calls == [15]
        assert witness_calls == [15]
        assert closed_calls == [(3, 5)]
        assert not record.warnings

    def test_each_nan_cell_is_explained_once(self, tmp_path, monkeypatch):
        # the explain step reads each NaN cell's refusal from its knobs,
        # once, in the order of the warnings
        explained, refused = [], []
        refusals, refusal = cli._refusals, closedform._refusal

        def explain(steps):
            found = refusals(steps)
            explained.extend(found)
            return found

        def read(args, kind):
            refused.append((args[3], args[2]))
            return refusal(args, kind)

        monkeypatch.setattr(cli, "_refusals", explain)
        monkeypatch.setattr(closedform, "_refusal", read)
        record = run(PRESETS["fig3a"](), output=str(tmp_path / "fig3a.csv"))
        assert len(record.points) * 3 == 903 and explained == refused == []
        sc = Scenario(mode="curve",
                      params={"kind": "ratios", "gamma_over_G": 0.1},
                      sweep=Sweep("n", -1.0, 1.0, 5),
                      cases=({"label": "a", "n0": 0.0},
                             {"label": "b", "n0": 2.0}))
        record = run(sc)
        nan_cells = [(p["n"], c) for p in record.points
                     for c in record.columns[1:] if math.isnan(p[c])]
        assert len(nan_cells) == 4
        n0 = {"a": 0.0, "b": 2.0}
        cells = [(-1.0, 0.0), (-1.0, 2.0), (-0.5, 0.0), (-0.5, 2.0)]
        assert [(record.points[i]["n"], n0[tag])
                for i, tag, _ in explained] == cells
        assert sorted(refused) == sorted(cells)
        assert [message for _, _, message in explained] == [
            w.split(": ", 1)[1] for w in record.warnings]

    def test_cold_curve_dips_then_recovers_toward_plateau(self):
        sc = Scenario(
            mode="curve",
            params={"kind": "ratios", "gamma_over_G": 0.1},
            sweep=Sweep("r", 0.0, 3.0, 61),
        )
        record = run(sc)
        es = [p["E"] for p in record.points]
        assert es[0] == pytest.approx(0.5, rel=1e-12)
        assert min(es) < 0.01
        assert es[-1] > min(es)  # slow rise toward the damping plateau

    def test_oracle_engine_agrees_with_closed_form(self):
        sc = Scenario(
            mode="curve",
            params={"kind": "ratios", "gamma_over_G": 0.1},
            sweep=Sweep("r", 0.5, 1.5, 3),
            engine="both",
        )
        record = run(sc)
        for p in record.points:
            assert p["E_oracle"] == pytest.approx(p["E"], rel=1e-6)

    def test_digest_embedded_in_csv(self, tmp_path):
        sc = tiny_curve_scenario()
        out = tmp_path / "curve.csv"
        run(sc, output=str(out))
        head = out.read_text().splitlines()[0]
        assert head == f"# scenario_digest: {sc.digest()}"


class TestOtherModes:
    def test_either_coupling_may_be_zero(self):
        # (g1, g2) = (0, g) and (g, 0) are one device with its cavities
        # swapped: each run resolves every point with no warning, and what
        # does not tell cavity 1 from cavity 2 is equal
        def rows(mode, engine="closedform", **kw):
            out = []
            for g1, g2 in ((0.0, 9.0), (9.0, 0.0)):
                params = {"kind": "reduced", "g1": g1, "g2": g2,
                          "kappa": 20.0, "Delta": 20.0, "gamma": 0.05,
                          "n0": 0.5, "n": 5.0, "tau": 1.0}
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    record = run(Scenario(
                        mode=mode, engine=engine, params=params,
                        sweep=Sweep("tau", 0.5, 2.0, 3), **kw))
                assert record.warnings == []
                assert record.summary.get("validated", True)
                assert not np.isnan(record.points.cells).any()
                out.append(list(record.points))
            return out

        zero, inf = rows("curve", "both")
        assert zero == inf
        # rel_E_m1 reads the single witness of cavity 1, which is the idle
        # cavity in one run and the driven one in the other
        swap = str.maketrans("12", "21")
        zero, inf = rows("validate-oracle")
        assert [{k.translate(swap): v for k, v in row.items()
                 if k not in ("rel_E_m1", "max_rel")} for row in zero] == [
            {k: v for k, v in row.items() if k not in ("rel_E_m1", "max_rel")}
            for row in inf]
        zero, inf = rows("cross-correlation", "oracle", trajectories=1000)
        assert [row["cross_corr"] for row in zero] == [
            row["cross_corr"] for row in inf] == [0.0] * 3

    def test_heatmap_long_format_and_contour_file(self, tmp_path):
        sc = Scenario(
            mode="heatmap",
            params={"kind": "ratios", "n0": 5.0, "n": 5.0},
            sweep=Sweep("r", 0.01, 1.0, 9),
            sweep2=Sweep("gamma_over_G", 0.0, 0.2, 5),
        )
        out = tmp_path / "map.csv"
        record = run(sc, output=str(out))
        assert len(record.points) == 45
        assert (tmp_path / "map.contour.csv").exists()
        # points read as one {r, gamma_over_G, E} dict of floats per cell,
        # gamma_over_G outer and r inner
        v1, v2 = sc.sweep.values(), sc.sweep2.values()
        E = steering.steering_region(v1, v2, 5.0, 5.0).E.tolist()
        cells = [{"r": x1, "gamma_over_G": x2, "E": e}
                 for x2, row in zip(v2.tolist(), E)
                 for x1, e in zip(v1.tolist(), row)]
        points = record.points
        assert (points[0], points[13], points[-1], points[44]) \
            == (cells[0], cells[13], cells[-1], cells[-1])
        assert [(p["r"], p["gamma_over_G"]) for p in points] \
            == [(x1, x2) for x2 in v2.tolist() for x1 in v1.tolist()]
        assert list(points) == cells

    def test_heatmap_off_the_steering_plane_writes_no_contour_file(
            self, tmp_path):
        # only an (r, gamma/G) map has an E = 1/2 contour; a map over other
        # axes, here (r, n), writes its CSV and SVG and no contour file
        sc = Scenario(mode="heatmap",
                      params={"kind": "ratios", "gamma_over_G": 0.1},
                      sweep=Sweep("r", 0.0, 2.0, 5),
                      sweep2=Sweep("n", 0.0, 5.0, 4))
        record = run(sc, output=str(tmp_path / "map.csv"), svg=True)
        assert "contour" not in record.summary
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["map.csv", "map.svg"]

    def test_heatmap_out_of_domain_cells_warn_in_point_order(self):
        sc = Scenario(
            mode="heatmap",
            params={"kind": "ratios", "gamma_over_G": 0.1, "n0": 1.0},
            sweep=Sweep("n", -1.0, 1.0, 3),
            sweep2=Sweep("tau", -0.5, 1.0, 4),
        )
        record = run(sc)
        assert record.warnings == [
            "point 0: pulse area r must be >= 0, got -0.5",
            "point 1: pulse area r must be >= 0, got -0.5",
            "point 2: pulse area r must be >= 0, got -0.5",
            "point 3: n must be >= 0, got -1.0",
            "point 6: n must be >= 0, got -1.0",
            "point 9: n must be >= 0, got -1.0",
        ]
        es = [p["E"] for p in record.points]
        bad = {0, 1, 2, 3, 6, 9}
        assert all(math.isnan(e) == (k in bad) for k, e in enumerate(es))
        assert record.points[4]["E"] == collective_steering_value(
            0.0, 0.1, 1.0, 0.0)

    @pytest.mark.parametrize("pair", [("tau", "r"), ("r", "tau")])
    def test_heatmap_over_tau_and_r_exits_2(self, tmp_path, capsys, pair):
        # tau sets r in ratio form: both axes would set one knob, and the
        # map would be constant along one of them
        doc = valid_doc("heatmap")
        doc["sweep"] = {**SMALL_SWEEP, "variable": pair[0]}
        doc["sweep2"] = {**SMALL_SWEEP, "variable": pair[1]}
        assert_exit_2(tmp_path, capsys, doc)

    def test_negative_pulse_areas_in_a_steering_region_map(
            self, tmp_path, capsys):
        # the (r, gamma/G) pair goes through steering_region: its cells
        # outside the domain are NaN with a warning, as on every other pair
        doc = {"schema_version": 1, "mode": "heatmap",
               "params": {"kind": "ratios", "n0": 0.5, "n": 0.5},
               "sweep": {"variable": "r", "start": -1.0, "stop": 2.0,
                         "points": 4},
               "sweep2": {"variable": "gamma_over_G", "start": 0.0,
                          "stop": 0.3, "points": 3}}
        cfg, out = tmp_path / "map.json", tmp_path / "map.csv"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg), "--output",
                         str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "map.contour.csv").exists()
        record = run(Scenario.from_dict(doc))
        assert record.warnings == [
            f"point {i}: pulse area r must be >= 0, got -1.0"
            for i in (0, 4, 8)]
        ref = run(Scenario.from_dict(
            {**doc, "sweep": {**doc["sweep"], "start": 0.0, "points": 3}}))
        E, E_ref = record.points.E, ref.points.E
        assert np.isnan(E[:, 0]).all()
        assert E[:, 1:].tobytes() == E_ref.tobytes()
        assert record.summary["contour"] == ref.summary["contour"] != []

    def test_cross_correlation_is_byte_identical_across_thread_counts(
            self, tmp_path):
        sc = Scenario(
            mode="cross-correlation",
            params={"kind": "ratios", "gamma_over_G": 0.1},
            sweep=Sweep("r", 0.5, 1.0, 2),
            engine="oracle",
            trajectories=1000,
        )
        texts = []
        for threads in (1, 2):
            out = tmp_path / f"cc{threads}.csv"
            run(sc, output=str(out), threads=threads)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_adjacent_seeds_share_no_sampler_stream(self):
        def mc_at_r1(seed, start, stop):
            sc = Scenario(
                mode="cross-correlation",
                params={"kind": "ratios", "gamma_over_G": 0.1},
                sweep=Sweep("r", start, stop, 2), engine="oracle",
                seed=seed, trajectories=1000)
            return {p["r"]: p["cross_corr_mc"] for p in run(sc).points}[1.0]

        assert mc_at_r1(7, 0.5, 1.0) != mc_at_r1(8, 1.0, 1.5)

    def test_nthreshold_mode(self):
        sc = Scenario(
            mode="n-threshold",
            params={"kind": "ratios", "n0": 0.0},
            sweep=Sweep("gamma_over_G", 0.1, 0.2, 2),
        )
        record = run(sc)
        assert 500.0 <= record.points[0]["n_threshold"] <= 700.0
        assert record.points[1]["n_threshold"] < record.points[0]["n_threshold"]

    def test_nthreshold_makes_one_array_call(self, tmp_path, monkeypatch):
        # the inset's damping ratios go to noise_threshold as one array
        calls, threshold = [], steering.noise_threshold

        def spy(*args, **kwargs):
            calls.append(args[0])
            return threshold(*args, **kwargs)

        monkeypatch.setattr(steering, "noise_threshold", spy)
        monkeypatch.chdir(tmp_path)  # the preset writes inset.csv
        run(PRESETS["inset"]())
        assert len(calls) == 1
        assert isinstance(calls[0], np.ndarray)
        assert calls[0].tolist() == PRESETS["inset"]().sweep.values().tolist()

    def test_validate_oracle_mode_passes_tolerance(self):
        sc = Scenario(
            mode="validate-oracle",
            params={"kind": "ratios", "gamma_over_G": 0.1, "n0": 0.5,
                    "n": 5.0},
            sweep=Sweep("r", 0.5, 2.0, 3),
        )
        record = run(sc)
        assert record.exit_code == 0
        assert record.summary["validated"]
        assert record.summary["max_rel_discrepancy"] < 1e-6
        # at small r, a hot bath and strong damping, the mirror-field
        # moments and cavity 1's witness agree to a few ulps
        record = run(replace(sc, params={
            "kind": "ratios", "gamma_over_G": 3.0, "n0": 0.0, "n": 1e6},
            sweep=Sweep("r", 1e-8, 1e-4, 5, scale="log")))
        assert record.exit_code == 0 and len(record.points) == 5
        assert max(p[c] for p in record.points for c in (
            "rel_cov_Xm_P1", "rel_cov_Xm_P2", "rel_E_m1")) <= 1e-14

    def test_validate_adiabatic_mode(self):
        sc = Scenario(
            mode="validate-adiabatic",
            params={"kind": "ratios", "gamma_over_G": 0.01,
                    "kappa_over_g": [10.0, 20.0]},
        )
        record = run(sc)
        assert record.exit_code == 0
        rels = [p["max_rel_discrepancy"] for p in record.points]
        assert rels[1] < rels[0] <= 0.05

    def test_working_point_mode_recovers_device_numbers(self, tmp_path):
        # end-to-end: drive amplitudes chosen to land on g/2pi = 40.7 MHz;
        # the classical response is suppressed by the sideband detuning
        # Delta_01 = kappa - omega_m, so calibrate E against that
        kappa = TWO_PI * 5.0e8
        g0 = TWO_PI * 1.0e3
        target_g = TWO_PI * 40.7e6
        alpha = target_g / g0
        omega0 = TWO_PI * 2.0e14
        omega_m = TWO_PI * 3.68e9
        E1 = alpha * abs(kappa + 1j * (kappa - omega_m))
        E2 = alpha * abs(kappa + 1j * (-kappa - omega_m))
        sc = Scenario(
            mode="working-point",
            params={
                "kind": "physical",
                "omega1": omega0 + kappa, "omega2": omega0 - kappa,
                "omega_m": omega_m, "omega_L": omega0 + omega_m,
                "kappa1": kappa, "kappa2": kappa,
                "gamma": "35 kHz",
                "g01": g0, "g02": g0,
                "E1": E1, "E2": E2,
                "n0": 0.85, "n": 0.85, "tau": 1e-7,
            },
        )
        out = tmp_path / "wp.csv"
        record = run(sc, output=str(out))
        point = record.points[0]
        # radiation pressure barely shifts this working point
        assert point["g1"] == pytest.approx(target_g, rel=5e-3)
        assert point["G1"] == pytest.approx(TWO_PI * 1.66e6, rel=0.01)
        assert 0.9e-2 <= point["gamma_over_G"] <= 1.2e-2
        assert point["max_residual"] < 1.0

    def test_cross_correlation_mode(self):
        sc = Scenario(
            mode="cross-correlation",
            params={"kind": "ratios", "gamma_over_G": 0.1},
            sweep=Sweep("r", 0.5, 1.0, 2),
        )
        record = run(sc)
        expect = closedform.output_block(0.5, 0.1, 0.0, 0.0)[2, 4]
        assert record.points[0]["cross_corr"] == pytest.approx(expect,
                                                               rel=1e-12)

    def test_cross_corr_column_is_the_direct_closed_form(self):
        # n = 100 makes the damping term large enough that evaluating at
        # (1 + 0.1) - 1 instead of 0.1 moves every value
        sc = Scenario(
            mode="cross-correlation",
            params={"kind": "ratios", "gamma_over_G": 0.1, "n": 100.0},
            sweep=Sweep("r", 0.5, 1.0, 3),
        )
        got = [p["cross_corr"] for p in run(sc).points]
        assert got == [closedform.output_block(r, 0.1, 0.0, 100.0)[2, 4]
                       for r in sc.sweep.values().tolist()]

    def test_validate_oracle_closed_side_is_the_direct_closed_form(
            self, monkeypatch):
        # each closed-form column is one array call per sweep, and each of
        # its cells is the point's float call
        seen = []
        for name in ("output_block", "_w_moments",
                     "collective_steering_value", "single_steering_value"):
            def spy(*args, _fn=getattr(closedform, name), _name=name,
                    **kwargs):
                seen.append((_name, args, _fn(*args, **kwargs)))
                return seen[-1][2]
            monkeypatch.setattr(closedform, name, spy)
        sc = Scenario(
            mode="validate-oracle",
            params={"kind": "ratios", "gamma_over_G": 0.1,
                    "G1_over_G2": 1.5, "n0": 0.5, "n": 5.0},
            sweep=Sweep("r", 0.5, 1.0, 3),
        )
        run(sc)
        monkeypatch.undo()
        rs = sc.sweep.values().tolist()
        assert [name for name, _, _ in seen] == [
            "output_block", "_w_moments", "collective_steering_value",
            "single_steering_value"]
        assert all(isinstance(args[0], np.ndarray) and args[0].shape == (3,)
                   for _, args, _ in seen)
        (_, _, S), (_, _, W), (_, _, E), (_, args, E1) = seen
        f1 = (1.0 + 0.1) - (1.0 + 0.1) / (1.0 + 1.5)
        assert args[4] == f1
        for i, r in enumerate(rs):
            assert S[i].tolist() == closedform.output_block(
                r, 0.1, 0.5, 5.0, G1_over_G2=1.5).tolist()
            assert (W[0][i], W[1][i]) == closedform._w_moments(
                r, 0.1, 0.5, 5.0)
            assert E[i] == closedform.collective_steering_value(
                r, 0.1, 0.5, 5.0)
            assert E1[i] == closedform.single_steering_value(
                r, 0.1, 0.5, 5.0, f1)

    @pytest.mark.parametrize("mode", sorted(cli._MODES))
    def test_every_cell_is_a_python_float(self, mode):
        # the CSV writer formats every cell with %.11e
        doc = valid_doc(mode)
        if mode in ("curve", "cross-correlation"):
            doc.update(engine="both", trajectories=1000)
        record = run(Scenario.from_dict(doc))
        assert record.points
        for p in record.points:
            assert {c: type(p[c]) for c in record.columns} \
                == dict.fromkeys(record.columns, float)

    def test_sampler_reaches_the_end_of_the_float_range(self):
        # the sampler's sums are standardized, so it reaches as far as
        # Sigma_out and the closed form stay finite (r ~ 354.5)
        sc = Scenario.from_dict({
            "schema_version": 1, "mode": "cross-correlation",
            "engine": "both", "trajectories": 1000,
            "params": {"kind": "ratios", "gamma_over_G": 0.1},
            "sweep": {"variable": "r", "start": 10.0, "stop": 360.0,
                      "points": 36}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run(sc)
        assert record.exit_code == 0
        *finite, last = record.points
        for p in finite:
            assert math.isfinite(p["cross_corr_mc"])
            assert abs(p["cross_corr_mc"] - p["cross_corr"]) \
                <= 4.0 * p["cross_corr_mc_se"]
        assert all(math.isnan(last[c]) for c in record.columns[1:])
        assert [w.split(":")[0] for w in record.warnings] == [
            "point 35 (r=360)", "point 35 (r=360, mc)"]


class TestFileFormats:
    def test_csv_bytes_at_the_edges(self, tmp_path):
        nan, inf = math.nan, math.inf
        record = cli.RunRecord(
            scenario_digest="ab" * 32, tool_version="0.0", wall_time_s=0.0,
            columns=["r", "E[n0=0,n=0]", "E_oracle[hot]"],
            points=cli._Table(["r", "E[n0=0,n=0]", "E_oracle[hot]"],
                              np.array([[0.0, nan, inf],
                                        [-0.0, -inf, 1e-300],
                                        [2.5, 0.1, -123456.789]])),
            warnings=["point 1 (r=0, hot): closed-form moments overflow"],
            summary={"validated": False, "tolerance": 1e-6,
                     "contour": [(1.0, 0.1)]})
        assert csv_text(record, tmp_path) == (
            "# scenario_digest: " + "ab" * 32 + "\n"
            "# tool: steerkit 0.0\n"
            "# warning: point 1 (r=0, hot): closed-form moments overflow\n"
            "# tolerance: 1e-06\n"
            "# validated: False\n"
            'r,"E[n0=0,n=0]",E_oracle[hot]\n'
            "0.00000000000e+00,nan,inf\n"
            "-0.00000000000e+00,-inf,1.00000000000e-300\n"
            "2.50000000000e+00,1.00000000000e-01,-1.23456789000e+05\n")

    @pytest.mark.parametrize("name, digest", [
        ("fig4.csv",
         "2b6d59cdfda14b3620da1967201d60f1c2ca74c4217c52a9f3d9d3ef42a4d211"),
        ("fig4.contour.csv",
         "89e3cb34cb5d2fa23fb48e5c4925db4e334d8778ce336dbeaea1624f89a20256"),
    ])
    def test_fig4_csv_bytes_are_pinned(self, tmp_path, name, digest):
        run(PRESETS["fig4"](), output=str(tmp_path / "fig4.csv"))
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("name, digest", [
        ("fig3a",
         "d0769d7f281ab3b57012c30651776371d006f5eaf0845f720e68fb42f1828eef"),
        ("fig3b",
         "a5029650f4569d95d26b117cfd539b0a0f020e75986e545528661fcbff3ce86c"),
    ])
    def test_fig3_csv_bytes_are_pinned(self, tmp_path, name, digest):
        run(PRESETS[name](), output=str(tmp_path / f"{name}.csv"))
        data = (tmp_path / f"{name}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_inset_csv_bytes_are_pinned(self, tmp_path):
        run(PRESETS["inset"](), output=str(tmp_path / "inset.csv"))
        data = (tmp_path / "inset.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "f91210fe678c19e40385f945414981be0b50f484e0c84dd8dcf8b30261be46ec")

    # CROSSINGS has 263 contour cells; LOG_R's 4-point r axis makes wide
    # brackets whose midpoints reach from below r = 1e-4, through the
    # witness's small-r series (r < 0.5), to past r = 350, where E sits on
    # its plateau.
    CROSSINGS = Scenario(
        mode="heatmap", params={"kind": "ratios", "n0": 0.5, "n": 0.5},
        sweep=Sweep("r", 0.0, 3.0, 201),
        sweep2=Sweep("gamma_over_G", 0.0, 1.5, 201))
    LOG_R = Scenario(
        mode="heatmap", params={"kind": "ratios", "n0": 1e-5, "n": 5.0},
        sweep=Sweep("r", 1e-7, 800.0, 4, scale="log"),
        sweep2=Sweep("gamma_over_G", 0.0, 1.5, 61))

    @pytest.mark.parametrize("name, cells, digest", [
        ("CROSSINGS", 263,
         "2b76cceac5b9e4190a55f1ffce55f1528dbf7fd0374299dac6632c779672912c"),
        ("LOG_R", 99,
         "9c9d9a3c5d7f2cf18b50eeb0eb6a2c4e8b530d54a6c641bb544b946aa15ee58b"),
    ])
    def test_contour_bytes_are_pinned(self, tmp_path, name, cells, digest):
        record = run(getattr(self, name), output=str(tmp_path / "map.csv"))
        assert len(record.summary["contour"]) == cells
        data = (tmp_path / "map.contour.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # tables above the writer's size threshold: out-of-domain NaN cells, a
    # -0.0 axis, exact zeros and three-digit exponents (E decays like e^-2r
    # at gamma = 0), and a curve whose first rows are NaN
    BIG_HEATMAP = Scenario(
        mode="heatmap",
        params={"kind": "ratios", "gamma_over_G": 0.0, "n0": 0.5},
        sweep=Sweep("r", 0.0, 400.0, 64),
        sweep2=Sweep("n", -1.0, -0.0, 16))
    BIG_CURVE = Scenario(
        mode="curve",
        params={"kind": "ratios", "r": 1.5, "gamma_over_G": 0.1},
        sweep=Sweep("n", -5.0, 50.0, 221),
        cases=({"label": "cold", "n0": 0.0}, {"label": "warm", "n0": 0.5},
               {"label": "hot", "n0": 3.0}))

    @pytest.mark.parametrize("name, digest", [
        ("BIG_HEATMAP",
         "151fe71adc98115f16dc64715575d7de80c9d30d07f0d055116a285736e5b3f9"),
        ("BIG_CURVE",
         "49110ec9913c1e2af9a02b9c01423ce74333cc7820e3f3c6321ae949fdd6dd41"),
    ])
    def test_large_csv_bytes_are_pinned(self, tmp_path, name, digest):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run(getattr(self, name), output=str(tmp_path / "t.csv"))
        assert record.exit_code == 0
        data = (tmp_path / "t.csv").read_bytes()
        cells = [line.split(b",") for line in data.splitlines()[
            len(record.warnings) + 3:]]
        assert len(cells) * len(cells[0]) >= 600
        if name == "BIG_HEATMAP":
            es = [c[2] for c in cells]
            assert len(es) == 1024 and len(record.warnings) == 960
            assert es.count(b"nan") == 960
            # E = (n0 + 1/2) / (2 (n0 + 1) (e^{2r} - 1) + 1) is a float
            # up to r ~ 372 (subnormal past r ~ 354) and 0 beyond
            assert es.count(b"0.00000000000e+00") == 5
            assert sum(e[-5:-4] == b"e" for e in es) == 41
            assert cells[-1][1] == b"-0.00000000000e+00"
        else:
            assert len(record.warnings) == 60
            assert cells[0][1:] == [b"nan"] * 3
        assert hashlib.sha256(data).hexdigest() == digest

    # the two modes whose closed side is closedform.output_block: a
    # validate-oracle sweep with unequal gains and warm inputs (exit 3: the
    # oracle's float floor at large r, ROADMAP item 1), and a closed-form
    # cross-correlation sweep
    VALIDATE_ORACLE = Scenario(
        mode="validate-oracle",
        params={"kind": "ratios", "gamma_over_G": 0.1, "G1_over_G2": 1.5,
                "n0": 0.5, "n": 5.0},
        sweep=Sweep("r", 0.5, 9.9, 48))
    CLOSED_CROSS_CORRELATION = Scenario(
        mode="cross-correlation", engine="closedform",
        params={"kind": "ratios", "gamma_over_G": 0.3, "G1_over_G2": 2.0,
                "n0": 1.0, "n": 50.0},
        sweep=Sweep("r", 0.0, 12.0, 49))

    @pytest.mark.parametrize("name, exit_code, digest", [
        ("VALIDATE_ORACLE", 3,
         "6d2fde465b46466bf7e88b52a914604140107c495e51839f07ff50f1a91a7e50"),
        ("CLOSED_CROSS_CORRELATION", 0,
         "43443e4a40c0410a63c38a35b795dc6493f9008b0f8fd31d0ae6386a5328ebde"),
    ])
    def test_block_mode_csv_bytes_are_pinned(self, tmp_path, name, exit_code,
                                             digest):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run(getattr(self, name), output=str(tmp_path / "t.csv"))
        assert record.exit_code == exit_code and not record.warnings
        data = (tmp_path / "t.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # a 2 x 3 heatmap: out-of-domain cells (n < 0), a -0.0 axis value
    # (linspace makes a -0.0 start +0.0, so it is the stop), and a log r
    # axis over small (r < 1e-4), middle and plateau (r > 350) cells
    TINY_HEATMAP = Scenario(
        mode="heatmap",
        params={"kind": "ratios", "gamma_over_G": 0.1, "n0": 0.5},
        sweep=Sweep("n", -0.5, -0.0, 2),
        sweep2=Sweep("r", 5e-5, 400.0, 3, scale="log"))
    TINY_WARNINGS = [f"point {k}: n must be >= 0, got -0.5" for k in (0, 2, 4)]

    def test_heatmap_csv_bytes_at_the_edges(self, tmp_path):
        assert csv_text(run(self.TINY_HEATMAP), tmp_path) == (
            "# scenario_digest: 78f1487f1f27e2cecc0fef8e288e44ee838429b27b34d9"
            "f2d0d5021eb9554d83\n"
            "# tool: steerkit 0.1.0\n"
            + "".join(f"# warning: {w}\n" for w in self.TINY_WARNINGS) +
            "n,r,E\n"
            "-5.00000000000e-01,5.00000000000e-05,nan\n"
            "-0.00000000000e+00,5.00000000000e-05,9.99678417481e-01\n"
            "-5.00000000000e-01,1.41421356237e-01,nan\n"
            "-0.00000000000e+00,1.41421356237e-01,4.80022018116e-01\n"
            "-5.00000000000e-01,4.00000000000e+02,nan\n"
            "-0.00000000000e+00,4.00000000000e+02,4.95867768595e-03\n")

    def test_heatmap_json_document(self, tmp_path):
        out = tmp_path / "map.json"
        run(self.TINY_HEATMAP, output=str(out), fmt="json")
        doc = json.loads(out.read_text())
        assert doc.pop("wall_time_s") >= 0.0
        nan = math.nan
        rs = (4.9999999999999996e-05, 0.1414213562373095, 400.0000000000001)
        es = (0.9996784174811449, 0.4800220181164986, 0.004958677685950413)
        # NaN != NaN, so the documents are compared as canonical JSON text
        assert json.dumps(doc, sort_keys=True) == json.dumps({
            "columns": ["n", "r", "E"],
            "points": [p for r, e in zip(rs, es)
                       for p in ({"n": -0.5, "r": r, "E": nan},
                                 {"n": -0.0, "r": r, "E": e})],
            "scenario_digest": self.TINY_HEATMAP.digest(),
            "summary": {},
            "tool_version": "0.1.0",
            "warnings": self.TINY_WARNINGS}, sort_keys=True)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("svg", [False, True], ids=["no-svg", "svg"])
    @pytest.mark.parametrize("var2", ["gamma_over_G", "n"],
                             ids=["contour", "no-contour"])
    def test_the_files_checked_are_the_files_written(
            self, tmp_path, monkeypatch, fmt, svg, var2):
        # a run lists its files once: the check stage walks the list
        # before any point is computed, the write stage after, in order
        monkeypatch.chdir(tmp_path)
        events = []

        def spy(stage, fn):
            def spied(path):
                events.append((stage, path))
                return fn(path)
            return spied

        monkeypatch.setattr(cli, "_check_output",
                            spy("check", cli._check_output))
        monkeypatch.setattr(cli, "_output", spy("write", cli._output))
        sc = Scenario(mode="heatmap",
                      params={"kind": "ratios", "n0": 0.0, "n": 0.0},
                      sweep=Sweep("r", 0.5, 2.0, 4),
                      sweep2=Sweep(var2, 0.0, 0.3, 3))
        run(sc, output=f"map.{fmt}", fmt=fmt, svg=svg)
        checked = [path for stage, path in events if stage == "check"]
        assert events == [("check", path) for path in checked] + [
            ("write", path) for path in checked]
        # the contour and the chart take the stem less its .csv or .json
        assert checked == [f"map.{fmt}"] + ["map.contour.csv"] * (
            var2 == "gamma_over_G") + ["map.svg"] * svg
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(checked)

    @pytest.mark.parametrize("name", ["fig3a", "fig4"])
    def test_svg_is_rendered_as_text_and_written_by_cli(
            self, tmp_path, monkeypatch, name):
        # svgplot's renderers return the SVG text and create no file; cli
        # opens the SVG, as every other file of a run, through _output
        monkeypatch.chdir(tmp_path)
        opened, rendered = [], []
        output = cli._output

        def spy_output(path):
            opened.append(os.path.basename(path))
            return output(path)

        def spy(render):
            def rendering(*args, **kwargs):
                before = sorted(tmp_path.iterdir())
                rendered.append(render(*args, **kwargs))
                assert sorted(tmp_path.iterdir()) == before
                return rendered[-1]
            return rendering

        monkeypatch.setattr(cli, "_output", spy_output)
        for renderer in ("line_chart", "heatmap"):
            monkeypatch.setattr(svgplot, renderer,
                                spy(getattr(svgplot, renderer)))
        run(PRESETS[name](), output=f"{name}.csv", svg=True)
        contour = [f"{name}.contour.csv"] if name == "fig4" else []
        assert opened == [f"{name}.csv", *contour, f"{name}.svg"]
        assert [type(text) for text in rendered] == [str]
        assert Path(f"{name}.svg").read_text() == rendered[0]

    @pytest.mark.parametrize("output", [None, "fig4.xml"])
    def test_unknown_format_fails_before_computing(self, tmp_path,
                                                   monkeypatch, output):
        def computed(*args, **kwargs):
            pytest.fail("the scenario ran")

        monkeypatch.setattr(steering, "steering_region", computed)
        with pytest.raises(ConfigError, match=r"format 'xml' not csv\|json"):
            run(PRESETS["fig4"](), fmt="xml",
                output=output and str(tmp_path / output))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, digest", [
        ("curve.svg",
         "9f15bbd41f13c7ebac4506aaa713cb6329e3d6873af9adb0e588f7a4adfc1fc2"),
        ("long.svg",
         "bc43cceded7eadf7e744169e7a62ae23fb9294a911db5c9e17b36d9439810caf"),
        ("fig3a.svg",
         "30e6c20cb0281fa4c60e5ca34cd39c9d5060fc8cc649a12901c5cc7708122d84"),
        ("fig3b.svg",
         "373d5151c3f59fb5702f620f84dcfeca598e345bb31e280090520de6170d2829"),
    ])
    def test_svg_bytes_are_pinned(self, tmp_path, name, digest):
        nan, inf = math.nan, math.inf
        path = tmp_path / name
        if name.startswith("fig3"):
            # the presets' charts, drawn through cli.run
            run(PRESETS[name[:-4]](), output=str(path.with_suffix(".csv")),
                svg=True)
        elif name == "curve.svg":
            path.write_text(svgplot.line_chart(
                [0.0, 1.0, 2.0, 3.0, 4.0], {"a": [0.1, 0.4, nan, 0.6, 0.5],
                                            "b": [0.9, 0.7, 0.5, inf, 0.2]},
                x_label="r", hline=0.5))
        else:
            # 450 points from -0.0, three series with leading, inner and
            # trailing NaN runs and lone +-inf; every value comes from
            # correctly rounded IEEE operations, so no libm sets the bytes
            xs = [-0.0] + [0.01 * k for k in range(1, 450)]
            a = [0.5 + 0.4 * ((k * 37) % 101 - 50) / 50 for k in range(450)]
            b = [1.0 / (1.0 + 0.05 * k) for k in range(450)]
            c = [0.25 + ((k * k) % 97) / 97 for k in range(450)]
            a[100:120] = [nan] * 20
            a[300:303] = [nan] * 3
            b[50], b[51] = inf, -inf
            b[400:] = [nan] * 50
            c[:10] = [nan] * 10
            c[200] = inf
            path.write_text(svgplot.line_chart(
                xs, {"a": a, "b": b, "c": c}, x_label="tau", hline=0.5))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @staticmethod
    def draw_heatmap(name: str, tmp_path) -> tuple[str, np.ndarray]:
        """Write the heatmap case ``name``; return its SVG text and grid."""
        nan, inf = math.nan, math.inf
        path = tmp_path / f"{name}.svg"
        if name == "fig4":
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                record = run(PRESETS["fig4"](),
                             output=str(tmp_path / "fig4.csv"), svg=True)
            grid = record.points.E
        elif name == "nonfinite":
            grid = np.array([[0.2, nan, 0.7, inf], [-inf, 0.5, 0.45, 1.3],
                             [0.9, 0.25, nan, 0.6]])
            path.write_text(svgplot.heatmap(
                [0.0, 0.5, 1.0, 1.5], [0.0, 0.1, 0.2], grid, x_label="r",
                y_label="gamma_over_G", contour=((0.4, 0.05), (0.9, 0.15))))
        else:  # hi == lo: every finite cell is t = 1/2
            grid = np.array([[0.5, 0.5, 0.5], [0.5, nan, 0.5]])
            path.write_text(svgplot.heatmap([1.0, 2.0, 3.0], [0.0, 1.0],
                                            grid))
        return path.read_text(), grid

    # The PNG's compressed bytes depend on the zlib build, so a heatmap is
    # pinned by its SVG text with the base64 payload cut out and by the
    # PNG's decoded scanlines
    @pytest.mark.parametrize("name, text_digest, scanline_digest", [
        ("fig4",
         "67383ef3d882c226532b913b6e1a8892885c37b2dfcccfa1b29ca310fab6b7e9",
         "5f1ccee4644fe6226459ab259f8c8c11b7cd6b10ae24029759f368b6a0d18db9"),
        ("nonfinite",
         "b14ded4747311fabca5e9da42a0d3f9dac1cf343c61f108176f9d166ba7f157a",
         "64cf6b5970572fd62d7d51388254506c99f2b29ff58ee1e3d174a4f1fc9f98f8"),
        ("constant",
         "a9f0439fa4fb60b12ee25ebe37d46099a6ac615f6c9829b7b28cc2dc998beba9",
         "e68260c73fe74f3435ee1b200e27517941dc3d63d22702d7b914a107779556e5"),
    ], ids=["fig4", "nonfinite", "constant"])
    def test_heatmap_svg_is_pinned(self, tmp_path, name, text_digest,
                                   scanline_digest):
        text, _ = self.draw_heatmap(name, tmp_path)
        cut, scanlines, _ = svg_png(text)
        assert text.count("<image ") == 1 and text.count("<rect ") == 1
        assert len(text.encode()) < 100_000
        assert hashlib.sha256(cut.encode()).hexdigest() == text_digest
        assert hashlib.sha256(scanlines).hexdigest() == scanline_digest

    @pytest.mark.parametrize("name", ["fig4", "nonfinite", "constant"])
    def test_heatmap_image_is_clipped_to_the_plot_area(self, tmp_path, name):
        # the edge pixels are centred on the plot area's edges, so their
        # outer halves lie outside it (x in [-67.5, 757.5] for "constant");
        # the image sits in a nested viewport equal to the plot rectangle
        text, _ = self.draw_heatmap(name, tmp_path)
        lines = text.splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith("<image "))
        x, y = svgplot._ML, svgplot._MT
        w = svgplot._W - svgplot._ML - svgplot._MR
        h = svgplot._H - svgplot._MT - svgplot._MB
        assert lines[k - 1] == (f'<svg x="{x}" y="{y}" width="{w}" '
                                f'height="{h}" viewBox="{x} {y} {w} {h}">')
        assert lines[k + 1] == "</svg>"
        image = {key: float(v) for key, v in re.findall(
            r'(\w+)="([-\d.e+]+)"', lines[k].split("href")[0])}
        assert image["x"] < x and image["x"] + image["width"] > x + w
        assert image["y"] < y and image["y"] + image["height"] > y + h

    @pytest.mark.parametrize("name", ["fig4", "nonfinite", "constant"])
    def test_heatmap_pixels_are_the_ramp_colors(self, tmp_path, name):
        text, grid = self.draw_heatmap(name, tmp_path)
        _, _, pixels = svg_png(text)
        finite = [v for v in grid.ravel().tolist() if math.isfinite(v)]
        lo, hi = min(finite), max(finite)

        def ramp(v: float) -> list[int]:
            if not math.isfinite(v):
                return [0xcc] * 3
            t = (v - lo) / (hi - lo) if hi > lo else 0.5
            return [int(255 * t), int(255 * (1.0 - abs(2.0 * t - 1.0))),
                    int(255 * (1.0 - t))]

        # row 0 of the image is the largest y, the last row of the grid
        assert pixels.shape == (*grid.shape, 3)
        assert pixels.tolist() == [[ramp(v) for v in row]
                                   for row in grid.tolist()[::-1]]

    def test_log_axes_place_pixels_contour_and_ticks_in_log10(self, tmp_path):
        # a log-r map from 1e-7 to 800 (r on x, as cli draws it): pixel
        # centres, contour points and the end ticks sit at log10 positions
        record = run(self.LOG_R, output=str(tmp_path / "map.csv"), svg=True)
        text = (tmp_path / "map.svg").read_text()
        image = dict(re.findall(r'(\w+)="([\d.e+-]+)"',
                                text.split("<image ")[1].split("href")[0]))
        nx = self.LOG_R.sweep.points
        width = float(image["width"])
        centres = [float(image["x"]) + (j + 0.5) * width / nx
                   for j in (0, nx - 1)]
        lg0, lg1 = math.log10(1e-7), math.log10(800.0)

        def at(r: float) -> float:
            return 70 + (math.log10(r) - lg0) / (lg1 - lg0) * 550

        assert centres == pytest.approx([at(1e-7), at(800.0)], abs=1e-3)
        ticks = re.findall(r'<text x="([\d.]+)" y="408"[^>]*>([^<]*)<', text)
        assert ticks == [("70", "1e-07"), ("620", "800")]
        points = text.split('points="')[1].split('"')[0].split()
        contour = record.summary["contour"]
        assert len(points) == len(contour) == 99
        for pt, (r, _) in zip(points, contour):
            assert float(pt.split(",")[0]) == pytest.approx(at(r), abs=1e-3)

    def test_log_line_chart_puts_the_geometric_mean_at_the_centre(
            self, tmp_path):
        sc = tiny_curve_scenario(sweep=Sweep("r", 1e-8, 10.0, 41,
                                             scale="log"))
        run(sc, output=str(tmp_path / "curve.csv"), svg=True)
        text = (tmp_path / "curve.svg").read_text()
        ticks = re.findall(r'<text x="([\d.]+)" y="408"[^>]*>([^<]*)<', text)
        assert ticks == [("70", "1e-08"), ("345", "0.000316228"),
                         ("620", "10")]
        # the 41 points are evenly spaced on the log axis
        first = text.split('points="')[1].split('"')[0].split()
        assert [float(p.split(",")[0]) for p in first] == pytest.approx(
            [70 + 550 * k / 40 for k in range(41)], abs=1e-3)

    @pytest.mark.parametrize("ys, low", [
        ([-0.0, 0.0, 1.0], "-0"), ([0.0, -0.0, 1.0], "0"),
        ([1.0, 0.0, -0.0], "0"), ([1.0, -0.0, 0.0], "-0")])
    def test_line_chart_range_is_the_first_least_value(self, ys, low):
        # -0.0 == 0.0: the least y is the first of them, as min() takes it
        text = svgplot.line_chart(np.array([0.0, 1.0, 2.0]),
                                  {"E": np.array(ys)})
        ticks = re.findall(r'text-anchor="end">([^<]*)<', text)
        assert ticks == [low, "0.5", "1"]

    def test_heatmap_contour_line_is_pinned(self):
        text = svgplot.heatmap([0.0, 0.5, 1.0, 1.5, 3.0], [0.0, 0.1, 0.3],
                               [[0.2, 0.4, 0.6, 0.8, 1.0]] * 3,
                               contour=((0.123456789, 0.0), (0.7, 0.05),
                                        (1.25, 0.1), (2.9999, 0.3),
                                        (-0.0, 0.2)))
        lines = [ln for ln in text.splitlines()
                 if ln.startswith("<polyline")]
        assert lines == [
            '<polyline fill="none" stroke="black" stroke-width="1.5" '
            'points="92.6337,390 198.333,328.333 299.167,266.667 619.982,20 '
            '70,143.333"/>']


class TestCellKernel:
    """``cli._cells`` writes what ``"%.11e" % v`` writes, value by value."""

    @staticmethod
    def assert_exact(values):
        x = np.asarray(values, dtype=float)
        cells = [c.replace(b"\0", b"").decode()
                 for c in cli._cells(x, 0).tolist()]
        assert cells == ["%.11e" % v for v in x.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(1, 64), elements=st.floats()))
    def test_any_floats(self, x):
        self.assert_exact(x)

    def test_twelve_digit_ties(self):
        # decimal ties in the 13th significant digit: the nearest float
        # lies within 2**-53 relative of the tie, on either side
        rng = np.random.default_rng(18)
        ties = [float(f"{lead}.{rest:011d}5e{k}")
                for k in range(-300, 301)
                for lead, rest in zip(rng.integers(1, 10, 8).tolist(),
                                      rng.integers(0, 10**11, 8).tolist())]
        # exact binary ties, which "%" rounds half to even: 13-digit
        # integers ending in 5, and odd multiples of 2**-p with 13 digits
        ties += [1234567890125.0, 1234567890135.0, 9999999999995.0]
        ties += [x for x in (k * 2.0**-p for p in range(64)
                             for k in range(1, 64, 2))
                 if len(Decimal(x).normalize().as_tuple().digits) == 13]
        self.assert_exact(ties + [-t for t in ties])

    def test_powers_of_ten_and_their_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-307, 309)])
        x = np.concatenate([p, np.nextafter(p, 0.0),
                            np.nextafter(p, math.inf)])
        self.assert_exact(np.concatenate([x, -x]))

    def test_special_values(self):
        tiny = np.finfo(float).tiny
        self.assert_exact([0.0, -0.0, 5e-324, -5e-324, np.nextafter(tiny, 0.0),
                           tiny, np.finfo(float).max, -np.finfo(float).max,
                           math.nan, math.inf, -math.inf])

    def test_a_large_grid_peaks_far_below_its_file_size(self, tmp_path):
        # the writer sends each formatted block to the file, so nothing of
        # the grid's text size is held
        v = np.linspace(0.0, 3.0, 1001).tolist()
        E = np.random.default_rng(7).uniform(0.0, 2.0, (1001, 1001))
        record = cli.RunRecord(
            scenario_digest="ab" * 32, tool_version="0.0", wall_time_s=0.0,
            columns=["r", "gamma_over_G", "E"],
            points=cli._GridPoints("r", "gamma_over_G", v, v, E),
            warnings=[], summary={})
        path = tmp_path / "grid.csv"
        tracemalloc.start()
        try:
            cli._write_csv(str(path), record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with path.open("rb") as fh:
            assert sum(1 for _ in fh) == 1001 * 1001 + 3
        assert peak < 0.25 * path.stat().st_size


class TestPolylineKernel:
    """``svgplot._points`` writes what the ``"%.6g"`` template writes."""

    # the ends of the kernel's range [10, 1000), values whose rounding to
    # six digits carries into a seventh, and odd multiples of 2**-6, whose
    # sixth digit is an exact decimal tie that "%" rounds half to even
    SPECIAL = [10.0, 100.0, 1000.0, 99.99995, 999.9995, 78.59375,
               np.nextafter(10.0, 0.0), np.nextafter(1000.0, 0.0),
               np.nextafter(100.0, 0.0), 99.999949999, 999.99949999]
    TIES = st.integers(640, 63999).map(lambda k: k / 64)
    # values next to a decimal tie in the sixth digit
    NEAR_TIES = st.one_of(
        st.integers(100000, 999999).map(lambda k: (k + 0.5) / 1e4),
        st.integers(100000, 999999).map(lambda k: (k + 0.5) / 1e3))

    @staticmethod
    def assert_exact(px, py):
        px, py = np.asarray(px, dtype=float), np.asarray(py, dtype=float)
        assert svgplot._points(px, py) == " ".join(
            f"{x:.6g},{y:.6g}" for x, y in zip(px.tolist(), py.tolist()))

    @staticmethod
    def polyline(data, values):
        """Up to 64 drawn values, repeated to 1-160 points as x and y: on
        both sides of the kernel's size threshold (50 points)."""
        drawn = data.draw(arrays(np.float64, st.integers(1, 64),
                                 elements=values))
        n = data.draw(st.integers(1, 160))
        return np.resize(drawn, (2, n))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_in_the_kernel_range(self, data):
        self.assert_exact(*self.polyline(data, st.one_of(
            st.floats(10.0, 1000.0, exclude_max=True),
            st.sampled_from(self.SPECIAL), self.TIES, self.NEAR_TIES)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_range(self, data):
        self.assert_exact(*self.polyline(data, st.one_of(
            st.floats(0.0, 1100.0), st.sampled_from(self.SPECIAL),
            self.TIES)))

    def test_every_tie_of_the_grid(self):
        x = np.arange(640, 64000) / 64
        self.assert_exact(x, x[::-1])


class TestPresets:
    def test_fig3a_structure(self):
        sc = PRESETS["fig3a"]()
        assert sc.mode == "curve"
        assert len(sc.cases) == 3
        assert sc.sweep.points == 301
        assert (sc.sweep.start, sc.sweep.stop) == (0.0, 3.0)
        assert sc.params["gamma_over_G"] == 0.1

    def test_fig3b_structure(self):
        sc = PRESETS["fig3b"]()
        ns = [case["n"] for case in sc.cases]
        assert ns == [100.0, 600.0, 1000.0]
        assert sc.sweep.stop == 10.0

    def test_inset_damping_grid(self):
        sc = PRESETS["inset"]()
        assert sc.mode == "n-threshold"
        values = sc.sweep.values()
        assert values == pytest.approx([0.05, 0.1, 0.2], rel=1e-12)

    def test_fig4_grid(self):
        sc = PRESETS["fig4"]()
        assert sc.mode == "heatmap"
        assert sc.sweep.points == sc.sweep2.points == 201
        assert sc.sweep2.variable == "gamma_over_G"


    def test_fig4_stages_peak_far_below_the_grid_copies(self, tmp_path):
        # the witness runs on the grid's axes, the CSV blocks count every
        # column and the heatmap ramp goes straight into the image, so no
        # stage holds copies of the 201 x 201 grid (one is 0.32 MB)
        sc = PRESETS["fig4"]()
        record = run(sc, output=str(tmp_path / "run.csv"))

        def peak_mb(fn, *args) -> float:
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()

        assert peak_mb(steering.steering_region, sc.sweep.values(),
                       sc.sweep2.values(), 0.0, 0.0) < 3.0
        assert peak_mb(cli._write_csv, str(tmp_path / "fig4.csv"),
                       record) < 1.5
        assert peak_mb(cli._write_svg, str(tmp_path / "fig4.svg"), sc,
                       record) < 1.5


# the refusal edges of the runners: a scenario, the warning lines of its CSV,
# the NaN cells of each row that has one (None: every column but the swept
# one) and the exit code
EDGE_KNOBS = {"kind": "ratios", "gamma_over_G": 0.1, "G1_over_G2": 1.5,
              "n0": 0.5, "n": 5.0}
EDGE_R = {"variable": "r", "start": 353.0, "stop": 356.0, "points": 4}
FAR_R = {"variable": "r", "start": 1.0, "stop": 1.7e308, "points": 3}
LOG_GAMMA = {"variable": "gamma_over_G", "start": 0.001, "stop": 1.5,
             "points": 9, "scale": "log"}
OVERFLOW = "closed-form moments overflow at pulse area r = {}"
KERNEL = "output kernel normalization overflows at G*tau = {}"
CAP = ("steering survives past the n = 1e+06 search cap for gamma/G = {}; in "
       "the zero-damping limit it survives any bath occupation")
WARM = ("no collective steering over all of (0, 10.0] for a warm mirror: E "
        "tends to n0 + 1/2 > 1/2 as r -> 0 (n0 = 0.5)")
BAD_GAMMA = ("point 8 (gamma_over_G=1.5): gamma_over_G must be in (0, 1), "
             "got 1.5")
GAMMAS = ["0.001", "0.00249466", "0.00622333", "0.0155251", "0.0387298",
          "0.0966178", "0.241029", "0.601284"]
EDGE_WARNINGS = [f"point {i} (r={r}): " + OVERFLOW.format(f"{r}.0")
                 for i, r in ((2, 355), (3, 356))]
MC = ["cross_corr_mc", "cross_corr_mc_se"]
REFUSAL_EDGES = {
    "validate-oracle": (
        {"mode": "validate-oracle", "params": EDGE_KNOBS, "sweep": EDGE_R},
        EDGE_WARNINGS, {2: None, 3: None}, 3),
    "cross-correlation": (
        {"mode": "cross-correlation", "engine": "closedform",
         "params": EDGE_KNOBS, "sweep": EDGE_R},
        EDGE_WARNINGS, {2: None, 3: None}, 0),
    "n-threshold-cold": (
        {"mode": "n-threshold", "params": {"kind": "ratios", "n0": 0.0},
         "sweep": LOG_GAMMA},
        [f"point {i} (gamma_over_G={x}): " + CAP.format(full)
         for i, x, full in ((0, GAMMAS[0], "0.001"),
                            (1, GAMMAS[1], "0.0024946602519952056"),
                            (2, GAMMAS[2], "0.006223329772884784"))]
        + [BAD_GAMMA], dict.fromkeys([0, 1, 2, 8]), 0),
    "n-threshold-warm": (
        {"mode": "n-threshold", "params": {"kind": "ratios", "n0": 0.5},
         "sweep": LOG_GAMMA},
        [f"point {i} (gamma_over_G={x}): {WARM}"
         for i, x in enumerate(GAMMAS)] + [BAD_GAMMA],
        dict.fromkeys(range(9)), 0),
    "sampler": (
        {"mode": "cross-correlation", "engine": "both", "trajectories": 1000,
         "params": {"kind": "ratios", "gamma_over_G": 0.1},
         "sweep": {"variable": "r", "start": 0.0, "stop": 356.0,
                   "points": 3}},
        ["point 0 (r=0, mc): tau must be > 0, got 0.0",
         "point 2 (r=356): " + OVERFLOW.format("356.0"),
         "point 2 (r=356, mc): " + KERNEL.format("356")], {0: MC, 2: None}, 0),
    "far-curve": (
        {"mode": "curve", "engine": "both",
         "params": {"kind": "ratios", "gamma_over_G": 0.1}, "sweep": FAR_R},
        [f"point {i} (r={r}, E): " + KERNEL.format(r)
         for i, r in ((1, "8.5e+307"), (2, "1.7e+308"))],
        {1: ["E_oracle"], 2: ["E_oracle"]}, 0),
    "far-sampler": (
        {"mode": "cross-correlation", "engine": "oracle", "trajectories": 1000,
         "params": {"kind": "ratios", "gamma_over_G": 0.1}, "sweep": FAR_R},
        [f"point {i} (r={r}{tag}): " + refusal.format(r)
         for i, r in ((1, "8.5e+307"), (2, "1.7e+308"))
         for tag, refusal in (("", OVERFLOW), (", mc", KERNEL))],
        {1: None, 2: None}, 0),
}


class TestEntryPoint:
    def test_run_command(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        out = tmp_path / "result.csv"
        cfg.write_text(tiny_curve_scenario().to_json())
        code = cli.main(["run", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        assert out.exists()

    def test_config_error_is_machine_readable(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{\"mode\": \"curve\"}")
        code = cli.main(["run", "--config", str(cfg)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("args, path", [
        (["inset", "--run"], "missing/x.csv"),
        (["inset", "--run", "--format", "json"], "missing/x.csv"),
        (["inset", "--run", "--svg"], "missing/x.csv"),
        (["inset"], "missing/x.csv"),
        (["inset", "--run", "--svg"], "x.svg"),
        (["fig4", "--run"], "x.contour.csv"),
    ], ids=["csv", "json", "svg-missing-dir", "scenario", "svg", "contour"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch,
                                       args, path):
        # a missing directory, or a directory where an output file goes, is
        # one JSON line on stderr that names the path, not a traceback
        monkeypatch.chdir(tmp_path)
        missing = path.startswith("missing/")
        if not missing:
            Path(path).mkdir()
        output = path if missing else "x.csv"
        assert cli.main(["preset", *args, "--output", output]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"cannot write {path!r}: ")

    @pytest.mark.parametrize("args, path", [
        (["inset", "--run"], "missing/x.csv"),
        (["inset", "--run", "--format", "json"], "missing/x.csv"),
        (["inset", "--run", "--svg"], "missing/x.csv"),
        (["inset", "--run"], "x.csv"),
        (["inset", "--run", "--svg"], "x.svg"),
        (["fig4", "--run"], "x.contour.csv"),
    ], ids=["csv", "json", "svg-missing-dir", "csv-dir", "svg", "contour"])
    def test_unwritable_output_fails_before_computing(
            self, tmp_path, capsys, monkeypatch, args, path):
        # the table, contour and SVG paths are checked before any point is
        # computed, and a refused run writes none of its files
        def computed(*args, **kwargs):
            pytest.fail("the scenario ran")

        monkeypatch.setattr(steering, "noise_threshold", computed)
        monkeypatch.setattr(steering, "steering_region", computed)
        monkeypatch.chdir(tmp_path)
        missing = path.startswith("missing/")
        if not missing:
            Path(path).mkdir()
        output = path if missing else "x.csv"
        assert cli.main(["preset", *args, "--output", output]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith(f"cannot write {path!r}: ")
        assert [p.name for p in tmp_path.iterdir()] == ([] if missing
                                                        else [path])

    @pytest.mark.parametrize("edit", [
        {"cases": [1]},
        {"params": {"kind": "ratios", "n0": "abc"}},
        {"tolerances": {"r_max": "x"}},
        {"mode": "validate-adiabatic", "params": {"kappa_over_g": ["a"]}},
        {"sweep": {"variable": "r", "start": 0.0, "stop": math.inf,
                   "points": 3}},
        {"params": {"kind": "ratios", "n0": True}},
        {"params": {"kind": "ratios", "n0": 10 ** 400}},
        {"params": {"kind": "ratios", "n0": "0.5"}},
        {"mode": "cross-correlation", "engine": "oracle",
         "trajectories": 10},
        {"output": 1}, {"output": True}, {"output": 7}, {"output": ["a"]},
        {"schema_version": True}, {"schema_version": 1.0},
        {"mode": ["curve"]},
        {"sweep": {"variable": "r", "start": 0.5, "stop": 2.0, "points": 4},
         "cases": [{"r": 3.0}]},
        {"sweep": {"variable": "tau", "start": 0.5, "stop": 2.0,
                   "points": 4}, "cases": [{"r": 3.0}]},
    ], ids=["case-not-object", "ratio-not-number", "tolerance-not-number",
            "kappa-over-g-not-number", "infinite-sweep", "bool-occupation",
            "huge-integer-occupation", "string-occupation",
            "too-few-trajectories", "output-one", "output-true",
            "output-integer", "output-list", "schema-version-bool",
            "schema-version-float", "mode-not-string", "case-sets-swept-r",
            "case-sets-r-under-tau"])
    def test_malformed_scenarios_exit_2(self, tmp_path, capsys, edit):
        doc = {**tiny_curve_scenario().to_dict(), **edit}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "result.csv"
        code = cli.main(["run", "--config", str(cfg), "--output", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_threads_flag_is_not_an_option(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(tiny_curve_scenario().to_json())
        out = tmp_path / "result.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(cfg), "--output", str(out),
                      "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, args", [
        ({"seed": 1.7}, []), ({"seed": True}, []),
        ({"seed": 2 ** 64 + 1}, []), ({"seed": -1}, []),
        ({}, ["--seed", str(2 ** 64)]),
        ({"trajectories": 1000.9}, []), ({"trajectories": False}, []),
        ({"tolerances": {"oracle_tol": -1.0}, "engine": "oracle"}, []),
        ({"tolerances": {"oracle_tol": 0}, "mode": "validate-adiabatic",
          "params": {"kappa_over_g": [10.0, 20.0]}}, []),
    ], ids=["seed-float", "seed-bool", "seed-above-64-bits", "seed-negative",
            "seed-override-above-64-bits", "trajectories-float",
            "trajectories-bool", "oracle-tol-negative-curve",
            "oracle-tol-zero-adiabatic"])
    def test_bad_seeds_trajectories_and_oracle_tol_exit_2(
            self, tmp_path, capsys, edit, args):
        doc = {**tiny_curve_scenario().to_dict(), **edit}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "result.csv"
        code = cli.main(["run", "--config", str(cfg), "--output", str(out),
                         *args])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("sweep", [
        {"variable": "r", "start": 0.0, "stop": 2.0, "points": 3.7},
        {"variable": "r", "start": 0.0, "stop": 2.0, "points": "4"},
        {"variable": "r", "start": 0.0, "stop": 2.0, "points": True},
        {"variable": "r", "start": True, "stop": 2.0, "points": 3},
        {"variable": "r", "start": "0.5", "stop": 2.0, "points": 3},
        {"variable": "r", "start": 0.1, "stop": 2.0, "points": 3,
         "scael": "log"},
        {"variable": "r", "start": 0.0, "stop": 2.0},
        [0.0, 2.0, 3],
        {"variable": "r", "start": -1e308, "stop": 1e308, "points": 3},
    ], ids=["points-float", "points-string", "points-bool", "start-bool",
            "start-string", "misspelt-scale", "points-missing",
            "not-an-object", "width-overflows"])
    def test_malformed_sweep_blocks_exit_2(self, tmp_path, capsys, sweep):
        doc = {**tiny_curve_scenario().to_dict(), "sweep": sweep}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "result.csv"
        code = cli.main(["run", "--config", str(cfg), "--output", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("tolerances", [
        {"n_tol": 0}, {"n_tol": -0.5}, {"r_max": 0.0}, {"r_max": -1}],
        ids=["n-tol-zero", "n-tol-negative", "r-max-zero", "r-max-negative"])
    def test_threshold_search_bounds_exit_2(self, tmp_path, capsys,
                                            tolerances):
        doc = {**PRESETS["inset"]().to_dict(), "tolerances": tolerances}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "result.csv"
        with deadline(20):
            code = cli.main(["run", "--config", str(cfg), "--output",
                             str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["reduced", "physical"])
    @pytest.mark.parametrize("rate", ["inf MHz", "nan Hz", math.inf,
                                      "1e300 THz"],
                             ids=["inf-unit", "nan-unit", "json-infinity",
                                  "overflowing-unit"])
    def test_non_finite_rates_exit_2(self, tmp_path, capsys, kind, rate):
        if kind == "reduced":
            doc = {**tiny_curve_scenario().to_dict(), "params": {
                "kind": "reduced", "g1": rate, "g2": "40.7 MHz",
                "kappa": "500 MHz", "Delta": "500 MHz", "gamma": "35 kHz",
                "n0": 0.85, "n": 0.85, "tau": 1e-7}}
        else:
            doc = {"schema_version": 1, "mode": "working-point",
                   "params": device_params(gamma=rate)}
        assert_exit_2(tmp_path, capsys, doc)

    @pytest.mark.parametrize("kind", ["reduced", "physical"])
    def test_unknown_rate_params_exit_2(self, tmp_path, capsys, kind):
        # a key the block does not define, such as a misspelt occupation,
        # is refused as in a ratios block, not ignored
        if kind == "reduced":
            doc = {**tiny_curve_scenario().to_dict(), "params": {
                "kind": "reduced", "g1": "40.7 MHz", "g2": "40.7 MHz",
                "kappa": "500 MHz", "Delta": "500 MHz", "gamma": "35 kHz",
                "n0": 0.85, "n": 0.85, "tau": 1e-7, "n_bath": 5.0}}
        else:
            doc = {"schema_version": 1, "mode": "working-point",
                   "params": {**device_params(), "n_bath": 5.0}}
        assert_exit_2(tmp_path, capsys, doc)

    @pytest.mark.parametrize("mode", ["heatmap", "n-threshold",
                                      "validate-oracle", "validate-adiabatic",
                                      "working-point"])
    @pytest.mark.parametrize("engine", ["oracle", "both"])
    def test_engine_in_a_closed_form_mode_exits_2(self, tmp_path, capsys,
                                                  mode, engine):
        if mode == "heatmap":
            doc = PRESETS["fig4"]().to_dict()
        elif mode == "n-threshold":
            doc = PRESETS["inset"]().to_dict()
        elif mode == "validate-oracle":
            doc = {**tiny_curve_scenario().to_dict(), "mode": mode}
            del doc["cases"]
        elif mode == "validate-adiabatic":
            doc = {"schema_version": 1, "mode": mode,
                   "params": {"kind": "ratios", "kappa_over_g": [10.0, 20.0]}}
        else:
            doc = {"schema_version": 1, "mode": mode,
                   "params": device_params()}
        Scenario.from_dict(doc)  # valid with the default engine
        assert_exit_2(tmp_path, capsys, {**doc, "engine": engine})

    @pytest.mark.parametrize("tolerances", [
        {"oracle_rell": 1e-3}, {"oracle_tol": 1e-9},
        {"oracle_rel": 1e-6, "r_maks": 8.0}],
        ids=["misspelt-oracle-rel", "oracle-tol", "one-of-two-misspelt"])
    def test_unknown_tolerances_exit_2(self, tmp_path, capsys, tolerances):
        doc = {**tiny_curve_scenario().to_dict(), "tolerances": tolerances}
        assert_exit_2(tmp_path, capsys, doc)

    @pytest.mark.parametrize("cases", [
        [{"label": "a", "n0": 0.0}, {"label": "a", "n0": 1.0}],
        [{"label": "case1", "n0": 0.0}, {"n0": 1.0}],
        [{}, {}]],
        ids=["same-label", "label-equals-default", "two-empty-cases"])
    def test_repeated_case_labels_exit_2(self, tmp_path, capsys, cases):
        doc = {**tiny_curve_scenario().to_dict(), "cases": cases}
        assert_exit_2(tmp_path, capsys, doc)

    @pytest.mark.parametrize("mode, edit", [
        ("working-point", {"sweep": SMALL_SWEEP}),
        ("working-point", {"cases": [{"label": "a", "n0": 1.0}]}),
        ("working-point", {"tolerances": {"r_max": 8.0}}),
        ("heatmap", {"cases": [{"label": "a", "n0": 5.0}]}),
        ("heatmap", {"tolerances": {"r_max": 8.0}}),
        ("curve", {"sweep2": {**SMALL_SWEEP, "variable": "gamma_over_G"}}),
        ("cross-correlation",
         {"sweep2": {**SMALL_SWEEP, "variable": "gamma_over_G"}}),
        ("validate-adiabatic", {"sweep": SMALL_SWEEP}),
        ("validate-oracle", {"tolerances": {"oracle_rel": 0}}),
        ("validate-oracle", {"tolerances": {"oracle_rel": -1}}),
        ("validate-adiabatic", {"tolerances": {"adiabatic_rel": 0}}),
        ("validate-adiabatic", {"tolerances": {"adiabatic_rel": -1}}),
        ("working-point", {"tolerances": {"fixed_point_tol": 0}}),
        ("working-point", {"tolerances": {"fixed_point_tol": -1}}),
        # validate-adiabatic sets kappa from its ladder, at equal gains
        ("validate-adiabatic", {"params": {
            "kind": "ratios", "G1_over_G2": 3.0, "kappa_over_g": [10.0]}}),
        ("validate-adiabatic", {"params": {
            "kind": "ratios", "kappa": 20.0, "kappa_over_g": [10.0]}}),
        ("validate-adiabatic", {"params": {
            "kind": "reduced", "g1": "50 MHz", "g2": "40.7 MHz",
            "kappa": "500 MHz", "Delta": "500 MHz", "gamma": "35 kHz",
            "n0": 0.85, "n": 0.85, "tau": 1e-7, "kappa_over_g": [10.0]}}),
    ], ids=["working-point-sweep", "working-point-cases",
            "working-point-r-max", "heatmap-cases", "heatmap-r-max",
            "curve-sweep2", "cross-correlation-sweep2",
            "validate-adiabatic-sweep", "oracle-rel-zero",
            "oracle-rel-negative", "adiabatic-rel-zero",
            "adiabatic-rel-negative", "fixed-point-tol-zero",
            "fixed-point-tol-negative", "adiabatic-unequal-gains",
            "adiabatic-kappa-knob", "adiabatic-reduced-unequal-gains"])
    def test_fields_the_mode_does_not_read_exit_2(self, tmp_path, capsys,
                                                  mode, edit):
        doc = valid_doc(mode)
        Scenario.from_dict(doc)  # valid without the edit
        assert_exit_2(tmp_path, capsys, {**doc, **edit})

    def test_preset_seed_override_is_validated_before_emission(
            self, tmp_path, capsys):
        out = tmp_path / "scenario.json"
        code = cli.main(["preset", "inset", "--seed", str(2 ** 64),
                         "--output", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_oracle_overflow_becomes_nan_rows(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "mode": "curve", "engine": "oracle",
            "params": {"kind": "ratios", "gamma_over_G": 0.1},
            "sweep": {"variable": "r", "start": 300.0, "stop": 400.0,
                      "points": 5}}))
        out = tmp_path / "result.csv"
        code = cli.main(["run", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        warnings = [ln for ln in lines if ln.startswith("# warning:")]
        assert [w.split(":")[1].strip() for w in warnings] == [
            "point 3 (r=375, E)", "point 4 (r=400, E)"]
        assert all("overflows" in w for w in warnings)
        assert [row.split(",")[1] for row in lines[-2:]] == ["nan", "nan"]

    def test_closed_form_overflow_becomes_nan_rows(self, tmp_path):
        for mode in ("cross-correlation", "validate-oracle"):
            sc = Scenario(mode=mode,
                          params={"kind": "ratios", "gamma_over_G": 0.1},
                          sweep=Sweep("r", 300.0, 400.0, 5))
            out = tmp_path / f"{mode}.csv"
            record = run(sc, output=str(out))
            assert record.warnings == [
                f"point {i} (r={r}): closed-form moments overflow at pulse "
                f"area r = {r}.0" for i, r in ((3, 375), (4, 400))]
            for p in record.points:
                assert all(math.isnan(p[c]) for c in record.columns[1:]) \
                    == (p["r"] > 354.9)
            assert out.read_text().splitlines()[-1].endswith(",nan")

    @pytest.mark.parametrize("name", sorted(REFUSAL_EDGES))
    def test_refusal_edges_warn_and_stay_silent(self, tmp_path, capsys, name):
        # each edge's CSV names every refused point once and holds NaN in
        # its cells, the run exits with its mode's code, and Python warnings
        # as errors stop nothing and print nothing
        doc, warned, nan, code = REFUSAL_EDGES[name]
        cfg, out = tmp_path / "edge.json", tmp_path / "edge.csv"
        cfg.write_text(json.dumps({"schema_version": 1, **doc}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", "--config", str(cfg), "--output",
                             str(out)]) == code
        assert capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert [ln.removeprefix("# warning: ") for ln in lines
                if ln.startswith("# warning: ")] == warned
        header, *rows = [ln.split(",") for ln in lines if ln[0] != "#"]
        assert len(rows) == doc["sweep"]["points"]
        assert {i: [c for c, cell in zip(header, row) if cell == "nan"]
                for i, row in enumerate(rows) if "nan" in row} \
            == {i: cols or header[1:] for i, cols in nan.items()}

    @pytest.mark.parametrize("doc", [
        # the refusal edges of the four closed-form runners: the curve of
        # test_knob_and_oracle_refusals_interleave_by_point, a heatmap with
        # 960 refused cells, and two of the refusal-edge table
        {"mode": "curve", "engine": "both",
         "params": {"kind": "ratios", "gamma_over_G": 0.1},
         "sweep": {"variable": "r", "start": 353.0, "stop": 356.0,
                   "points": 4},
         "cases": [{"label": "warm", "n0": -1.0},
                   {"label": "cold", "n": 0.0}]},
        TestFileFormats.BIG_HEATMAP.to_dict(),
        REFUSAL_EDGES["validate-oracle"][0],
        REFUSAL_EDGES["cross-correlation"][0],
    ], ids=["curve", "heatmap", "validate-oracle", "cross-correlation"])
    def test_refused_cells_make_no_float_closed_form_call(self, monkeypatch,
                                                          doc):
        # every closed-form call is an array call, also where a cell is
        # refused: its warning is read from its inputs, not re-run
        calls = []
        for name in ("collective_steering_value", "output_block",
                     "_w_moments", "single_steering_value"):
            def spy(*args, _name=name, _f=getattr(closedform, name), **kw):
                calls.append((_name, any(isinstance(v, np.ndarray) for v in
                                         (*args, *kw.values()))))
                return _f(*args, **kw)

            for module in (closedform, steering):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy)
        record = run(Scenario.from_dict({"schema_version": 1, **doc}))
        assert record.warnings and calls
        assert [name for name, array in calls if not array] == []

    def test_single_witness_overflow_becomes_nan_rows(self, tmp_path):
        # 4 f y^2 with y = x (n + 1) leaves the float range in the
        # single-mode witness while the collective witness, whose square
        # carries x^2, is still finite: NaN rows, no traceback
        n = 1.5e155
        assert math.isfinite(collective_steering_value(0.5, 0.1, 0.0, n))
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({**valid_doc("validate-oracle"), "params": {
            "kind": "ratios", "gamma_over_G": 0.1, "n0": 0.0, "n": n}}))
        out = tmp_path / "result.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "steerkit", "run",
             "--config", str(cfg), "--output", str(out)],
            capture_output=True, text=True, env=src_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (3, "")
        lines = out.read_text().splitlines()
        assert [ln for ln in lines if ln.startswith("# warning:")] == [
            f"# warning: point {i} (r={r:g}): a term leaves the float "
            f"range at (r, gamma_over_G, n0, n, Gj_over_G) = "
            f"({r!r}, 0.1, 0.0, 1.5e+155, 0.55)"
            for i, r in ((0, 0.5), (1, 1.0))]
        assert all(row.split(",")[1:] == ["nan"] * 10 for row in lines[-2:])

    def test_validate_oracle_with_a_failed_later_point_is_not_validated(
            self):
        sc = Scenario(mode="validate-oracle",
                      params={"kind": "ratios", "gamma_over_G": 0.1},
                      sweep=Sweep("r", 1.0, 400.0, 2))
        record = run(sc)
        assert record.points[0]["max_rel"] < 1e-6
        assert math.isnan(record.points[1]["max_rel"])
        assert record.warnings[0].startswith("point 1 (r=400): ")
        assert not record.summary["validated"]
        assert record.exit_code == 3

    @pytest.mark.parametrize("params, sweep, failed, expect", [
        # the first two points fail; the rest read ~1e-13
        ({"gamma_over_G": 0.1, "r": 1.0}, Sweep("n", -1.0, 1.0, 5), [0, 1],
         1.3594591848657277e-13),
        # the last two points fail; the rest read 1 (the witness floor)
        ({"gamma_over_G": 0.1, "G1_over_G2": 1.5}, Sweep("r", 353.0, 356.0, 4),
         [2, 3], 1.0),
        # no point resolves
        ({"gamma_over_G": 0.1, "r": 1.0}, Sweep("n", -2.0, -1.0, 2), [0, 1],
         math.nan),
    ], ids=["first-failed", "last-failed", "all-failed"])
    def test_max_rel_discrepancy_is_over_the_resolved_rows(
            self, params, sweep, failed, expect):
        sc = Scenario(mode="validate-oracle",
                      params={"kind": "ratios", **params}, sweep=sweep)
        record = run(sc)
        rels = [p["max_rel"] for p in record.points]
        assert [i for i, rel in enumerate(rels) if math.isnan(rel)] == failed
        got = record.summary["max_rel_discrepancy"]
        assert got == expect or math.isnan(got) and math.isnan(expect)
        assert [w.split(" (")[0] for w in record.warnings] == [
            f"point {i}" for i in failed]
        assert not record.summary["validated"]
        assert record.exit_code == 3

    def test_preset_emission_and_execution(self, tmp_path):
        out = tmp_path / "scenario.json"
        assert cli.main(["preset", "inset", "--output", str(out)]) == 0
        sc = Scenario.from_json(out.read_text())
        assert sc.mode == "n-threshold"

        result = tmp_path / "curve.csv"
        code = cli.main(["preset", "fig3a", "--run", "--output", str(result)])
        assert code == 0
        assert result.exists()

    def test_validate_command_requires_validation_mode(self, tmp_path,
                                                       capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(tiny_curve_scenario().to_json())
        assert cli.main(["validate", "--config", str(cfg)]) == 2

    def test_json_format_output(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        out = tmp_path / "result.json"
        sc = tiny_curve_scenario()
        cfg.write_text(sc.to_json())
        code = cli.main(["run", "--config", str(cfg), "--output", str(out),
                         "--format", "json"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["scenario_digest"] == sc.digest()
        assert len(doc["points"]) == 11
        # a preset's JSON points are its CSV rows, each cell the %.11e of
        # its point's value
        for name in ("fig3a", "fig4"):
            for fmt in ("csv", "json"):
                assert cli.main(["preset", name, "--run", "--format", fmt,
                                 "--output", str(tmp_path / f"{name}.{fmt}")
                                 ]) == 0
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            with open(tmp_path / f"{name}.csv", newline="") as f:
                header, *rows = csv.reader(ln for ln in f if ln[0] != "#")
            assert header == doc["columns"]
            assert [["%.11e" % p[c] for c in header]
                    for p in doc["points"]] == rows != []

    def test_svg_emission(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        out = tmp_path / "curve.csv"
        cfg.write_text(tiny_curve_scenario().to_json())
        code = cli.main(["run", "--config", str(cfg), "--output", str(out),
                         "--svg"])
        assert code == 0
        svg = (tmp_path / "curve.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    @pytest.mark.parametrize("doc", [
        {"mode": "heatmap", "sweep": {**SMALL_SWEEP, "start": -2.0,
                                      "stop": -1.0},
         "sweep2": {**SMALL_SWEEP, "variable": "n", "start": 0.0,
                    "stop": 0.3}},
        {"mode": "curve", "sweep": {**SMALL_SWEEP, "start": -2.0,
                                    "stop": -1.0}},
    ], ids=["heatmap", "curve"])
    def test_svg_with_nothing_to_plot_is_skipped(self, tmp_path, capsys,
                                                 doc):
        # every cell is NaN (r < 0): the run writes its CSV as without
        # --svg, no SVG, and one warning line on stderr; neither the (r, n)
        # map nor the curve has a contour file
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({**valid_doc(doc["mode"]), **doc}))
        outputs = {}
        for flags in ([], ["--svg"]):
            out = tmp_path / f"plain{len(flags)}.csv"
            code = cli.main(["run", "--config", str(cfg), "--output",
                             str(out), *flags])
            assert code == 0
            outputs[tuple(flags)] = sorted(
                (p.name.replace("plain0", "plain1"), p.read_bytes())
                for p in tmp_path.glob(f"plain{len(flags)}*"))
            err = capsys.readouterr().err
        assert outputs[()] == outputs[("--svg",)]
        assert not list(tmp_path.glob("*.svg"))
        assert not list(tmp_path.glob("*.contour.csv"))
        assert err == (f"steerkit: warning: no finite value to plot; "
                       f"{tmp_path / 'plain1.svg'} not written\n")
        lines = (tmp_path / "plain1.csv").read_text().splitlines()
        assert lines[-1].endswith(",nan")

    def test_oracle_rate_overflow_becomes_nan_rows(self, tmp_path):
        # kappa^2 overflows in reduced_from_ratios at every point
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            **valid_doc("curve"), "engine": "oracle",
            "params": {"kind": "ratios", "gamma_over_G": 0.1,
                       "kappa": 1e308}}))
        out = tmp_path / "result.csv"
        code = cli.main(["run", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert [ln for ln in lines if ln.startswith("# warning:")] == [
            f"# warning: point {i} (r={r}, E): rates leave the float range "
            f"at kappa = 1e+308, Delta_over_kappa = 1.0"
            for i, r in ((0, 0.5), (1, 1))]
        assert [row.split(",")[1] for row in lines[-2:]] == ["nan", "nan"]

    def test_reduced_rate_overflow_is_a_typed_error(self, tmp_path, capsys):
        # kappa^2 overflows in derived_quantities while the params parse
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({**valid_doc("curve"), "params": {
            "kind": "reduced", "g1": "40.7 MHz", "g2": "40.7 MHz",
            "kappa": 1e200, "Delta": "500 MHz", "gamma": "35 kHz",
            "n0": 0.85, "n": 0.85, "tau": 1e-7}}))
        out = tmp_path / "result.csv"
        code = cli.main(["run", "--config", str(cfg), "--output", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidParams"
        assert err["message"].startswith("rates leave the float range")
        assert not out.exists()

    @pytest.mark.parametrize("ratio, code, error", [
        (1e150, 1, "InvalidParams"), (1e155, 2, "ConfigError"),
        (1e-200, 2, "ConfigError")],
        ids=["kappa-squared", "kappa", "kappa-underflow"])
    def test_adiabatic_ladder_overflow_is_a_typed_error(
            self, tmp_path, capsys, ratio, code, error):
        # kappa = (1 + gamma/G) (kappa/g)^2 is 1.1e300 at kappa/g = 1e150,
        # and kappa^2 overflows in reduced_from_ratios; at 1e155 kappa
        # itself overflows while the params parse, and at 1e-200 it
        # underflows to 0 there
        doc = valid_doc("validate-adiabatic")
        doc["params"] = {**doc["params"], "kappa_over_g": [ratio]}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "result.csv"
        assert cli.main(["run", "--config", str(cfg), "--output",
                         str(out)]) == code
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert not out.exists()

    def test_damping_past_the_float_range_becomes_nan_rows(self, tmp_path):
        # 4 x^2 b^2 / (1 + x)^2 is not a float at x = gamma/G = 1e200: each
        # point is NaN with a warning
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            **valid_doc("curve"),
            "params": {"kind": "ratios", "gamma_over_G": 1e200}}))
        out = tmp_path / "result.csv"
        assert cli.main(["run", "--config", str(cfg), "--output",
                         str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [ln for ln in lines if ln.startswith("# warning:")] == [
            f"# warning: point {i} (r={r}, E): a term leaves the float "
            f"range at (r, gamma_over_G, n0, n) = ({float(r)}, 1e+200, 0.0, "
            f"0.0)" for i, r in ((0, 0.5), (1, 1))]
        assert [row.split(",")[1] for row in lines[-2:]] == ["nan", "nan"]

    def test_working_point_past_the_float_range_is_a_typed_error(
            self, tmp_path, capsys):
        # |alpha_j|^2 overflows for drives of 1e200
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({**valid_doc("working-point"), "params":
                                   device_params(E1=1e200, E2=1e200)}))
        out = tmp_path / "result.csv"
        assert cli.main(["run", "--config", str(cfg), "--output",
                         str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InvalidParams", "message":
                       "the drives put the working point past the float "
                       "range at E1 = 1e+200, E2 = 1e+200"}
        assert not out.exists()


def _collect_uses(node: ast.AST, defining: tuple[str, ...],
                  names: set[str], attributes: set[str]) -> None:
    """Add to ``names`` every name loaded, read as an attribute or imported
    under ``node``, and to ``attributes`` every name read as an attribute,
    except inside a definition of that same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        defining += (node.name,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
        if name not in defining:
            attributes.add(name)
    elif isinstance(node, ast.alias):
        name = node.name
    else:
        name = None
    if name is not None and name not in defining:
        names.add(name)
    for child in ast.iter_child_nodes(node):
        _collect_uses(child, defining, names, attributes)


def _definitions(tree: ast.Module):
    """``(name, is_member)`` of each module-level function and class, and of
    each method and property of those classes but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", True


def test_every_export_is_used_outside_the_tests():
    # every def of the package is used by the package, its scripts, the
    # benchmark or the README quick start; a method or property only
    # counts as used when it is read as an attribute
    root = Path(__file__).resolve().parents[1]
    package = Path(steerkit.__file__).parent
    modules = [p for p in sorted(package.glob("*.py"))
               if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(), str(p)) for p in modules
             + sorted((root / "scripts").glob("*.py"))
             + sorted((root / "benchmark").glob("*.py"))}
    trees["README.md"] = ast.parse(quick_start(), "README.md")
    names: set[str] = set()
    attributes: set[str] = set()
    for tree in trees.values():
        _collect_uses(tree, (), names, attributes)
    unused = [f"{path.stem}.{qualname}" for path in modules
              for qualname, member in _definitions(trees[path])
              if qualname.rsplit(".", 1)[-1]
              not in (attributes if member else names)]
    assert unused == []
    assert sorted(set(steerkit.__all__) - names) == []


def test_package_starts_no_threads_or_processes():
    banned = {"concurrent", "threading", "multiprocessing"}
    for path in sorted(Path(steerkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not {n.split(".")[0] for n in names} & banned, \
                f"{path.name} imports {names}"


def test_package_reads_no_environment_variable():
    for path in sorted(Path(steerkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "os":
                assert node.attr not in ("environ", "getenv"), \
                    f"{path.name}:{node.lineno} reads os.{node.attr}"
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                assert not names & {"environ", "getenv"}, \
                    f"{path.name}:{node.lineno} imports {sorted(names)}"


def test_every_benchmark_scenario_is_valid():
    # the schema must keep accepting every document the benchmark emits
    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    docs = [job["scenario"] for name in workloads.WORKLOADS
            for seed in range(3)
            for job in workloads.generate(name, seed, 15)]
    assert len(docs) == 954
    for doc in docs:
        Scenario.from_dict(doc)


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_reproduce_figures_script(tmp_path):
    # silently even with warnings as errors, the script writes the bytes
    # that steerkit preset <name> --run --svg writes
    root = Path(__file__).resolve().parents[1]
    figs, ref = tmp_path / "figs", tmp_path / "ref"
    out = subprocess.run(
        [sys.executable, "-W", "error",
         str(root / "scripts" / "reproduce_figures.py"), str(figs)],
        capture_output=True, text=True, env=src_env(), check=True,
        timeout=120)
    assert out.stderr == ""
    names = ("fig3a", "fig3b", "inset", "fig4")
    assert [ln.split(":")[0] for ln in out.stdout.splitlines()] == list(names)
    assert all(ln.endswith(" ms)") for ln in out.stdout.splitlines())
    ref.mkdir()
    for name in names:
        assert cli.main(["preset", name, "--run", "--svg", "--output",
                         str(ref / f"{name}.csv")]) == 0
        csv_text = (figs / f"{name}.csv").read_text()
        assert csv_text.startswith(
            f"# scenario_digest: {PRESETS[name]().digest()}\n")
        assert (figs / f"{name}.svg").read_text().startswith("<svg")
    written = sorted(p.name for p in figs.iterdir())
    assert written == sorted(p.name for p in ref.iterdir())
    assert len(written) == 9
    for name in written:
        assert (figs / name).read_bytes() == (ref / name).read_bytes(), name


def test_python_dash_m_runs_the_cli(tmp_path):
    # the package runs as a module, silently even with warnings as errors,
    # and writes what cli.run writes
    out = tmp_path / "inset.csv"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "steerkit", "preset", "inset",
         "--run", "--output", str(out)], capture_output=True, text=True,
        env=src_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    ref = tmp_path / "ref.csv"
    run(PRESETS["inset"](), output=str(ref))
    assert out.read_bytes() == ref.read_bytes()


def test_python_dash_m_runs_the_cli_module(tmp_path):
    # steerkit.cli runs as a module too, with no runpy warning, and writes
    # the bytes that python -m steerkit writes
    outputs = {}
    for module in ("steerkit.cli", "steerkit"):
        out = tmp_path / f"{module}.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", module, "preset", "fig4",
             "--run", "--output", str(out)], capture_output=True, text=True,
            env=src_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs[module] = [out.read_bytes(), out.with_suffix(
            ".contour.csv").read_bytes()]
    assert outputs["steerkit.cli"] == outputs["steerkit"]


# run in a fresh interpreter, as pytest and hypothesis import hashlib
# themselves: a closed-form and an oracle run, then the digests of the
# scenarios on stdin, with the modules loaded by then
FOOTPRINT_SCRIPT = """
import json, sys
from steerkit.cli import Scenario, main
out, config = sys.argv[1:]
codes = [main(["preset", "fig4", "--run", "--output", out + "/fig4.csv"]),
         main(["validate", "--config", config, "--output", out + "/vo.csv"])]
digests = [Scenario.from_dict(doc).digest() for doc in json.load(sys.stdin)]
loaded = sorted({"hashlib", "_hashlib"} & set(sys.modules))
print(json.dumps({"codes": codes, "digests": digests, "loaded": loaded}))
"""


def test_a_closed_form_or_oracle_run_loads_no_openssl(tmp_path):
    """A closed-form run (the fig4 preset) and an oracle run (a small
    validate-oracle sweep) import neither ``hashlib`` nor ``_hashlib``, the
    module that loads OpenSSL: a scenario's digest is the interpreter's
    built-in SHA-256, and equals ``hashlib.sha256`` of its canonical JSON.
    A sampler run is exempt: ``numpy.random`` imports ``secrets``, which
    imports ``hmac``, which loads ``_hashlib``."""
    oracle = replace(TestFileFormats.VALIDATE_ORACLE,
                     sweep=Sweep("r", 0.5, 3.0, 6))
    config = tmp_path / "vo.json"
    config.write_text(oracle.to_json())
    scenarios = [PRESETS[name]() for name in ("fig3a", "fig3b", "inset",
                                              "fig4")] + [
        oracle, tiny_curve_scenario(), TestFileFormats.BIG_HEATMAP,
        TestFileFormats.CLOSED_CROSS_CORRELATION,
        Scenario(mode="cross-correlation", engine="both",
                 params={"kind": "ratios", "gamma_over_G": 0.1},
                 sweep=Sweep("r", 0.5, 1.0, 2), seed=7, trajectories=2000)]
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, str(tmp_path), str(config)],
        input=json.dumps([sc.to_dict() for sc in scenarios]),
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0] and got["loaded"] == []
    canon = [json.dumps(sc.to_dict(), sort_keys=True, separators=(",", ":"))
             for sc in scenarios]
    assert got["digests"] == [hashlib.sha256(c.encode()).hexdigest()
                              for c in canon]


# stdout of scripts/feasibility.py: it reads r_crossing and prints the
# search-cap message of noise_threshold, so it pins both searches' settings
FEASIBILITY_STDOUT = "\n".join([
    "== nanobeam (optical, 3.68 GHz mechanics) ==",
    "  G1 = G2 = 2pi x 1.656 MHz",
    "  gamma/G = 1.068e-02",
    "  minimal pulse area for steering (undamped): r_th = 0.1890",
    "  witness crosses 1/2 at r = 0.1894 with damping and bath noise",
    "  E(r = 0.5) = 0.1826",
    "  E(r = 1.0) = 0.0537",
    "  E(r = 2.0) = 0.0064",
    "  bath threshold (ground-state mirror): n = 419528; operating n = 0.85 "
    "is inside the all-pulse-area window",
    "",
    "== microwave electromechanics ==",
    "  gamma/G = 1.75e-3 (given)",
    "  minimal pulse area for steering (undamped): r_th = 0.1438",
    "  witness crosses 1/2 at r = 0.1540 with damping and bath noise",
    "  E(r = 0.5) = 0.1733",
    "  E(r = 1.0) = 0.0532",
    "  E(r = 2.0) = 0.0066",
    "  bath threshold: steering survives past the n = 1e+06 search cap for "
    "gamma/G = 0.00175; in the zero-damping limit it survives any bath "
    "occupation",
    "", ""])


def test_feasibility_script_output_is_pinned():
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-W", "error", str(root / "scripts" /
                                            "feasibility.py")],
        capture_output=True, text=True, env=src_env(), check=True,
        timeout=120)
    assert out.stdout == FEASIBILITY_STDOUT
    assert out.stderr == ""
