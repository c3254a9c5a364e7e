"""Scenario schema, runners, determinism, file formats, entry point."""

import ast
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import steerkit
from conftest import deadline
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
        for sc in [tiny_curve_scenario(), PRESETS["fig3a"](),
                   PRESETS["fig4"](), PRESETS["inset"]()]:
            assert Scenario.from_json(sc.to_json()) == sc

    def test_schema_version_is_mandatory(self):
        doc = tiny_curve_scenario().to_dict()
        del doc["schema_version"]
        with pytest.raises(ConfigError):
            Scenario.from_dict(doc)
        doc["schema_version"] = 99
        with pytest.raises(ConfigError):
            Scenario.from_dict(doc)

    def test_sweep_validation(self):
        with pytest.raises(ConfigError):
            Sweep("bogus", 0.0, 1.0, 10).validate()
        with pytest.raises(ConfigError):
            Sweep("r", 1.0, 0.0, 10).validate()
        with pytest.raises(ConfigError):
            Sweep("r", 0.0, 1.0, 1).validate()
        with pytest.raises(ConfigError):
            Sweep("r", 0.0, 1.0, 10, scale="log").validate()

    def test_mode_requirements(self):
        with pytest.raises(ConfigError):
            Scenario(mode="bogus", params={}).validate()
        with pytest.raises(ConfigError):
            Scenario(mode="curve", params={}).validate()  # sweep missing
        with pytest.raises(ConfigError):
            Scenario(mode="heatmap", params={},
                     sweep=Sweep("r", 0.0, 1.0, 5)).validate()

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
            results = sweep(rps, **kw)
            oracle_n.append([rp.n for rp, oc in zip(rps, results)
                             if isinstance(oc, dynamics.OutputCovariance)])
            return results

        monkeypatch.setattr(dynamics, "output_covariances", output_covariances)
        sc = Scenario(
            mode="curve",
            params={"kind": "ratios", "gamma_over_G": 0.1, "r": 0.5},
            sweep=Sweep("n", -1.0, 1.0, 3),
            cases=({"label": "a", "n0": 0.0}, {"label": "b", "n": 2.0},
                   {"label": "c", "n0": 1.0}),
            engine="both",
        )
        record = run(sc)
        assert record.warnings == [
            "point 0 (n=-1, a): n must be >= 0, got -1.0",
            "point 0 (n=-1, c): n must be >= 0, got -1.0",
        ]
        # one oracle sweep per case; the point that failed is not propagated
        assert oracle_n == [[0.0, 1.0], [2.0, 2.0, 2.0], [0.0, 1.0]]
        first = record.points[0]
        for col in ("E[a]", "E_oracle[a]", "E[c]", "E_oracle[c]"):
            assert math.isnan(first[col])
        assert first["E_oracle[b]"] == pytest.approx(first["E[b]"], rel=1e-9)

    def test_oracle_refusal_inside_a_sweep(self):
        # the points past the float range leave the stacked oracle sweep
        # with their own warnings; the rows before them are unchanged
        sc = Scenario(mode="curve",
                      params={"kind": "ratios", "gamma_over_G": 0.1},
                      sweep=Sweep("r", 340.0, 370.0, 4), engine="both")
        text = cli._csv_text(run(sc))
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
            self, gamma_over_G, sweep, rows):
        # below the kernel normalization's limit (r ~ 354.9): a NaN row with
        # a warning, and no numpy warning on stderr
        sc = Scenario(mode="curve",
                      params={"kind": "ratios", "gamma_over_G": gamma_over_G},
                      sweep=sweep, engine="both")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = cli._csv_text(run(sc))
        assert text.split("\n", 2)[2] == rows

    def test_one_oracle_call_per_case(self, monkeypatch):
        calls = []
        sweep = dynamics.output_covariances

        def output_covariances(rps, **kw):
            calls.append(len(rps))
            return sweep(rps, **kw)

        monkeypatch.setattr(dynamics, "output_covariances", output_covariances)
        sc = Scenario(mode="curve",
                      params={"kind": "ratios", "gamma_over_G": 0.1},
                      sweep=Sweep("r", 0.5, 2.5, 5), engine="both",
                      cases=({"label": "a", "n": 0.0},
                             {"label": "b", "n": 5.0}))
        record = run(sc)
        assert calls == [5, 5]
        assert not record.warnings

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

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STEERKIT_THREADS", "2")
        out = tmp_path / "env.csv"
        run(tiny_curve_scenario(), output=str(out))
        ref = tmp_path / "ref.csv"
        monkeypatch.delenv("STEERKIT_THREADS")
        run(tiny_curve_scenario(), output=str(ref))
        assert out.read_bytes() == ref.read_bytes()

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
        from steerkit import cross_correlation
        sc = Scenario(
            mode="cross-correlation",
            params={"kind": "ratios", "gamma_over_G": 0.1},
            sweep=Sweep("r", 0.5, 1.0, 2),
        )
        record = run(sc)
        expect = cross_correlation(0.5, 0.1, 0.0, 0.0)
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
        assert got == [closedform.cross_correlation(r, 0.1, 0.0, 100.0)
                       for r in sc.sweep.values().tolist()]

    def test_validate_oracle_closed_side_is_the_direct_closed_form(
            self, monkeypatch):
        seen = []
        for name in ("moment_set", "collective_steering_value",
                     "single_steering_value"):
            def spy(*args, _fn=getattr(closedform, name), **kwargs):
                seen.append(_fn(*args, **kwargs))
                return seen[-1]
            monkeypatch.setattr(closedform, name, spy)
        sc = Scenario(
            mode="validate-oracle",
            params={"kind": "ratios", "gamma_over_G": 0.1,
                    "G1_over_G2": 1.5, "n0": 0.5, "n": 5.0},
            sweep=Sweep("r", 0.5, 1.0, 3),
        )
        run(sc)
        monkeypatch.undo()
        f1 = (1.0 + 0.1) - (1.0 + 0.1) / (1.0 + 1.5)
        expect = []
        for r in sc.sweep.values().tolist():
            expect += [
                closedform.moment_set(r, 0.1, 0.5, 5.0, G1_over_G2=1.5),
                closedform.collective_steering_value(r, 0.1, 0.5, 5.0),
                closedform.single_steering_value(r, 0.1, 0.5, 5.0, f1)]
        assert seen == expect

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
    def test_csv_bytes_at_the_edges(self):
        nan, inf = math.nan, math.inf
        record = cli.RunRecord(
            scenario_digest="ab" * 32, tool_version="0.0", wall_time_s=0.0,
            columns=["r", "E[n0=0,n=0]", "E_oracle[hot]"],
            points=[{"r": 0.0, "E[n0=0,n=0]": nan, "E_oracle[hot]": inf},
                    {"r": -0.0, "E[n0=0,n=0]": -inf,
                     "E_oracle[hot]": 1e-300},
                    {"r": 2.5, "E[n0=0,n=0]": 0.1,
                     "E_oracle[hot]": -123456.789}],
            warnings=["point 1 (r=0, hot): closed-form moments overflow"],
            summary={"validated": False, "tolerance": 1e-6,
                     "contour": [(1.0, 0.1)]})
        assert cli._csv_text(record) == (
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
         "ed2613f642d34eef57fa6a71420c6585e058024f7009224033122a452acdf724"),
        ("fig4.contour.csv",
         "89e3cb34cb5d2fa23fb48e5c4925db4e334d8778ce336dbeaea1624f89a20256"),
    ])
    def test_fig4_csv_bytes_are_pinned(self, tmp_path, name, digest):
        run(PRESETS["fig4"](), output=str(tmp_path / "fig4.csv"))
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # a 2 x 3 heatmap: out-of-domain cells (n < 0), a -0.0 axis value
    # (linspace makes a -0.0 start +0.0, so it is the stop), and a log r
    # axis over the series (r < 1e-4), direct and asymptote (r > 350) cells
    TINY_HEATMAP = Scenario(
        mode="heatmap",
        params={"kind": "ratios", "gamma_over_G": 0.1, "n0": 0.5},
        sweep=Sweep("n", -0.5, -0.0, 2),
        sweep2=Sweep("r", 5e-5, 400.0, 3, scale="log"))
    TINY_WARNINGS = [f"point {k}: n must be >= 0, got -0.5" for k in (0, 2, 4)]

    def test_heatmap_csv_bytes_at_the_edges(self):
        assert cli._csv_text(run(self.TINY_HEATMAP)) == (
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
        es = (0.9996784174811454, 0.4800220181164984, 0.0049586776859504135)
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

    @pytest.mark.parametrize("name, digest", [
        ("fig4.svg",
         "6aaafa86a9df6069dbe16b7f097f03a1bf8a84258b075b7e04cf61d783c7cfac"),
        ("nonfinite.svg",
         "97219722e3cce45a14242bdeeb76d5d0487e1418806698b36d588247ebc88495"),
        ("constant.svg",
         "5882c123db2e14db5522998bdf21d23829da9906e6a91d57c5884389881ac9eb"),
        ("curve.svg",
         "9f15bbd41f13c7ebac4506aaa713cb6329e3d6873af9adb0e588f7a4adfc1fc2"),
    ])
    def test_svg_bytes_are_pinned(self, tmp_path, name, digest):
        nan, inf = math.nan, math.inf
        path = tmp_path / name
        if name == "fig4.svg":
            run(PRESETS["fig4"](), output=str(tmp_path / "fig4.csv"),
                svg=True)
        elif name == "nonfinite.svg":
            svgplot.heatmap([0.0, 0.5, 1.0, 1.5], [0.0, 0.1, 0.2],
                            [[0.2, nan, 0.7, inf], [-inf, 0.5, 0.45, 1.3],
                             [0.9, 0.25, nan, 0.6]],
                            str(path), x_label="r", y_label="gamma_over_G",
                            contour=((0.4, 0.05), (0.9, 0.15)))
        elif name == "constant.svg":  # hi == lo: every finite cell is t = 1/2
            svgplot.heatmap([1.0, 2.0, 3.0], [0.0, 1.0],
                            [[0.5, 0.5, 0.5], [0.5, nan, 0.5]], str(path))
        else:
            svgplot.line_chart([0.0, 1.0, 2.0, 3.0, 4.0],
                               {"a": [0.1, 0.4, nan, 0.6, 0.5],
                                "b": [0.9, 0.7, 0.5, inf, 0.2]},
                               str(path), x_label="r", hline=0.5)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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
    ], ids=["case-not-object", "ratio-not-number", "tolerance-not-number",
            "kappa-over-g-not-number", "infinite-sweep", "bool-occupation",
            "huge-integer-occupation", "string-occupation",
            "too-few-trajectories", "output-one", "output-true",
            "output-integer", "output-list", "schema-version-bool",
            "schema-version-float"])
    def test_malformed_scenarios_exit_2(self, tmp_path, capsys, edit):
        doc = {**tiny_curve_scenario().to_dict(), **edit}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "result.csv"
        code = cli.main(["run", "--config", str(cfg), "--output", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("threads_arg, env", [
        (["--threads", "0"], None), (["--threads", "-3"], None),
        ([], "abc"), ([], "0")],
        ids=["zero", "negative", "env-not-integer", "env-zero"])
    def test_bad_thread_counts_exit_2(self, tmp_path, capsys, monkeypatch,
                                      threads_arg, env):
        if env is not None:
            monkeypatch.setenv("STEERKIT_THREADS", env)
        cfg = tmp_path / "scenario.json"
        cfg.write_text(tiny_curve_scenario().to_json())
        out = tmp_path / "result.csv"
        code = cli.main(["run", "--config", str(cfg), "--output", str(out),
                         *threads_arg])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
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
    ], ids=["points-float", "points-string", "points-bool", "start-bool",
            "start-string", "misspelt-scale", "points-missing",
            "not-an-object"])
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

    def test_preset_emission_and_execution(self, tmp_path):
        out = tmp_path / "scenario.json"
        assert cli.main(["preset", "inset", "--output", str(out)]) == 0
        sc = Scenario.from_json(out.read_text())
        assert sc.mode == "n-threshold"

        result = tmp_path / "curve.csv"
        code = cli.main(["preset", "fig3a", "--run", "--output", str(result),
                         "--threads", "2"])
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


def _collect_uses(node: ast.AST, defining: tuple[str, ...],
                  used: set[str]) -> None:
    """Add to ``used`` every name loaded, read as an attribute or imported
    under ``node``, except inside a definition of that same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        defining += (node.name,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name
    else:
        name = None
    if name is not None and name not in defining:
        used.add(name)
    for child in ast.iter_child_nodes(node):
        _collect_uses(child, defining, used)


def test_every_export_is_used_outside_the_tests():
    # the package exports only what it or its scripts use
    package = Path(steerkit.__file__).parent
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(scripts.glob("*.py"))
    used: set[str] = set()
    for path in paths:
        _collect_uses(ast.parse(path.read_text(), str(path)), (), used)
    assert sorted(set(steerkit.__all__) - used) == []


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


def test_reproduce_figures_script(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_figures.py"),
         str(tmp_path)], capture_output=True, text=True, env=env,
        check=True, timeout=120)
    names = ("fig3a", "fig3b", "inset", "fig4")
    assert [ln.split(":")[0] for ln in out.stdout.splitlines()] == list(names)
    assert all(ln.endswith(" ms)") for ln in out.stdout.splitlines())
    for name in names:
        csv_text = (tmp_path / f"{name}.csv").read_text()
        assert csv_text.startswith(
            f"# scenario_digest: {PRESETS[name]().digest()}\n")
        assert (tmp_path / f"{name}.svg").read_text().startswith("<svg")
