"""Scenario schema, runners, determinism, file formats, entry point."""

import json
import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from steerkit import cli, collective_steering_value, dynamics
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

        def oracle_E(knobs, tol):
            oracle_n.append(knobs["n"])
            return 0.25

        monkeypatch.setattr(cli, "_oracle_E", oracle_E)
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
        assert oracle_n == [2.0, 0.0, 2.0, 0.0, 1.0, 2.0, 1.0]
        first = record.points[0]
        for col in ("E[a]", "E_oracle[a]", "E[c]", "E_oracle[c]"):
            assert math.isnan(first[col])
        assert first["E_oracle[b]"] == 0.25

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

    def test_cross_correlation_threads_reach_only_the_sampler_pool(
            self, tmp_path, monkeypatch):
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(dynamics, "ThreadPoolExecutor", RecordingPool)
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
        assert pools == [2, 2]  # one sampler pool per point, at 2 threads
        assert texts[0] == texts[1]

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
        from steerkit import cross_correlation, derived_from_ratios
        sc = Scenario(
            mode="cross-correlation",
            params={"kind": "ratios", "gamma_over_G": 0.1},
            sweep=Sweep("r", 0.5, 1.0, 2),
        )
        record = run(sc)
        expect = cross_correlation(derived_from_ratios(0.5, 0.1), 0.0, 0.0)
        assert record.points[0]["cross_corr"] == pytest.approx(expect,
                                                               rel=1e-12)


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
        {"mode": "cross-correlation", "engine": "oracle",
         "trajectories": 10},
    ], ids=["case-not-object", "ratio-not-number", "tolerance-not-number",
            "kappa-over-g-not-number", "infinite-sweep", "bool-occupation",
            "too-few-trajectories"])
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
