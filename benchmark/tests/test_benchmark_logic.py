"""Tests of the benchmark's own logic: references, verdicts, generator, tracer.

Run from the repository root with ``python -m pytest benchmark/tests``.
"""

import json
import math

import pytest

import checks
import run
import workloads


@pytest.mark.parametrize("r", [1e-6, 0.3, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("n0", [0.0, 0.5, 7.0])
def test_reference_matches_zero_damping_identity(r, n0):
    identity = (n0 + 0.5) / (2.0 * (n0 + 1.0) * math.expm1(2.0 * r) + 1.0)
    got = checks.witness_reference(r, 0.0, n0, 3.0)
    assert got == pytest.approx(identity, rel=1e-13)


@pytest.mark.parametrize("n0", [0.1, 1.0, 5.0, 100.0])
def test_reference_is_one_half_at_threshold_area(n0):
    r_th = 0.5 * math.log((2.0 * n0 + 1.0) / (n0 + 1.0))
    assert checks.witness_reference(r_th, 0.0, n0, 0.0) == \
        pytest.approx(0.5, abs=1e-14)


def test_reference_survives_cancellation_at_large_area():
    # var_m ~ e^{2r} while E ~ e^{-2r}: a fixed 60 digits would return noise
    r, n0 = 150.0, 2.0
    identity = (n0 + 0.5) * math.exp(-2.0 * r) / (2.0 * (n0 + 1.0))
    assert checks.witness_reference(r, 0.0, n0, 0.0) == \
        pytest.approx(identity, rel=1e-12)


@pytest.mark.parametrize("kw, verdict", [
    (dict(raised=True, finite=True, matches=True, exit_code=0,
          exit_expected=True, warned=False), ("refused", False)),
    (dict(raised=False, finite=False, matches=True, exit_code=0,
          exit_expected=True, warned=True), ("refused", False)),
    (dict(raised=False, finite=True, matches=True, exit_code=0,
          exit_expected=True, warned=False), ("ok", False)),
    (dict(raised=False, finite=True, matches=False, exit_code=0,
          exit_expected=True, warned=False), ("wrong", True)),
    (dict(raised=False, finite=True, matches=False, exit_code=0,
          exit_expected=True, warned=True), ("wrong", False)),
    (dict(raised=False, finite=True, matches=False, exit_code=3,
          exit_expected=True, warned=False), ("wrong", False)),
    (dict(raised=False, finite=True, matches=True, exit_code=3,
          exit_expected=False, warned=False), ("wrong", False)),
])
def test_classifier(kw, verdict):
    assert checks.classify(**kw) == verdict


def _curve_csv(path, values, warning=None):
    lines = ["# scenario_digest: x\n", "# tool: steerkit 0\n"]
    if warning:
        lines.append(f"# warning: {warning}\n")
    lines.append("r,E\n")
    lines += [f"{r:.11e},{e:.11e}\n" for r, e in values]
    path.write_text("".join(lines))


def test_row_checker_flags_a_silent_wrong_value(tmp_path):
    doc = workloads.scenario(
        "curve", {"kind": "ratios", "gamma_over_G": 0.1},
        sweep={"variable": "r", "start": 0.5, "stop": 1.5, "points": 3})
    rs = checks.axis_values(doc["sweep"])
    values = [(r, checks.witness_reference(r, 0.1, 0.0, 0.0)) for r in rs]
    values[1] = (values[1][0], values[1][1] * (1.0 + 1e-8))
    path = tmp_path / "s.csv"
    _curve_csv(path, values)
    rows = checks.RowChecker(doc, 0, False, str(path), {0, 1, 2}).run()
    assert [(r["status"], r["silent"]) for r in rows] == \
        [("ok", False), ("wrong", True), ("ok", False)]

    _curve_csv(path, values, warning="point 1 (r=1): unresolved")
    rows = checks.RowChecker(doc, 0, False, str(path), {0, 1, 2}).run()
    assert (rows[1]["status"], rows[1]["silent"]) == ("wrong", False)


def test_row_checker_counts_every_row_of_a_raised_scenario():
    doc = workloads.PRESETS["fig4"]
    rows = checks.RowChecker(doc, None, True, "unused", set()).run()
    assert len(rows) == 201 * 201
    assert {r["status"] for r in rows} == {"refused"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_never_repeats_inputs(workload):
    a = workloads.generate(workload, 7, 20)
    assert a == workloads.generate(workload, 7, 20)
    assert a != workloads.generate(workload, 8, 20)
    docs = [json.dumps(job["scenario"], sort_keys=True) for job in a]
    assert len(set(docs)) == len(docs)


def test_generator_scales_work_with_seconds():
    short = workloads.generate("oracle-sweeps", 1, 5)
    long = workloads.generate("oracle-sweeps", 1, 20)
    assert len(long) > 3 * len(short)


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail([float(v) for v in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_tracer_times_add_up_and_count_witness_evaluations():
    import numpy as np

    import steerkit
    from steerkit import steering
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(steerkit)
    try:
        steering.steering_region(np.linspace(0.0, 3.0, 7),
                                 np.linspace(0.0, 0.3, 5), 0.0, 0.0)
    finally:
        tracer.uninstall()
    calls = tracer.calls()
    assert calls["steering.steering_region"] == 1
    # zero occupations: E(r=0) = 1/2 exactly, so no contour bisection
    assert calls["<witness_evals>"] == 35
    attributed, inside = tracer.wall_attribution()
    assert sum(attributed.values()) == pytest.approx(inside, rel=1e-9)
    assert set(k[0] for k in attributed) == {"steering", "closedform"}
    assert steering.steering_region.__module__ == "steerkit.steering"
    assert not hasattr(steering.steering_region, "__wrapped__")


def test_tracer_moves_pool_waiting_to_the_pool_threads_layers():
    import steerkit
    from steerkit import cli
    from tracer import Tracer

    doc = workloads.scenario(
        "cross-correlation", {"kind": "ratios", "gamma_over_G": 0.1},
        engine="oracle", trajectories=1000,
        sweep={"variable": "r", "start": 0.5, "stop": 1.0, "points": 2})
    tracer = Tracer()
    tracer.install(steerkit)
    try:
        cli.run(cli.Scenario.from_dict(doc), threads=2)
    finally:
        tracer.uninstall()
    attributed, inside = tracer.wall_attribution()
    assert sum(attributed.values()) == pytest.approx(inside, rel=1e-9)
    assert attributed[("cli", None)] >= 0.0
    assert attributed[("dynamics", "mc")] > 0.8 * inside
    assert tracer.calls()["dynamics.monte_carlo_output_covariance"] == 2
