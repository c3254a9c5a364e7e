"""steerkit benchmark: one seeded workload, end to end or layer by layer.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 benchmark/run.py --workload closedform-maps --seed 1 \\
        --seconds 15 --trace 0

Every measured pass is a fresh interpreter (``worker.py``) with ``src`` on
``PYTHONPATH``, so set-up time and peak memory are those a user of
``steerkit run`` pays.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs the same jobs once plain and once with
every layer wrapped, and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Outputs go to ``.bench_out/`` in the checkout and are removed after each
pass; the span file of the last traced pass per workload is kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5          # fresh interpreters timed per run (incl. the pass)
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
OUT_ROOT = ".bench_out"
# Mean time of worker._calibration_slice on the 2-core x86 machine the
# benchmark was written on.
CALIBRATION_REFERENCE_S = 2.8e-3


def speed_factor(result: dict) -> float:
    """How much faster than the reference the machine ran during a pass.

    The machine's speed drifts by up to 30% between runs (the same work took
    16.6 s in one run and 22 s in the next) while a fixed slice of
    interpreter-bound work, timed between jobs in proportion to their
    length, drifts with it.  Scaling wall times by this factor keeps that
    drift out of run-to-run comparisons; the raw values are printed too.
    """
    spent = sum(o["calib_s"] for o in result["outcomes"])
    count = sum(o["calib_n"] for o in result["outcomes"])
    return CALIBRATION_REFERENCE_S / (spent / count)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with ten samples or fewer the
    maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


class Runner:
    """Starts workers in fresh interpreters and collects their results."""

    def __init__(self, args):
        self.args = args
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else "")
        # a pass stops issuing jobs after this long, so that a run, with
        # its traced pass, ends inside three minutes
        self.deadline = 2.0 * args.seconds + 10.0

    def _python(self, argv: list[str], **kw) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable] + argv, env=self.env,
                              timeout=CHILD_TIMEOUT_S, check=True, **kw)

    def worker(self, mode: str, check: bool = False) -> dict:
        with tempfile.NamedTemporaryFile(dir=OUT_ROOT, suffix=".json",
                                         delete=False) as fh:
            out = fh.name
        try:
            argv = [os.path.join(HERE, "worker.py"),
                    "--workload", self.args.workload,
                    "--seed", str(self.args.seed),
                    "--seconds", str(self.args.seconds),
                    "--mode", mode, "--deadline", str(self.deadline),
                    "--out", out]
            if check:
                argv.append("--check")
            self._python(argv)
            with open(out, encoding="utf-8") as fh:
                return json.load(fh)
        finally:
            os.unlink(out)

    def warm_up(self) -> None:
        """Import once untimed, so bytecode caches exist before timing."""
        self._python(["-c", "import steerkit"])

    def importtime(self) -> dict[str, float]:
        """Cumulative import seconds of steerkit and scipy.integrate."""
        samples: dict[str, list[float]] = {"steerkit": [],
                                           "scipy.integrate": []}
        for _ in range(IMPORTTIME_SAMPLES):
            proc = self._python(["-X", "importtime", "-c", "import steerkit"],
                                capture_output=True, text=True)
            for line in proc.stderr.splitlines():
                parts = [p.strip() for p in line.split("|")]
                if len(parts) == 3 and parts[2] in samples:
                    samples[parts[2]].append(float(parts[1]) * 1e-6)
        return {k: statistics.median(v) if v else 0.0
                for k, v in samples.items()}


# ---------------------------------------------------------------------------
# metrics


def failure_counts(check: dict) -> dict:
    engines = check["by_engine"]
    wrong = sum(e["wrong"] for e in engines.values())
    refused = sum(e["refused"] for e in engines.values())
    silent = sum(e["silent"] for e in engines.values())
    return {"attempted": check["attempted"], "wrong": wrong,
            "refused": refused, "failed": wrong + refused, "silent": silent}


def verdict(result: dict) -> tuple[bool, list[str]]:
    """Whether the run's outputs were fully verified, and why not.

    Oracle and Monte Carlo rows that miss their references are operation
    failures counted in ``failed``; they do not make the run incorrect.  A
    closed-form, threshold or working-point row that fails, an untyped
    exception, a job left unrun, or a thread-count byte difference does.
    """
    problems = []
    if len(result["outcomes"]) < result["jobs"]:
        problems.append(f"only {len(result['outcomes'])} of {result['jobs']} "
                        "jobs ran before the deadline")
    for o in result["outcomes"]:
        if o["error"] and not o["error"]["typed"]:
            problems.append(f"{o['kind']} raised {o['error']['type']}")
    for engine in ("closedform", "steering", "model"):
        e = result["check"]["by_engine"].get(engine)
        if e and e["wrong"] + e["refused"]:
            problems.append(f"{e['wrong'] + e['refused']} {engine} rows "
                            "failed")
    if result["check"]["thread_identity"] is False:
        problems.append("CSV not byte-identical across thread counts")
    return not problems, problems


def end_to_end(result: dict, setups: list[dict]) -> dict:
    """End-to-end metrics; times in reference seconds."""
    factor = speed_factor(result)
    seconds = [o["seconds"] * factor for o in result["outcomes"]]
    rows = sum(o["rows"] for o in result["outcomes"])
    counts = failure_counts(result["check"])
    tail_s, _, _ = tail(seconds)
    return {
        # the set-up interpreters run just before the pass, in the same
        # machine state, so the pass's factor scales them too
        "setup_s": (statistics.median(r["setup_s"] for r in setups) * factor,
                    "s"),
        "points_per_s": (rows / sum(seconds), "1/s"),
        "scenario_p50_s": (statistics.median(seconds), "s"),
        "scenario_tail_s": (tail_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_frac": (1.0 - counts["failed"] / counts["attempted"], "frac"),
        "trusted_frac": (1.0 - counts["silent"] / counts["attempted"],
                         "frac"),
    }


def _median_ms(durations: list[float]) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def per_layer(plain: dict, traced: dict, imports: dict) -> dict:
    tr = traced["trace"]
    att = tr["attributed"]
    calls = tr["calls"]

    def self_s(layer: str, bucket: str | None = None) -> float:
        if bucket is None:
            return sum((v for k, v in att.items()
                        if k.split("|")[0] == layer), 0.0)
        return att.get(f"{layer}|{bucket}", 0.0)

    def layer_calls(layer: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    rows = sum(o["rows"] for o in traced["outcomes"])
    reduced = [c for c in tr["oracle_calls"] if c[0] == "reduced"]
    full = [c for c in tr["oracle_calls"] if c[0] == "full"]
    reduced_tail, _, _ = tail([c[3] for c in reduced]) if reduced \
        else (0.0, 0.0, 0)
    mc = tr["mc_calls"]
    mc_busy = sum(c[2] for c in mc)
    presets = {o["kind"]: o["seconds"] for o in plain["outcomes"]
               if o["kind"].startswith("preset-")}
    engines = plain["check"]["by_engine"]

    def engine_count(engine: str, key: str) -> int:
        return engines.get(engine, {}).get(key, 0)

    m = {
        "setup.import_steerkit_s": (imports["steerkit"], "s"),
        "setup.import_scipy_integrate_s": (imports["scipy.integrate"], "s"),
        "cli.run_calls": (calls.get("cli.run", 0), "count"),
        "cli.self_s": (self_s("cli"), "s"),
    }
    for name in workloads.PRESETS:
        m[f"cli.preset_{name}_s"] = (presets.get(f"preset-{name}", 0.0), "s")
    m.update({
        "closedform.calls": (layer_calls("closedform"), "count"),
        "closedform.self_s": (self_s("closedform"), "s"),
        "closedform.evals_per_point": (
            calls.get("<witness_evals>", 0) / rows if rows else 0.0,
            "count"),
        "steering.region_calls": (calls.get("steering.steering_region", 0),
                                  "count"),
        "steering.region_self_s": (self_s("steering", "region"), "s"),
        "steering.threshold_self_s": (self_s("steering", "threshold"), "s"),
        "steering.product_calls": (calls.get("steering.steering_product", 0),
                                   "count"),
        "steering.product_self_s": (self_s("steering", "product"), "s"),
        "steering.self_s": (self_s("steering"), "s"),
        "dynamics.self_s": (self_s("dynamics"), "s"),
        "dynamics.oracle_reduced_calls": (len(reduced), "count"),
        "dynamics.oracle_reduced_self_s": (
            self_s("dynamics", "oracle_reduced"), "s"),
        "dynamics.oracle_reduced_p50_ms": (
            _median_ms([c[3] for c in reduced]), "ms"),
        "dynamics.oracle_reduced_tail_ms": (1e3 * reduced_tail, "ms"),
        "dynamics.oracle_reduced_ms.r_le_2": (
            _median_ms([c[3] for c in reduced if c[1] <= 2.0]), "ms"),
        "dynamics.oracle_reduced_ms.r_2_6": (
            _median_ms([c[3] for c in reduced if 2.0 < c[1] <= 6.0]), "ms"),
        "dynamics.oracle_reduced_ms.r_6_10": (
            _median_ms([c[3] for c in reduced if 6.0 < c[1] <= 10.0]), "ms"),
        "dynamics.oracle_full_calls": (len(full), "count"),
        "dynamics.oracle_full_self_s": (self_s("dynamics", "oracle_full"),
                                        "s"),
        "dynamics.oracle_full_ms.kg40": (
            _median_ms([c[3] for c in full if abs(c[2] - 40.0) < 1e-6]),
            "ms"),
        "dynamics.mc_calls": (len(mc), "count"),
        "dynamics.mc_self_s": (self_s("dynamics", "mc"), "s"),
        "dynamics.mc_traj_per_s": (
            sum(c[0] for c in mc) / mc_busy if mc_busy else 0.0, "1/s"),
        "dynamics.mc_normals_per_s": (
            sum(c[1] for c in mc) / mc_busy if mc_busy else 0.0, "1/s"),
        "dynamics.kernels_self_s": (self_s("dynamics", "kernels"), "s"),
        "model.calls": (layer_calls("model"), "count"),
        "model.self_s": (self_s("model"), "s"),
        "svgplot.calls": (layer_calls("svgplot"), "count"),
        "svgplot.self_s": (self_s("svgplot"), "s"),
        "closedform.wrong": (engine_count("closedform", "wrong"), "count"),
        "dynamics.oracle_wrong": (engine_count("oracle", "wrong"), "count"),
        "dynamics.oracle_refused": (engine_count("oracle", "refused"),
                                    "count"),
        "dynamics.mc_outside_4se": (engine_count("mc", "wrong"), "count"),
        "trace.wall_s": (tr["wall_s"], "s"),
        "trace.unattributed_s": (tr["wall_s"] - tr["inside_s"], "s"),
        "trace.overhead_frac": (
            tr["wall_s"] * speed_factor(traced)
            / (sum(o["seconds"] for o in plain["outcomes"])
               * speed_factor(plain)) - 1.0, "frac"),
    })
    return m


# ---------------------------------------------------------------------------
# report


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_inputs(result: dict) -> list[str]:
    check = result["check"]
    props = check["props"]
    counts = failure_counts(check)
    n = counts["attempted"]
    lines = [
        f"failed_frac {_fmt(counts['failed'] / n)} ({counts['failed']} of {n} "
        f"rows: wrong {counts['wrong']}, refused {counts['refused']}; "
        f"{props.get('checked', 0)} rows reference-checked)",
        f"silent_wrong_frac {_fmt(counts['silent'] / n)} ({counts['silent']} "
        f"of {n} rows: finite, exit 0, no warning, wrong)",
    ]
    for engine, e in sorted(check["by_engine"].items()):
        lines.append(f"  {engine}: {e['rows']} rows, wrong {e['wrong']}, "
                     f"refused {e['refused']}, silent {e['silent']}")
    for failure in check["failures"]:
        lines.append(f"  e.g. {failure}")
    witness = props.get("witness_rows", 0)
    if witness:
        shares = ", ".join(
            f"{b} {_fmt(props.get('branch_' + b, 0) / witness)}"
            for b in ("series", "direct", "asymptotic"))
        lines.append(f"share of closed-form witness cells by branch: {shares} "
                     f"(of {witness})")
    oracle = props.get("oracle_cells", 0)
    if oracle:
        lines.append(
            f"share of oracle cells with r > 4: "
            f"{_fmt(props.get('oracle_cells_r_gt_4', 0) / oracle)} "
            f"(of {oracle})")
    trajectories = props.get("trajectories")
    if trajectories:
        busy = sum(o["seconds"] for o in result["outcomes"])
        lines.append(
            f"trajectories per scenario: median "
            f"{_fmt(statistics.median(trajectories))}, min {min(trajectories)}, "
            f"max {max(trajectories)} (of {len(trajectories)} scenarios); "
            f"unscaled trajectories_per_s {_fmt(sum(trajectories) / busy)} "
            f"1/s ({sum(trajectories)} trajectories / {_fmt(busy)} s busy)")
    return lines


def report_kinds(result: dict) -> list[str]:
    by_kind: dict[str, list[float]] = {}
    for o in result["outcomes"]:
        by_kind.setdefault(o["kind"], []).append(o["seconds"])
    return ["scenarios by kind (count x median s): " + ", ".join(
        f"{k} {len(v)}x{statistics.median(v):.4f}"
        for k, v in by_kind.items())]


def report_decomposition(traced: dict) -> list[str]:
    tr = traced["trace"]
    by_layer: dict[str, float] = {}
    for key, v in tr["attributed"].items():
        layer = key.split("|")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + v
    parts = " + ".join(f"{k} {v:.4f}" for k, v in sorted(by_layer.items()))
    rest = tr["wall_s"] - sum(by_layer.values())
    return [f"traced wall {tr['wall_s']:.4f} s = {parts} + unattributed "
            f"{rest:.4f} s ({tr['spans']} spans)"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "steerkit", "__init__.py")):
        sys.stderr.write("benchmark: no src/steerkit here; run from the root "
                         "of a steerkit source checkout\n")
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)
    runner = Runner(args)
    try:
        runner.warm_up()
        if args.trace:
            imports = runner.importtime()
            plain = runner.worker("measure", check=True)
            traced = runner.worker("trace")
        else:
            setups = [runner.worker("setup") for _ in range(SETUP_SAMPLES - 1)]
            plain = runner.worker("measure", check=True)
            setups.append(plain)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark: worker failed: {exc}\n")
        return 1

    seconds = [o["seconds"] for o in plain["outcomes"]]
    rows = sum(o["rows"] for o in plain["outcomes"])
    tail_s, pct, n = tail(seconds)
    factor = speed_factor(plain)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}: "
          f"{len(seconds)} of {plain['jobs']} scenarios, {rows} rows in "
          f"{sum(seconds):.3f} s busy; closed loop, one client")
    print(f"machine speed factor {factor:.4f} (calibration reference "
          f"{CALIBRATION_REFERENCE_S} s per slice); unscaled: points_per_s "
          f"{rows / sum(seconds):.6g} 1/s, scenario_p50_s "
          f"{statistics.median(seconds):.6g} s, scenario_tail_s "
          f"{tail_s:.6g} s")
    if args.trace:
        metrics = per_layer(plain, traced, imports)
        lines = report_decomposition(traced)
    else:
        metrics = end_to_end(plain, setups)
        lines = [f"setup_s over {len(setups)} fresh interpreters, unscaled: "
                 + ", ".join(f"{r['setup_s']:.4f}" for r in setups),
                 f"scenario_tail_s is p{pct:.1f} of {n} scenarios "
                 f"(10 beyond it)"]
    lines += report_kinds(plain)
    lines += report_inputs(plain)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {_fmt(value)} {unit}")
    ok, problems = verdict(plain)
    for p in problems:
        print(f"not correct: {p}")
    counts = failure_counts(plain["check"])
    print(json.dumps({
        "correct": ok,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
