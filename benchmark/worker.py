"""One measured pass of a workload, in a fresh interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; writes its result as
JSON to ``--out``.  Modes:

- ``setup``: time ``import steerkit`` plus scenario generation, nothing else;
- ``measure``: the same set-up, then every job of the workload back to back
  through ``steerkit.cli.run``, one scenario at a time;
- ``trace``: as ``measure``, with every steerkit layer wrapped by
  ``tracer.Tracer``.

With ``--check`` the finished outputs are checked against the references of
``checks.py`` after the timed loop.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import sys
import time

OUT_ROOT = ".bench_out"
SAMPLED_ROWS = 6        # closed-form rows per scenario given a reference check
CALIBRATION_SHARE = 0.03


def _setup(workload: str, seed: int, seconds: float):
    t0 = time.perf_counter()
    import steerkit
    from steerkit import cli

    import workloads

    jobs = workloads.generate(workload, seed, seconds)
    return time.perf_counter() - t0, steerkit, cli, jobs


def _calibration_slice() -> float:
    """Seconds taken by a fixed slice of interpreter-bound work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10_000):
        acc += math.exp(-i * 1e-5) * (i % 7) / (1.0 + i)
    return time.perf_counter() - t0


def _calibrate(job_seconds: float) -> tuple[float, int]:
    """Run calibration slices for CALIBRATION_SHARE of a job's time.

    Sampling in proportion to job time makes the mean slice time the
    machine's average speed over the timed work.
    """
    spent, count = 0.0, 0
    while count == 0 or spent < CALIBRATION_SHARE * job_seconds:
        spent += _calibration_slice()
        count += 1
    return spent, count


def _run_jobs(cli, jobs: list[dict], outdir: str, deadline_s: float):
    """Run jobs back to back and return one outcome per job run.

    After each job, outside its timed window, calibration slices run for
    CALIBRATION_SHARE of the job's time.
    """
    from steerkit.errors import SteerkitError

    outcomes = []
    started = time.perf_counter()
    for i, job in enumerate(jobs):
        if time.perf_counter() - started > deadline_s:
            break
        out = {"kind": job["kind"], "rows": 0, "exit_code": None,
               "error": None, "path": os.path.join(outdir, f"s{i:04d}.csv")}
        t0 = time.perf_counter()
        try:
            scenario = cli.Scenario.from_dict(job["scenario"])
            record = cli.run(scenario, output=out["path"], fmt="csv",
                             threads=job["threads"], svg=job["svg"])
            out["seconds"] = time.perf_counter() - t0
            out["rows"] = len(record.points) \
                + len(record.summary.get("contour") or ())
            out["exit_code"] = record.exit_code
            del record
        except Exception as exc:  # any failure is a counted outcome
            out["seconds"] = time.perf_counter() - t0
            out["error"] = {"type": type(exc).__name__,
                            "typed": isinstance(exc, SteerkitError),
                            "message": str(exc)[:200]}
        out["calib_s"], out["calib_n"] = _calibrate(out["seconds"])
        outcomes.append(out)
    return outcomes


def _check(workload: str, seed: int, cli, jobs: list[dict],
           outcomes: list[dict], outdir: str) -> dict:
    import checks

    totals = {"attempted": 0, "props": {}, "failures": [],
              "by_engine": {}, "thread_identity": None}
    for i, (job, out) in enumerate(zip(jobs, outcomes)):
        doc = job["scenario"]
        n_rows = checks.expected_rows(doc)
        rng = random.Random(f"check:{workload}:{seed}:{i}")
        sample = set(rng.sample(range(n_rows), min(SAMPLED_ROWS, n_rows)))
        checker = checks.RowChecker(doc, out["exit_code"],
                                    out["error"] is not None, out["path"],
                                    sample)
        rows = checker.run()
        if workload == "montecarlo" and i == 0 and out["error"] is None:
            totals["thread_identity"] = _byte_identity(cli, job, out["path"],
                                                       outdir)
            if not totals["thread_identity"]:
                rows = [{"status": "wrong", "silent": True,
                         "engine": row["engine"],
                         "reason": "CSV differs between thread counts"}
                        for row in rows]
        totals["attempted"] += len(rows)
        for key, v in checker.props.items():
            totals["props"][key] = totals["props"].get(key, 0) + v
        if doc["mode"] == "cross-correlation":
            totals["props"].setdefault("trajectories", []).append(
                doc.get("trajectories", 100_000) * doc["sweep"]["points"])
        for row in rows:
            eng = totals["by_engine"].setdefault(
                row["engine"], {"rows": 0, "wrong": 0, "refused": 0,
                                "silent": 0})
            eng["rows"] += 1
            if row["status"] != "ok":
                eng[row["status"]] += 1
                eng["silent"] += int(row["silent"])
                if len(totals["failures"]) < 8:
                    totals["failures"].append(
                        f"job {i} ({job['kind']}): {row['status']}"
                        f"{' silent' if row['silent'] else ''}: "
                        f"{row['reason'] or (out['error'] or {}).get('message')}")
    return totals


def _byte_identity(cli, job: dict, path: str, outdir: str) -> bool:
    """Whether a re-run at IDENTITY_THREADS writes the same CSV bytes."""
    import workloads

    again = os.path.join(outdir, "identity.csv")
    try:
        cli.run(cli.Scenario.from_dict(job["scenario"]), output=again,
                fmt="csv", threads=workloads.IDENTITY_THREADS, svg=job["svg"])
    except Exception:  # a re-run that fails is not identical
        return False
    with open(path, "rb") as a, open(again, "rb") as b:
        return a.read() == b.read()


def _trace_summary(tracer, wall_s: float) -> dict:
    attributed, inside = tracer.wall_attribution()
    return {
        "wall_s": wall_s,
        "inside_s": inside,
        "attributed": {f"{k[0]}|{k[1] or ''}": v
                       for k, v in attributed.items()},
        "calls": tracer.calls(),
        "oracle_calls": tracer.oracle_calls,
        "mc_calls": tracer.mc_calls,
        "spans": len(tracer.spans),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--deadline", type=float, required=True,
                    help="stop issuing jobs after this many seconds")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    setup_s, steerkit, cli, jobs = _setup(args.workload, args.seed,
                                          args.seconds)
    result: dict = {"setup_s": setup_s}
    if args.mode != "setup":
        outdir = os.path.join(OUT_ROOT, f"run-{os.getpid()}")
        os.makedirs(outdir, exist_ok=True)
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(steerkit)
        try:
            outcomes = _run_jobs(cli, jobs, outdir, args.deadline)
            if tracer is not None:
                tracer.uninstall()
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["jobs"] = len(jobs)
            result["outcomes"] = [{k: v for k, v in o.items() if k != "path"}
                                  for o in outcomes]
            if tracer is not None:
                result["trace"] = _trace_summary(
                    tracer, sum(o["seconds"] for o in outcomes))
                tracer.write_spans(os.path.join(
                    OUT_ROOT, f"trace-{args.workload}.json"))
            if args.check:
                result["check"] = _check(args.workload, args.seed, cli, jobs,
                                         outcomes, outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
