"""Seeded scenario generators for the three benchmark workloads.

Each workload is a closed loop with one client: a list of jobs that one
process runs back to back through ``steerkit.cli.run``.  A job is a scenario
document (schema version 1) plus the ``--threads`` and ``--svg`` settings of
the call.  The list depends only on (workload, seed, seconds), so a fixed
seed repeats every input and every failure count exactly.  No two generated
scenarios share their inputs.

``--seconds`` sets the amount of work: the generator emits
``round(seconds / BLOCK_SECONDS[workload])`` blocks.  Every block has the
same composition, and the inputs that set a scenario's cost (grid sizes,
point counts, the oracle's pulse areas, trajectory counts) vary by a few
percent at most, so the cost and the input-property shares of a run vary
little from seed to seed.  The other inputs are drawn freely.
``BLOCK_SECONDS`` was sized so that one block costs about that long on a
2-core x86 machine at the commit that introduced the benchmark.

This module does not import steerkit: the program only ever sees the
generated documents.
"""

from __future__ import annotations

import random

WORKLOADS = ("closedform-maps", "oracle-sweeps", "montecarlo")

BLOCK_SECONDS = {
    "closedform-maps": 0.55,
    "oracle-sweeps": 0.9,
    "montecarlo": 3.2,
}

# The four presets of ``steerkit preset``, verbatim, so that a later change
# to a preset does not silently change the benchmark's input.
PRESETS = {
    "fig3a": {
        "mode": "curve",
        "params": {"kind": "ratios", "gamma_over_G": 0.1},
        "sweep": {"variable": "r", "start": 0.0, "stop": 3.0, "points": 301,
                  "scale": "linear"},
        "cases": [{"label": "n0=0,n=0", "n0": 0.0, "n": 0.0},
                  {"label": "n0=0.5,n=0.5", "n0": 0.5, "n": 0.5},
                  {"label": "n0=5,n=5", "n0": 5.0, "n": 5.0}],
    },
    "fig3b": {
        "mode": "curve",
        "params": {"kind": "ratios", "gamma_over_G": 0.1, "n0": 0.0},
        "sweep": {"variable": "r", "start": 0.0, "stop": 10.0, "points": 301,
                  "scale": "linear"},
        "cases": [{"label": "n=100", "n": 100.0},
                  {"label": "n=600", "n": 600.0},
                  {"label": "n=1000", "n": 1000.0}],
    },
    "inset": {
        "mode": "n-threshold",
        "params": {"kind": "ratios", "n0": 0.0},
        "sweep": {"variable": "gamma_over_G", "start": 0.05, "stop": 0.2,
                  "points": 3, "scale": "log"},
    },
    "fig4": {
        "mode": "heatmap",
        "params": {"kind": "ratios", "n0": 0.0, "n": 0.0},
        "sweep": {"variable": "r", "start": 0.0, "stop": 3.0, "points": 201,
                  "scale": "linear"},
        "sweep2": {"variable": "gamma_over_G", "start": 0.0, "stop": 0.3,
                   "points": 201, "scale": "linear"},
    },
}

ADIABATIC_LADDER = [5.0, 10.0, 20.0, 40.0]


def scenario(mode: str, params: dict, *, engine: str = "closedform",
             sweep: dict | None = None, sweep2: dict | None = None,
             cases: list | None = None, seed: int = 12345,
             trajectories: int | None = None,
             tolerances: dict | None = None) -> dict:
    """A schema-version-1 scenario document."""
    doc = {"schema_version": 1, "mode": mode, "engine": engine,
           "params": params, "seed": seed}
    if sweep is not None:
        doc["sweep"] = sweep
    if sweep2 is not None:
        doc["sweep2"] = sweep2
    if cases:
        doc["cases"] = cases
    if trajectories is not None:
        doc["trajectories"] = trajectories
    if tolerances:
        doc["tolerances"] = tolerances
    return doc


def _sweep(variable: str, start: float, stop: float, points: int,
           scale: str = "linear") -> dict:
    return {"variable": variable, "start": start, "stop": stop,
            "points": points, "scale": scale}


def _job(kind: str, doc: dict, *, threads: int = 1, svg: bool = False) -> dict:
    return {"kind": kind, "scenario": doc, "threads": threads, "svg": svg}


def _occupations(rng: random.Random, label: str) -> dict:
    return {"label": label, "n0": round(rng.uniform(0.0, 3.0), 6),
            "n": round(rng.uniform(0.0, 50.0), 6)}


# ---------------------------------------------------------------------------
# closedform-maps


def _closedform_block(rng: random.Random, b: int) -> list[dict]:
    x_top = round(rng.uniform(0.2, 0.5), 6)
    ratios = {"kind": "ratios", "n0": round(rng.uniform(0.0, 3.0), 6),
              "n": round(rng.uniform(0.0, 50.0), 6)}
    jobs = [
        _job("heatmap-linear", scenario(
            "heatmap", ratios,
            sweep=_sweep("r", 0.0, round(rng.uniform(2.0, 6.0), 6),
                         rng.randint(87, 93)),
            sweep2=_sweep("gamma_over_G", 0.0, x_top, rng.randint(87, 93))),
            svg=True),
        # log axis from 1e-7: about 40% of the r values take the series branch
        _job("heatmap-log", scenario(
            "heatmap", {"kind": "ratios",
                        "n0": round(rng.uniform(0.0, 3.0), 6),
                        "n": round(rng.uniform(0.0, 50.0), 6)},
            sweep=_sweep("r", 1e-7, round(rng.uniform(1.0, 4.0), 6),
                         rng.randint(68, 72), "log"),
            sweep2=_sweep("gamma_over_G", 0.0, round(rng.uniform(0.2, 0.4), 6),
                          rng.randint(68, 72))),
            svg=True),
        # r up to 400..600: about a third of the r values take the asymptote
        _job("heatmap-asymptote", scenario(
            "heatmap", {"kind": "ratios",
                        "n0": round(rng.uniform(0.0, 3.0), 6),
                        "n": round(rng.uniform(0.0, 50.0), 6)},
            sweep=_sweep("r", 0.0, round(rng.uniform(400.0, 600.0), 6),
                         rng.randint(68, 72)),
            sweep2=_sweep("gamma_over_G", 0.0, round(rng.uniform(0.2, 0.4), 6),
                          rng.randint(68, 72))),
            svg=True),
        # axes other than (r, gamma_over_G): no steering region, no contour
        _job("heatmap-bath", scenario(
            "heatmap", {"kind": "ratios",
                        "gamma_over_G": round(rng.uniform(0.01, 0.3), 6),
                        "n0": round(rng.uniform(0.0, 3.0), 6)},
            sweep=_sweep("r", 0.0, round(rng.uniform(2.0, 6.0), 6),
                         rng.randint(48, 52)),
            sweep2=_sweep("n", 0.0, round(rng.uniform(50.0, 500.0), 6),
                          rng.randint(48, 52))),
            svg=True),
        _job("curve-log", scenario(
            "curve", {"kind": "ratios",
                      "gamma_over_G": round(rng.uniform(0.0, 0.3), 6)},
            sweep=_sweep("r", 1e-8, round(rng.uniform(2.0, 10.0), 6),
                         rng.randint(380, 420), "log"),
            cases=[_occupations(rng, f"case{k}") for k in range(3)]),
            svg=True),
        _job("curve-asymptote", scenario(
            "curve", {"kind": "ratios",
                      "gamma_over_G": round(rng.uniform(0.0, 0.3), 6)},
            sweep=_sweep("r", 0.0, round(rng.uniform(360.0, 600.0), 6),
                         rng.randint(380, 420)),
            cases=[_occupations(rng, f"case{k}") for k in range(3)]),
            svg=True),
    ]
    variable, lo, hi = (("n", 0.0, 800.0), ("n0", 0.0, 20.0),
                        ("gamma_over_G", 0.0, 1.5), ("G1_over_G2", 0.2, 5.0),
                        ("tau", 0.0, 8.0))[b % 5]
    params = {"kind": "ratios", "r": round(rng.uniform(0.5, 5.0), 6),
              "gamma_over_G": round(rng.uniform(0.0, 0.3), 6),
              "n0": round(rng.uniform(0.0, 3.0), 6),
              "n": round(rng.uniform(0.0, 50.0), 6)}
    jobs.append(_job("curve-param", scenario(
        "curve", params,
        sweep=_sweep(variable, lo, round(rng.uniform(0.8, 1.0) * hi, 6),
                     rng.randint(285, 315))),
        svg=True))
    # a ground-state mirror (n0 = 0), as in the inset: a threshold exists
    # for every damping ratio in [0.04, 0.3]
    x_lo = round(rng.uniform(0.04, 0.08), 6)
    jobs.append(_job("n-threshold", scenario(
        "n-threshold", {"kind": "ratios", "n0": 0.0},
        sweep=_sweep("gamma_over_G", x_lo, round(rng.uniform(0.15, 0.3), 6),
                     4, rng.choice(("linear", "log"))),
        tolerances={"r_max": float(rng.choice((6, 8, 10)))}),
        svg=True))
    return jobs


def _working_point(rng: random.Random) -> dict:
    """A blue-sideband device like the nanobeam of scripts/feasibility.py."""
    two_pi = 6.283185307179586
    kappa = two_pi * rng.uniform(3e8, 7e8)
    g0 = two_pi * rng.uniform(5e2, 2e3)
    target_g = two_pi * rng.uniform(20e6, 60e6)
    omega0 = two_pi * 2.0e14
    omega_m = two_pi * rng.uniform(3e9, 4.5e9)
    alpha = target_g / g0
    e1 = alpha * abs(complex(kappa, kappa - omega_m))
    e2 = alpha * abs(complex(kappa, -kappa - omega_m))
    params = {"kind": "physical",
              "omega1": omega0 + kappa, "omega2": omega0 - kappa,
              "omega_m": omega_m, "omega_L": omega0 + omega_m,
              "kappa1": kappa, "kappa2": kappa,
              "gamma": f"{rng.uniform(10.0, 60.0):.6f} kHz",
              "g01": g0, "g02": g0, "E1": e1, "E2": e2,
              "n0": round(rng.uniform(0.0, 2.0), 6),
              "n": round(rng.uniform(0.0, 2.0), 6),
              "tau": rng.uniform(0.5e-7, 2e-7)}
    return _job("working-point", scenario("working-point", params), svg=False)


def _closedform_maps(rng: random.Random, blocks: int) -> list[dict]:
    jobs = [_job(f"preset-{name}", scenario(**{"params": {}, **doc}),
                 svg=True)
            for name, doc in PRESETS.items()]
    jobs.append(_working_point(rng))
    for b in range(blocks):
        jobs.extend(_closedform_block(rng, b))
    return jobs


# ---------------------------------------------------------------------------
# oracle-sweeps


# The oracle's step count depends on the damping ratio and occupations too,
# so every run cycles through the same levels of them.
ORACLE_X = (0.0, 0.1, 0.2, 0.3)
ORACLE_N0 = (0.0, 0.5, 1.0, 2.0)
ORACLE_N = (0.0, 2.0, 5.0, 10.0)


def _jitter(rng: random.Random, value: float) -> float:
    """``value`` moved by at most 1%: unique inputs, nearly fixed cost."""
    return round(value * rng.uniform(0.99, 1.01), 6)


def _oracle_params(rng: random.Random, k: int) -> dict:
    return {"kind": "ratios",
            "gamma_over_G": _jitter(rng, ORACLE_X[k % 4]),
            "n0": _jitter(rng, ORACLE_N0[(k // 4) % 4]),
            "n": _jitter(rng, ORACLE_N[(k // 16) % 4])}


def _oracle_cases(rng: random.Random, k: int) -> list[dict]:
    return [{"label": f"case{c}", "n0": _jitter(rng, ORACLE_N0[(k + c) % 4]),
             "n": _jitter(rng, ORACLE_N[(k + 2 * c) % 4])} for c in range(2)]


def _oracle_block(rng: random.Random, b: int) -> list[dict]:
    # The oracle's cost grows with r, so the r values are fixed up to a
    # jitter and only cost-neutral knobs are drawn freely.  With equal gains
    # r spans the presets' (0, 10]; the oracle loses accuracy above r ~ 4,
    # a known defect these rows are meant to show.  With unequal gains the
    # DOP853 oracle turns stiff past r ~ 7 (0.3-0.9 s per point at r = 8,
    # 28-57 s at r = 10 on a 2-core x86 machine, and erratic in between),
    # so those sweeps stop at r = 6.8.
    jobs = [
        _job("oracle-curve", scenario(
            "curve", _oracle_params(rng, b), engine="both",
            sweep=_sweep("r", _jitter(rng, 0.2), _jitter(rng, 9.9), 5),
            cases=_oracle_cases(rng, b))),
        _job("validate-oracle-r", scenario(
            "validate-oracle", _oracle_params(rng, b + 1),
            sweep=_sweep("r", _jitter(rng, 0.2), _jitter(rng, 9.9), 5))),
    ]
    variable, lo, hi = (("gamma_over_G", 0.0, 0.3), ("n0", 0.0, 5.0),
                        ("n", 0.0, 50.0), ("G1_over_G2", 0.3, 3.0))[b % 4]
    params = _oracle_params(rng, b + 2)
    params["r"] = _jitter(rng, 0.5 + b % 7)
    params["G1_over_G2"] = _jitter(rng, (0.5, 0.8, 1.25, 2.0)[b % 4])
    jobs.append(_job("validate-oracle-param", scenario(
        "validate-oracle", params,
        sweep=_sweep(variable, lo, _jitter(rng, hi), 4))))
    if b % 2:
        params = _oracle_params(rng, b + 3)
        params["G1_over_G2"] = _jitter(rng, 1.5)
        jobs.append(_job("validate-oracle-unequal", scenario(
            "validate-oracle", params,
            sweep=_sweep("r", _jitter(rng, 6.0), _jitter(rng, 6.7), 3))))
    # full-model cost grows with r; r = 0.6 keeps a ladder near half a second
    jobs.append(_job("validate-adiabatic", scenario(
        "validate-adiabatic",
        {"kind": "ratios", "r": _jitter(rng, 0.6),
         "gamma_over_G": _jitter(rng, (0.01, 0.05, 0.1)[b % 3]),
         "n0": _jitter(rng, ORACLE_N0[b % 4]),
         "n": _jitter(rng, ORACLE_N[b % 4]),
         "kappa_over_g": list(ADIABATIC_LADDER)})))
    return jobs


def _oracle_sweeps(rng: random.Random, blocks: int) -> list[dict]:
    jobs: list[dict] = []
    for b in range(blocks):
        jobs.extend(_oracle_block(rng, b))
    return jobs


# ---------------------------------------------------------------------------
# montecarlo

# The timed loop runs at --threads 1: at --threads 2 (= nproc on the 2-core
# machine the benchmark was sized on) the sampler's GIL-bound per-trajectory
# stream set-up made trajectories_per_s spread by 21% between runs of
# identical work.  Thread-count independence is still checked, by re-running
# the first job at IDENTITY_THREADS.
MC_THREADS = 1
IDENTITY_THREADS = 2
MC_TRAJECTORIES = (1000, 1000, 1000, 2000)


def _mc_job(rng: random.Random, trajectories: int, b: int) -> dict:
    params = {"kind": "ratios",
              "r": round(rng.uniform(0.3, 2.0), 6),
              "gamma_over_G": round(rng.uniform(0.0, 0.3), 6),
              "G1_over_G2": round(rng.uniform(0.5, 2.0), 6),
              "n0": round(rng.uniform(0.0, 2.0), 6),
              "n": round(rng.uniform(0.0, 5.0), 6)}
    variable, lo, hi = (("r", 0.2, 2.5), ("gamma_over_G", 0.0, 0.3),
                        ("n0", 0.0, 3.0), ("n", 0.0, 10.0),
                        ("G1_over_G2", 0.5, 2.0))[b % 5]
    start = round(rng.uniform(lo, lo + 0.3 * (hi - lo)), 6)
    stop = round(rng.uniform(lo + 0.6 * (hi - lo), hi), 6)
    return _job("cross-correlation", scenario(
        "cross-correlation", params, engine="oracle",
        sweep=_sweep(variable, start, stop, 2),
        seed=rng.randrange(1, 2 ** 31), trajectories=trajectories),
        threads=MC_THREADS)


def _montecarlo(rng: random.Random, blocks: int) -> list[dict]:
    # job 0 is the small scenario that is re-run at IDENTITY_THREADS and
    # compared byte for byte
    jobs = [_mc_job(rng, 1000, 0)]
    for b in range(blocks):
        for k, trajectories in enumerate(MC_TRAJECTORIES):
            jobs.append(_mc_job(rng, trajectories, b * len(MC_TRAJECTORIES) + k))
    return jobs


_GENERATORS = {
    "closedform-maps": _closedform_maps,
    "oracle-sweeps": _oracle_sweeps,
    "montecarlo": _montecarlo,
}


def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    """The job list of one run: a pure function of its arguments."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    blocks = max(1, round(seconds / BLOCK_SECONDS[workload]))
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, blocks)
