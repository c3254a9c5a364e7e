#!/usr/bin/env python3
"""Run all built-in scenario presets and emit CSV plus SVG charts.

Usage: python scripts/reproduce_figures.py [output_dir]
"""

import pathlib
import sys
import time

from steerkit.cli import PRESETS, Scenario, run


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "figures")
    outdir.mkdir(parents=True, exist_ok=True)
    for name in ("fig3a", "fig3b", "inset", "fig4"):
        scenario: Scenario = PRESETS[name]()
        path = outdir / f"{name}.csv"
        started = time.perf_counter()
        record = run(scenario, output=str(path), svg=True)
        ms = 1000.0 * (time.perf_counter() - started)
        print(f"{name}: {len(record.points)} points -> {path} ({ms:.0f} ms)")
        for warning in record.warnings:
            print(f"  warning: {warning}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
