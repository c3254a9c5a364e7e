#!/usr/bin/env python3
"""Feasibility estimates for two published experimental parameter sets.

Prints the effective gain rates, the damping ratio, the minimal pulse area
for collective steering, and how far the bath occupation sits below the
all-pulse-area steering threshold.
"""

import math

from steerkit import (
    ReducedParams,
    collective_steering_value,
    derived_quantities,
    r_crossing,
    threshold_r,
)
from steerkit.errors import NoThreshold
from steerkit.steering import noise_threshold

TWO_PI = 2.0 * math.pi


def nanobeam_device() -> tuple[str, ReducedParams]:
    # sideband-resolved nanobeam: mechanics at 3.68 GHz cooled to n ~ 0.85,
    # linewidth 500 MHz, effective coupling 40.7 MHz, matched detuning
    kappa = TWO_PI * 500e6
    rp = ReducedParams(g1=TWO_PI * 40.7e6, g2=TWO_PI * 40.7e6, kappa=kappa,
                       Delta=kappa, gamma=TWO_PI * 35e3, n0=0.85, n=0.85,
                       tau=1e-7)
    return "nanobeam (optical, 3.68 GHz mechanics)", rp


def report_reduced(label: str, rp: ReducedParams) -> None:
    dq = derived_quantities(rp)
    print(f"== {label} ==")
    print(f"  G1 = G2 = 2pi x {dq.G1 / TWO_PI / 1e6:.3f} MHz")
    print(f"  gamma/G = {dq.gamma_over_G:.3e}")
    report_ratios(dq.gamma_over_G, rp.n0, rp.n)


def report_ratios(x: float, n0: float, n: float) -> None:
    rth = threshold_r(n0)
    print(f"  minimal pulse area for steering (undamped): r_th = {rth:.4f}")
    if n0 > 0:
        crossing = r_crossing(x, n0, n)
        print(f"  witness crosses 1/2 at r = {crossing:.4f} "
              f"with damping and bath noise")
    for r in (0.5, 1.0, 2.0):
        print(f"  E(r = {r}) = {collective_steering_value(r, x, n0, n):.4f}")
    try:
        th = noise_threshold(x, 0.0)
        verdict = "inside" if n <= th.value else "outside"
        print(f"  bath threshold (ground-state mirror): n = {th.value:.0f}; "
              f"operating n = {n} is {verdict} the all-pulse-area window")
    except NoThreshold as exc:
        print(f"  bath threshold: {exc}")
    print()


def main() -> int:
    label, rp = nanobeam_device()
    report_reduced(label, rp)
    # microwave electromechanics: n0 = 0.5, n = 37.8, gamma/G = 1.75e-3
    print("== microwave electromechanics ==")
    print("  gamma/G = 1.75e-3 (given)")
    report_ratios(1.75e-3, 0.5, 37.8)
    return 0


if __name__ == "__main__":
    sys_exit = main()
    raise SystemExit(sys_exit)
