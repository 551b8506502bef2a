#!/usr/bin/env python3
"""Walk through the rate functions and their variational solvers.

The speed profile psi(x) = x^2/2 - 1 prices the tail of the maximum;
rate_i prices particle counts above slope x given fraction-of-time a;
rate_j is the level-set analogue on the lattice field side. Every closed
form is double-checked against an independent grid certification.
"""

import math

from levelsim import rates


def main() -> None:
    print("speed profile psi:")
    for x in (0.5, 1.0, math.sqrt(2.0), 1.6):
        print(f"  psi({x:.4f}) = {rates.psi(x):+.6f}")
    print("  root at sqrt(2): growth stops where psi crosses zero\n")

    # anchor: a = 3/4, x = 1 -> rate 1, maximizer (1/7, 4/7)
    a, x = 0.75, 1.0
    sol = rates.solve_bbm_variational(a, x)
    print(f"particle family at (a={a}, x={x}):")
    print(f"  rate_i        = {rates.rate_i(a, x):.6f}")
    print(f"  maximizer s*  = {sol.maximizer[0]:.6f} (= 1/7)")
    print(f"  maximizer y*  = {sol.maximizer[1]:.6f} (= 4/7)")
    print(f"  supremum      = {sol.value:.6f} (= -rate_i)")

    cert = rates.certify_bbm(a, x)
    print(f"  grid oracle   = {cert.value:.12f}  (gap {abs(cert.value - sol.value):.2e})\n")

    eta, a = 0.6, 0.8
    sol = rates.solve_gff_variational(eta, a)
    cert = rates.certify_gff(eta, a)
    print(f"level family at (eta={eta}, a={a}):")
    print(f"  rate_j        = {rates.rate_j(a, eta):.6f}")
    print(f"  maximizer     = ({sol.maximizer[0]:.4f}, {sol.maximizer[1]:.4f}, {sol.maximizer[2]:.4f})")
    print(f"  supremum      = {sol.value:.6f} (= -rate_j/2)")
    print(f"  grid oracle   = {cert.value:.12f}  (gap {abs(cert.value - sol.value):.2e})\n")

    # the two families are one family at different steepness
    print("steepness identity rate_j(a, eta) == 2 rate_i(a, sqrt(2) eta):")
    for eta, a in ((0.3, 0.95), (0.6, 0.8), (0.9, 0.5)):
        lhs = rates.rate_j(a, eta)
        rhs = 2.0 * rates.rate_i(a, math.sqrt(2.0) * eta)
        print(f"  eta={eta}, a={a}: {lhs:.10f} vs {rhs:.10f}")


if __name__ == "__main__":
    main()
