#!/usr/bin/env python3
"""Harmonic splitting of the field and the variance ladder across scales.

Inside any box the field splits into the harmonic extension of its boundary
values plus an independent zero-boundary residual. Reading the harmonic part
at the box center gives the field's value "at that scale"; the increments
between nested scales are independent with variance set by the Green
diagonals, roughly gamma^2 per half-step of log N.
"""

import math

import numpy as np

from levelsim import mc
from levelsim.gff import Box, GreenOperator, dirichlet_extend, harmonic_at, sample_fields


def main() -> None:
    grid_n = 64
    fields = sample_fields(grid_n, 3000, mc.replica_rng(9, 0))
    boxes = [Box((grid_n - m) // 2, (grid_n - m) // 2, m, m) for m in (32, 16, 8)]

    one, top = fields[0], boxes[0]
    harmonic = dirichlet_extend(one, top)
    residual = one[top.slices()] - harmonic
    center = top.center()
    value = harmonic[center[0] - top.row0, center[1] - top.col0]
    print(f"decomposition over {top}:")
    print(f"  harmonic + residual == field: "
          f"{bool(np.allclose(harmonic + residual, one[top.slices()]))}")
    print(f"  residual frame max |value|: {np.abs(residual[0]).max():.2e}")
    print(f"  coarse value at center {center}: {value:+.4f}\n")

    print("variance of the coarse value vs exact Green difference:")
    g_top = GreenOperator(grid_n).variance(((grid_n - 1) // 2, (grid_n - 1) // 2))
    for box in boxes:
        local = ((box.side - 2) // 2, (box.side - 2) // 2)
        exact = g_top - GreenOperator(box.side).variance(local)
        emp = float(np.var(harmonic_at(fields, box, box.center()), ddof=1))
        print(f"  side {box.side:2d}: empirical {emp:.4f}   exact {exact:.4f}   "
              f"gamma^2 log(N/side) = {2.0 / math.pi * math.log(grid_n / box.side):.4f}")

    # both coarse values are read at the child's center
    site = boxes[1].center()
    inc = harmonic_at(fields, boxes[1], site) - harmonic_at(fields, boxes[0], site)
    exact = GreenOperator(32).variance((15, 15)) - GreenOperator(16).variance((7, 7))
    print(f"\nincrement side 32 -> 16: empirical var {float(np.var(inc, ddof=1)):.4f} "
          f"vs exact {exact:.4f}")
    print(f"increment mean {float(inc.mean()):+.4f} (should hover near zero)")


if __name__ == "__main__":
    main()
