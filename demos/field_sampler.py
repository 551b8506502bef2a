#!/usr/bin/env python3
"""Zero-boundary Gaussian field: two samplers vs the exact covariance.

The spectral sampler (sine transform) and the dense site sampler (rows of the
Cholesky factor of G, read off the banded Cholesky factor of the grid
Laplacian) target the same law; the killed-walk Green's function computed by
sparse linear solves is the covariance oracle both must match. The
on-diagonal entry at the center grows like (2/pi) log N, the constant behind
every threshold.
"""

import math

import numpy as np

from levelsim import mc
from levelsim.gff import GreenOperator, sample_fields, sample_sites


def main() -> None:
    grid_n = 32
    rng = mc.replica_rng(42, 0)
    fields = sample_fields(grid_n, 4000, rng)
    print(f"{fields.shape[0]} spectral samples on a {grid_n}x{grid_n} grid")
    print(f"frame is exactly zero: {bool(np.all(fields[:, 0, :] == 0.0))}\n")

    op = GreenOperator(grid_n)
    pairs = (((16, 16), (16, 16)), ((16, 16), (16, 17)), ((8, 8), (24, 24)))
    print("empirical covariance vs Green oracle:")
    for x, y in pairs:
        emp = float(np.mean(fields[:, x[0], x[1]] * fields[:, y[0], y[1]]))
        exact = op.entry(x, y)
        print(f"  G{x}{y}: {emp:+.4f} vs {exact:+.4f}")

    dense = sample_sites(grid_n, [(16, 16)], 4000, mc.replica_rng(43, 0))[:, 0]
    print("\nbackend comparison at the center site:")
    print(f"  spectral var {fields[:, 16, 16].var():.4f}")
    print(f"  dense var    {dense.var():.4f}")
    print(f"  exact        {op.variance((16, 16)):.4f}\n")

    print("center variance vs (2/pi) log N:")
    gamma2 = 2.0 / math.pi
    for n in (16, 32, 64, 128):
        center = ((n - 1) // 2, (n - 1) // 2)
        g = GreenOperator(n).variance(center)
        print(f"  N={n:4d}: {g:.4f}   gamma^2 log N = {gamma2 * math.log(n):.4f}")


if __name__ == "__main__":
    main()
