#!/usr/bin/env python3
"""Level sets of the field and the exponent they grow with.

Sites above 2*gamma*eta*log N form the eta-level set; its size scales like
N^(2(1 - eta^2)). Convergence in N is slow, so the estimator reports the
per-size exponents and the cross-size fit rather than one number.
"""

from levelsim import mc
from levelsim.gff import (
    estimate_daviaud_exponent,
    expected_level_count,
    level_threshold,
    sample_fields,
)


def main() -> None:
    grid_n = 64
    field = sample_fields(grid_n, 1, mc.replica_rng(3, 0))[0]
    print(f"one {grid_n}x{grid_n} field, max value {field.max():.3f}")
    print("level-set sizes on this field:")
    for eta in (0.2, 0.4, 0.6, 0.8):
        thr = level_threshold(grid_n, eta)
        count = int((field >= thr).sum())
        print(f"  eta={eta}: threshold {thr:6.3f}, {count:5d} sites "
              f"(mean over fields would be {expected_level_count(grid_n, eta):8.2f})")

    eta = 0.3
    est = estimate_daviaud_exponent([32, 64, 128], eta, replicas=60, seed=5)
    print(f"\nexponent run at eta={eta} (limit 2(1 - eta^2) = {est.limit}):")
    for point in est.points:
        exp = point.exponent
        print(f"  N={point.grid_n:4d}: mean count {point.counts.mean:8.2f}, "
              f"exponent {exp.mean:.4f} +/- {exp.stderr:.4f}")
    print(f"  cross-size fit slope {est.fit.slope:.4f} "
          f"(creeping up toward {est.limit} as N grows)")


if __name__ == "__main__":
    main()
