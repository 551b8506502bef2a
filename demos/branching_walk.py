#!/usr/bin/env python3
"""Branching diffusion: lineages, level counts, and the capped system.

Runs one small chronological simulation to trace the rightmost particle's
ancestry, checks level counts against the exact first moment, and couples
a population-capped run to its free twin to show pathwise dominance.
"""

import math

import numpy as np

from levelsim import mc
from levelsim.bbm import (
    BbmRunConfig,
    count_at_or_above,
    expected_count_oracle,
    simulate_bbm,
    simulate_nbbm,
)


def main() -> None:
    t = 4.0
    cfg = BbmRunConfig(t_end=t, snapshot_times=(1.0, 2.0, 3.0, 4.0))
    pops = simulate_bbm(cfg, mc.replica_rng(7, 0))
    final = pops[-1]
    print(f"population at t={t}: {final.count} particles (mean e^t = {math.exp(t):.1f})")

    # trace the rightmost particle back through the recorded snapshots: each
    # snapshot's ancestors index the previous snapshot's positions
    line = [int(np.argmax(final.positions))]
    print(f"rightmost particle sits at {final.positions[line[0]]:+.4f}")
    for pop in pops[:0:-1]:
        line.append(int(pop.ancestors[line[-1]]))
    for pop, k in zip(pops, reversed(line)):
        print(f"  ancestor at t={pop.time:.1f}: position {pop.positions[k]:+.4f}")

    # level counts vs the exact first moment e^t P(N(0,t) >= xt), all 2000
    # replicas in one block: one stream, one wave sweep, counts reduced per wave
    print("\nlevel counts at t=4 over 2000 replicas:")
    for x in (0.3, 0.7):
        rng = mc.replica_rng(11, int(10 * x))
        est = mc.summarize(count_at_or_above(t, x * t, rng, 2000))
        oracle = expected_count_oracle(t, x)
        print(f"  x={x}: mean {est.mean:8.3f} +/- {est.stderr:.3f}   oracle {oracle:8.3f}")

    # capped system never outruns the free one, realization by realization
    print("\ncapped-system dominance (cap 10, shared noise):")
    rng = mc.replica_rng(21, 0)
    run = simulate_nbbm(BbmRunConfig(t_end=3.0, snapshot_times=(1.5, 3.0)), 10, rng)
    for snap in run.snapshots:
        print(
            f"  t={snap.time:.1f}: capped max {snap.max_position:+.4f} "
            f"<= free max {snap.bbm_max_position:+.4f}  dominated={snap.dominated}"
        )


if __name__ == "__main__":
    main()
