#!/usr/bin/env python3
"""Exceedance bound for inhomogeneous branching processes, three ways.

The analytic bound prices P(generation-n size >= threshold) from the
offspring MGFs alone. We pit it against straight simulation and, where the
state space is small enough, exact convolution of the offspring laws.
"""

from levelsim import gw, mc


def main() -> None:
    # growth thresholds from the integer recursion
    seq = gw.b_sequence(3, 1.5, (2.0, 1.0))
    print(f"b_sequence(3, 1.5, (2, 1)) = {seq}")
    print(f"growth cap for the same horizon: {gw.growth_cap(3, 1.5, (2.0, 1.0))}\n")

    check = gw.verify_mgf_condition(gw.OffspringLaw.poisson(1.5), 0.15, 1.1)
    print(f"MGF condition, poisson(1.5) at lambda=0.15: satisfied={check.satisfied}, "
          f"margin={check.slack:.4f}")

    # bounded-support laws keep the exact convolution route open
    law = gw.OffspringLaw.table({0: 0.2, 1: 0.3, 2: 0.5})
    plan = gw.GwPlan(initial=150, laws=(law, law))
    alpha, delta, lam = 1.2, 0.2, 0.2

    bound = gw.prop_bound(plan, alpha, delta, [lam, lam])
    exact = gw.exact_exceedance(plan, bound.threshold)
    print(f"\nthreshold  = {bound.threshold:.1f} (mean of Z_2 is {150 * law.mean ** 2:.1f})")
    print(f"analytic   P(Z_2 >= threshold) <= {bound.probability:.3e}")
    print(f"exact      P(Z_2 >= threshold) =  {exact:.3e}")

    rplan = mc.ReplicaPlan(replicas=20_000, master_seed=2024)
    emp = gw.empirical_exceedance(plan, bound.threshold, rplan)
    hits = round(emp.estimate.mean * emp.estimate.replicas)
    print(f"simulated  {hits} exceedances in {emp.estimate.replicas} replicas "
          f"(95% upper bound {emp.estimate.ci_high:.3e})")

    assert exact <= bound.probability
    print("\nthe event is far too rare for naive sampling; the convolution still")
    print("pins its probability exactly, and it sits under the bound as it must.")


if __name__ == "__main__":
    main()
