#!/usr/bin/env python
"""Exhaust-state structure along an instance-size grid.

Executes small distillation plans exactly and reports the per-system
relative entropy of the exhaust to the Gibbs state together with the
Pinsker trace-distance bounds.
"""

from __future__ import annotations

import argparse

from athermal.distill import plan_distillation
from athermal.simulate import exhaust_analysis


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=0.95)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--width", type=float, default=0.75)
    parser.add_argument("--n-grid", type=str, default="4,5,6")
    parser.add_argument("--block-size", type=int, default=1)
    args = parser.parse_args()

    print("n,ell,m,per_system_D,max_block_distance,max_pinsker_bound,subadditivity")
    for n in (int(x) for x in args.n_grid.split(",")):
        plan = plan_distillation(n, args.p, args.beta, args.width)
        report = exhaust_analysis(plan, block_size=args.block_size)
        # A block longer than the exhaust leaves no blocks, and no maxima.
        maxima = ",".join(repr(max(values)) if values else ""
                          for values in (report.measured_trace_distances, report.pinsker_bounds))
        print(f"{n},{plan.ell},{plan.m},{report.per_system_rel_entropy!r},{maxima},"
              f"{report.subadditivity_holds}")


if __name__ == "__main__":
    main()
