#!/usr/bin/env python
"""Coherent-formation error trend: exact trace distance vs copy count.

State-vector exact up to n = 10; prints both the exact error and the
analytic nu-decomposition bound so the measured exponent can be fitted
externally.  An analytic row (n > 10) leaves the exact error empty.  An
n whose surrogate runs short of degeneracy labels, an outcome of the
protocol, is written with empty error fields and the shortfall in the
trailing ``note`` column.
"""

from __future__ import annotations

import argparse
import math

from athermal.coherent import (
    CoherentTarget,
    DegeneracyShortfallError,
    ReferenceFrame,
    coherent_formation_error,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a2", type=float, default=0.5,
                        help="|a|^2 of phi1 = a|0> + b|1>")
    parser.add_argument("--p", type=float, default=1.0)
    parser.add_argument("--n-grid", type=str, default="4,6,8,10")
    args = parser.parse_args()
    for flag, value in (("--a2", args.a2), ("--p", args.p)):
        if not 0.0 <= value <= 1.0:
            parser.error(f"{flag} must lie in [0, 1], got {value!r}")

    a = math.sqrt(args.a2)
    b = math.sqrt(1 - args.a2)
    print("n,window_size,exact_trace_distance,analytic_bound,k_tail,note")
    for n in (int(x) for x in args.n_grid.split(",")):
        try:
            report = coherent_formation_error(CoherentTarget(a=a, b=b, p=args.p, n=n))
        except DegeneracyShortfallError as exc:
            print(f"{n},{ReferenceFrame.for_formation(n).window_size},,,,{exc}")
            continue
        exact = report.exact_trace_distance
        print(f"{n},{report.frame.window_size},{'' if exact is None else repr(exact)},"
              f"{report.analytic_bound!r},{report.k_tail!r},")


if __name__ == "__main__":
    main()
