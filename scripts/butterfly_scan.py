"""Scan Harper band spectra over rational flux values and write the CSV.

For every reduced fraction p/q with q <= qmax the magnetic algebra on Z^2
is built exactly and the Bloch fibers are diagonalized on a uniform k-grid.
Besides the raw CSV a short per-flux summary (band count, edges, widest
gap) is printed so the butterfly structure can be eyeballed from a
terminal.
"""

import argparse
import sys

from twistlab import (
    butterfly_csv,
    harper_element,
    magnetic_multiplier,
    reduced_fractions,
    spectrum_union,
)


def summarize(theta, kgrid, coefficients):
    sigma = magnetic_multiplier(theta)
    h = harper_element(sigma, coefficients)
    spec = spectrum_union(h, kgrid=kgrid)
    lo, hi = spec.bands[0][0], spec.bands[-1][1]
    widest = max((g[1] - g[0] for g in spec.gaps), default=0.0)
    return (f"theta={str(theta):>5}  q={spec.q}  bands={spec.distinct_band_count()}"
            f"  edges=[{lo:+.6f}, {hi:+.6f}]  widest_gap={widest:.6f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--qmax", type=int, default=8, help="largest denominator")
    ap.add_argument("--kgrid", type=int, default=64, help="k points per axis")
    ap.add_argument("--coefficients", default="1,1,1,1",
                    help="weights of d[x], d[x^-1], d[y], d[y^-1]")
    ap.add_argument("--csv", default=None, help="write the full scan here")
    args = ap.parse_args(argv)

    coefficients = tuple(float(c) for c in args.coefficients.split(","))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.writelines(butterfly_csv(args.qmax, args.kgrid, coefficients))
        print(f"wrote {args.csv}")

    for theta in reduced_fractions(args.qmax):
        print(summarize(theta, args.kgrid, coefficients))
    return 0


if __name__ == "__main__":
    sys.exit(main())
