"""Eta invariant of a mass-shifted Harper operator across flux and mass.

Two sweeps on the magnetic algebra over Z^2:

* flux sweep: eta of h + m at fixed mass for each rational flux p/q,
  including the germ obtained by raising the multiplier to rational
  powers s near 1;
* mass sweep: eta as the mass term m varies at fixed flux, next to the
  net spectral flow of the corresponding Bloch-fiber path, so the integer
  jumps of eta line up with eigenvalue crossings.
"""

import argparse
import sys
from fractions import Fraction

import numpy as np

from twistlab import (
    AlgebraElement,
    BlochMap,
    MatrixPath,
    eta_operator,
    harper_element,
    magnetic_multiplier,
    reduced_fractions,
    spectral_flow,
)


def shifted_harper(theta, mass):
    sigma = magnetic_multiplier(theta)
    h = harper_element(sigma)
    return h + mass * AlgebraElement.unit(sigma)


def flux_sweep(qmax, mass, kgrid, s_grid):
    print(f"# flux sweep, mass={mass}")
    for theta in reduced_fractions(qmax):
        if theta == 0:
            continue
        h = shifted_harper(theta, mass)
        res = eta_operator(h, kgrid=kgrid, s_grid=s_grid)
        germ = "  ".join(f"s={s}: {v:+.6f}" for s, v in res.germ.items())
        print(f"theta={str(theta):>5}  eta={res.eta:+.6f}  {germ}")


def mass_sweep(theta, masses, kgrid):
    print(f"# mass sweep, theta={theta}")
    sigma = magnetic_multiplier(theta)
    h = harper_element(sigma)
    bloch = BlochMap(sigma)
    ks = bloch.grid(kgrid)
    fibers = bloch.fiber_stack(h, ks, ks)
    eye = np.eye(bloch.q)

    prev_mass = None
    for mass in masses:
        res = eta_operator(h + mass * AlgebraElement.unit(sigma), kgrid=kgrid)
        line = f"m={mass:+.3f}  eta={res.eta:+.6f}  kernel_dim={res.kernel.dim}"
        if prev_mass is not None:
            flow = sum(
                spectral_flow(MatrixPath.linear(f + prev_mass * eye, f + mass * eye)).flow
                for f in fibers
            )
            line += f"  fiber_flow_from_prev={flow / len(fibers):+.4f}"
        print(line)
        prev_mass = mass


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--qmax", type=int, default=4)
    ap.add_argument("--mass", type=float, default=1.5)
    ap.add_argument("--kgrid", type=int, default=12)
    ap.add_argument("--flow-kgrid", type=int, default=4,
                    help="k points per axis for the fiber flow sum")
    ap.add_argument("--theta", default="1/3", help="flux for the mass sweep")
    args = ap.parse_args(argv)

    s_grid = ["9/10", "1", "11/10"]
    flux_sweep(args.qmax, args.mass, args.kgrid, s_grid)
    theta = Fraction(args.theta)
    masses = np.linspace(-4.0, 4.0, 9)
    mass_sweep(theta, masses, args.flow_kgrid)
    return 0


if __name__ == "__main__":
    sys.exit(main())
