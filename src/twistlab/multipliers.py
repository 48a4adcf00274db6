"""Group 2-cocycles with values in U(1), with exact rational turns.

A multiplier sigma assigns a phase to each pair of group elements and
satisfies the normalized cocycle identity

    sigma(g1 g2, g3) sigma(g1, g2) = sigma(g1, g2 g3) sigma(g2, g3),
    sigma(e, g) = sigma(g, e) = 1.

Multipliers with a closed form are held in a normal form: a rational
pairing P with sigma(x, y) = exp(2 pi i x^T P y) on Z^k, a table of turns
on a finite table group, and a ``ProductMultiplier`` of two normal forms on
a product group.  sigma = 1 is no class of its own: ``trivial_multiplier``
returns the zero pairing, the zero table, or a pair of those on a product.
Powers, conjugates, coboundaries and twists by exact phase maps on finite
table groups, lattice characters or quadratic gauge changes return normal
forms, and two normal forms are equal exactly when their pairings or
tables differ by integers (Kleppner, Math. Ann. 1965), factor by factor on
products.  Twists by random lattice phase maps (``TwistedMultiplier``)
and the geometric construction from a lattice gauge potential stay lazy
and are compared, still as exact turns, on a finite window, which
``multipliers_equal`` reports as "exhaustive" or "sampled", not "decided".

Every multiplier gives sigma(g, h) as an integer pair (n, d) for n / d
turns, and its float as ``phases.root(n, d)``.  Normal forms take n from an
integer numerator over one common denominator D fixed at construction;
lazy forms and products combine the pairs of their parts.

Pairings and tables have a JSON form; product multipliers have none, and
``{"kind": "trivial"}`` reads on every group kind.

``CheckReport`` is the one record of a checked law in the package; its
``how`` tells a decided verdict from an exhaustive or a sampled one, and
``CheckReport.from_cases`` is the one rule that builds it from evaluated cases.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import TwistlabError, require_int
from .groups import (
    FiniteTableGroup,
    FreeAbelianGroup,
    Group,
    ProductGroup,
    character_turn_tables,
)
from .phases import Phase, as_rational, rational_str, root

# Finite groups up to this order are checked on every pair or triple, not sampled.
_EXHAUSTIVE_ORDER = 24


class MultiplierError(TwistlabError):
    """Raised for malformed multiplier data or unsupported requests."""


class PhaseMap:
    """A U(1)-valued function z on a group with z(e) = 1.

    Used for coboundaries, gauge changes and characters.  ``turns(g)``
    returns the angle as a Fraction of a turn reduced mod 1.  ``scaled(s)``
    multiplies the turns and the coboundary pairing by s, and
    ``conjugate()`` is ``scaled(-1)``.
    """

    def __init__(self, group: Group, turns_fn: Callable):
        self.group = group
        self._turns_fn = turns_fn
        # The matrix B with dz(g, h) = g^T B h in turns, for characters and
        # quadratic gauge changes on Z^k; None when dz has no such form.
        self.coboundary_pairing = None

    def turns(self, g) -> Fraction:
        return as_rational(self._turns_fn(g)) % 1

    def __call__(self, g) -> complex:
        return Phase(self._turns_fn(g)).value

    def conjugate(self) -> "PhaseMap":
        return self.scaled(-1)

    def scaled(self, s) -> "PhaseMap":
        s = as_rational(s)
        out = PhaseMap(self.group, lambda g: as_rational(self._turns_fn(g)) * s)
        out.coboundary_pairing = _scaled_matrix(self.coboundary_pairing, s)
        return out

    @classmethod
    def one(cls, group: Group) -> "PhaseMap":
        return cls(group, lambda g: Fraction(0))

    @classmethod
    def from_table(cls, group: FiniteTableGroup, turn_values: Sequence) -> "PhaseMap":
        table = [as_rational(t) % 1 for t in turn_values]
        if len(table) != group.n:
            raise MultiplierError("phase table must list one turn per group element")
        if table[group.identity_index] != 0:
            raise MultiplierError("phase maps must send the identity to 1")
        return cls(group, lambda g: table[g])

    @classmethod
    def character_on_lattice(cls, group: FreeAbelianGroup, turn_vector: Sequence) -> "PhaseMap":
        vec = [as_rational(t) for t in turn_vector]
        if len(vec) != group.rank:
            raise MultiplierError("character needs one turn per lattice generator")
        z = cls(group, lambda g: sum(v * a for v, a in zip(vec, g)))
        z.coboundary_pairing = _zero_matrix(group.rank)
        return z

    @classmethod
    def quadratic_on_lattice(cls, group: FreeAbelianGroup, coeff) -> "PhaseMap":
        """z(g) = exp(2 pi i c g_1 g_2) on Z^2, the gauge-change profile."""
        if group.rank != 2:
            raise MultiplierError("quadratic phase maps are defined on Z^2")
        c = as_rational(coeff)
        z = cls(group, lambda g: c * g[0] * g[1])
        z.coboundary_pairing = ((Fraction(0), -c), (-c, Fraction(0)))
        return z

    @classmethod
    def product(cls, group: ProductGroup, left: "PhaseMap", right: "PhaseMap") -> "PhaseMap":
        return cls(group, lambda g: left._turns_fn(g[0]) + right._turns_fn(g[1]))

    @classmethod
    def random_exact(cls, group: Group, rng: random.Random, denominator: int = 24) -> "PhaseMap":
        """Random rational-turn phase map; on infinite groups values are cached lazily."""
        if isinstance(group, FiniteTableGroup):
            turns = [Fraction(rng.randrange(denominator), denominator) for _ in range(group.n)]
            turns[group.identity_index] = Fraction(0)
            return cls.from_table(group, turns)
        if group.is_finite():
            table = {
                g: Fraction(rng.randrange(denominator), denominator)
                for g in group.elements()
            }
            table[group.identity()] = Fraction(0)
            return cls(group, lambda g: table[g])
        cache: dict = {group.identity(): Fraction(0)}

        def fn(g):
            if g not in cache:
                cache[g] = Fraction(rng.randrange(denominator), denominator)
            return cache[g]

        return cls(group, fn)


def all_characters(group: FiniteTableGroup) -> list[PhaseMap]:
    """Every homomorphism of a finite table group into U(1)."""
    return [PhaseMap.from_table(group, table) for table in character_turn_tables(group)]


def product_characters(group: ProductGroup) -> list[PhaseMap]:
    """Characters of a product of finite table groups."""
    if not (isinstance(group.left, FiniteTableGroup) and isinstance(group.right, FiniteTableGroup)):
        raise MultiplierError("character enumeration needs finite factors")
    out = []
    for cl in all_characters(group.left):
        for cr in all_characters(group.right):
            out.append(PhaseMap.product(group, cl, cr))
    return out


def _zero_matrix(n: int) -> tuple:
    return ((Fraction(0),) * n,) * n


def _scaled_matrix(m, s) -> tuple | None:
    return None if m is None else _per_row(lambda row: tuple(x * s for x in row), m)


def _per_row(fn, rows) -> tuple:
    """tuple(map(fn, rows)), with one call per distinct row object (the zero table
    repeats one).  rows must hold its rows, so that no id is reused meanwhile."""
    done = {id(row): row for row in rows}
    done = {key: fn(row) for key, row in done.items()}
    return tuple(done[id(row)] for row in rows)


def _integer_kernel(m) -> tuple[int, tuple]:
    """The common denominator D of a rational matrix and D * m as integers."""
    d = math.lcm(*(x.denominator for row in {id(row): row for row in m}.values() for x in row))
    return d, _per_row(lambda row: tuple(x.numerator * (d // x.denominator) for x in row), m)


class Multiplier:
    """Base class: pairings and tables define ``_numerator`` and ``_denominator``,
    lazy forms and products their own ``_pair``; ``turns`` and ``value`` read ``_pair``."""

    kind = "abstract"
    # The normal form on Z^k or on a finite table group; None when lazy.
    pairing = None
    turn_table = None
    # The integer kernel: turns(g, h) = _numerator(g, h) / _denominator
    # mod 1.  None when lazy.
    _denominator = None

    def __init__(self, group: Group):
        self.group = group

    def _pair(self, g, h) -> tuple[int, int]:
        """The turns of sigma(g, h) as an integer pair (n, d) for n / d, with d > 0."""
        return self._numerator(g, h), self._denominator

    def turns(self, g, h) -> Fraction:
        """Angle of sigma(g, h) as a Fraction of a turn."""
        return Fraction(*self._pair(g, h))

    def value(self, g, h) -> complex:
        return root(*self._pair(g, h))

    def conjugate(self) -> "Multiplier":
        return self.power(-1)

    def power(self, s) -> "Multiplier":
        """sigma^s for exact rational s."""
        raise MultiplierError(f"{self.kind} multipliers have no rational power")

    def twist(self, z: PhaseMap) -> "Multiplier":
        """sigma times the coboundary of z, in normal form when sigma and z allow one."""
        if z.group == self.group:
            if self.pairing is not None and z.coboundary_pairing is not None:
                return BilinearMultiplier(self.group, [
                    [p + b for p, b in zip(prow, brow)]
                    for prow, brow in zip(self.pairing, z.coboundary_pairing)
                ])
            if self.turn_table is not None:
                mul = self.group.mul_table
                zt = [as_rational(z._turns_fn(g)) for g in range(self.group.n)]
                return TableMultiplier(self.group, [
                    [t + zt[g] + zt[h] - zt[mul[g][h]] for h, t in enumerate(row)]
                    for g, row in enumerate(self.turn_table)
                ])
        return TwistedMultiplier(self, z)

    def to_json(self) -> dict:
        raise MultiplierError(f"{self.kind} multipliers have no JSON form")


class BilinearMultiplier(Multiplier):
    """sigma(x, y) = exp(2 pi i x^T P y) on Z^k with rational P.  The pairing P is
    the normal form: powers scale it, and to_json writes it."""

    kind = "bilinear"

    def __init__(self, group: FreeAbelianGroup, pairing: Sequence[Sequence]):
        if not isinstance(group, FreeAbelianGroup):
            raise MultiplierError("bilinear multipliers live on free abelian groups")
        super().__init__(group)
        self.pairing = tuple(tuple(as_rational(x) for x in row) for row in pairing)
        if len(self.pairing) != group.rank or any(len(r) != group.rank for r in self.pairing):
            raise MultiplierError("pairing matrix must be rank x rank")
        self._denominator, numerators = _integer_kernel(self.pairing)
        self._terms = [(i, j, c) for i, row in enumerate(numerators) for j, c in enumerate(row) if c]

    def _numerator(self, g, h) -> int:
        n = 0
        for i, j, c in self._terms:
            n += c * g[i] * h[j]
        return n

    def antisymmetrized(self) -> tuple:
        p = self.pairing
        k = len(p)
        return tuple(tuple(p[i][j] - p[j][i] for j in range(k)) for i in range(k))

    def power(self, s) -> "BilinearMultiplier":
        return BilinearMultiplier(self.group, _scaled_matrix(self.pairing, as_rational(s)))

    def to_json(self) -> dict:
        return {
            "kind": "bilinear",
            "pairing": [[rational_str(x) for x in row] for row in self.pairing],
        }


def magnetic_multiplier(theta, gauge: str = "landau") -> BilinearMultiplier:
    """Magnetic multiplier on Z^2 at rational flux theta.

    landau gauge:    sigma(x, y) = exp(2 pi i theta x_1 y_2)
    symmetric gauge: sigma(x, y) = exp(pi i theta (x_1 y_2 - x_2 y_1))
    Its JSON form is that pairing; multiplier_from_json reads the magnetic form.
    """
    theta = as_rational(theta)
    group = FreeAbelianGroup(2)
    if gauge == "landau":
        pairing = [[0, theta], [0, 0]]
    elif gauge == "symmetric":
        pairing = [[0, theta / 2], [-theta / 2, 0]]
    else:
        raise MultiplierError(f"unknown gauge {gauge!r}")
    return BilinearMultiplier(group, pairing)


def trivial_multiplier(group: Group) -> Multiplier:
    """sigma = 1 in normal form: the zero pairing on Z^k, the zero table on a
    finite table group, and the pair of the factors' zero forms on a product."""
    if isinstance(group, FreeAbelianGroup):
        return BilinearMultiplier(group, _zero_matrix(group.rank))
    if isinstance(group, FiniteTableGroup):
        return TableMultiplier(group, _zero_matrix(group.n))
    if isinstance(group, ProductGroup):
        return ProductMultiplier(group, trivial_multiplier(group.left), trivial_multiplier(group.right))
    raise MultiplierError("trivial multiplier needs an explicit group")


class TableMultiplier(Multiplier):
    """Exact phase table on a finite group.

    Turns are kept as given, not reduced mod 1, so that rational powers of
    a tabulated coboundary dz are the coboundaries of the powers of z.
    """

    kind = "table"

    def __init__(self, group: FiniteTableGroup, turn_table: Sequence[Sequence]):
        if not isinstance(group, FiniteTableGroup):
            raise MultiplierError("table multipliers need a finite table group")
        super().__init__(group)
        self.turn_table = _per_row(lambda row: tuple(map(as_rational, row)), list(turn_table))
        if len(self.turn_table) != group.n or any(len(r) != group.n for r in self.turn_table):
            raise MultiplierError("phase table must be n x n")
        e = group.identity_index
        for i in range(group.n):
            if self.turn_table[e][i] % 1 != 0 or self.turn_table[i][e] % 1 != 0:
                raise MultiplierError("table multiplier is not normalized at the identity")
        self._denominator, self._numerators = _integer_kernel(self.turn_table)

    def _numerator(self, g, h) -> int:
        return self._numerators[g][h]

    def power(self, s) -> "TableMultiplier":
        return TableMultiplier(self.group, _scaled_matrix(self.turn_table, as_rational(s)))

    def to_json(self) -> dict:
        return {
            "kind": "table",
            "phases": [[rational_str(x) for x in row] for row in self.turn_table],
        }


class ProductMultiplier(Multiplier):
    """sigma((g1,g2),(h1,h2)) = left(g1,h1) right(g2,h2) on a product group.

    Its turns combine the pairs of its factors; it keeps no integer kernel."""

    kind = "product"

    def __init__(self, group: ProductGroup, left: Multiplier, right: Multiplier):
        if left.group != group.left or right.group != group.right:
            raise MultiplierError("factor multipliers must match the product factors")
        super().__init__(group)
        self.left = left
        self.right = right

    def _pair(self, g, h) -> tuple[int, int]:
        (nl, dl), (nr, dr) = self.left._pair(g[0], h[0]), self.right._pair(g[1], h[1])
        return nl * dr + nr * dl, dl * dr

    def power(self, s) -> "ProductMultiplier":
        return ProductMultiplier(self.group, self.left.power(s), self.right.power(s))


class TwistedMultiplier(Multiplier):
    """sigma' = sigma * (coboundary of z), kept lazy when sigma or dz has no normal form."""

    kind = "coboundary-twist"

    def __init__(self, base: Multiplier, z: PhaseMap):
        if z.group != base.group:
            raise MultiplierError("twisting phase map must live on the same group")
        super().__init__(base.group)
        self.base = base
        self.z = z

    def _pair(self, g, h) -> tuple[int, int]:
        n, d = self.base._pair(g, h)
        z = self.z.turns
        zn, zd = (z(g) + z(h) - z(self.group.multiply(g, h))).as_integer_ratio()
        return n * zd + zn * d, d * zd

    def power(self, s) -> Multiplier:
        # z is scaled before its turns are reduced mod 1, so a bilinear
        # sigma twisted by a quadratic z stays bilinear under rational powers.
        return self.base.power(s).twist(self.z.scaled(s))


def coboundary(z: PhaseMap) -> Multiplier:
    """The multiplier dz(g, h) = z(g) z(h) / z(gh)."""
    return trivial_multiplier(z.group).twist(z)


@dataclass(frozen=True)
class CheckReport:
    """A checked law: verdict, cases checked, worst defect and its case (None on a
    pass), and ``how``: "decided" (no case evaluated), "exhaustive" or "sampled"."""

    passed: bool
    checked: int
    worst_defect: float
    witness: tuple | None
    how: str

    def __bool__(self) -> bool:
        return self.passed

    @classmethod
    def from_cases(cls, cases, defect: Callable, tol: float = 0.0, how: str = "sampled") -> "CheckReport":
        """The worst defect(*case) over the cases, with the first worst case as witness; the
        law holds at worst <= tol.  A NaN defect is worse than any number: the first one is
        the witness, and the law fails."""
        worst, witness, checked = 0.0, None, 0
        for checked, case in enumerate(cases, 1):
            d = defect(*case)
            if d > worst or (math.isnan(d) and not math.isnan(worst)):
                worst, witness = d, case
        holds = worst <= tol
        return cls(holds, checked, worst, None if holds else witness, how)


def _is_small(group: Group) -> bool:
    """Whether group is finite of order <= _EXHAUSTIVE_ORDER, so that its checks walk every case."""
    return group.is_finite() and len(group.elements()) <= _EXHAUSTIVE_ORDER


def _sample_triples(group: Group, samples: int, seed: int) -> list:
    if _is_small(group):
        return list(itertools.product(group.elements(), repeat=3))
    require_int(samples, 1, MultiplierError, "a sampled cocycle check needs an integer samples >= 1")
    rng = random.Random(seed)
    return [tuple(group.random_element(rng, 4) for _ in range(3)) for _ in range(samples)]


def _table_cocycle_holds(sigma: TableMultiplier) -> bool:
    """Whether every triple and both normalizations hold, in one integer array pass.

    False as well when a sum of four numerators could overflow int64.
    """
    d, rows = sigma._denominator, sigma._numerators
    if max(d, *(abs(x) for row in rows for x in row)) >= 2 ** 61:
        return False
    n = np.array(rows, dtype=np.int64)
    mul = np.array(sigma.group.mul_table)
    g = np.arange(len(mul))
    e = sigma.group.identity_index
    # n(g1 g2, g3) + n(g1, g2) - n(g1, g2 g3) - n(g2, g3) on the axes (g1, g2, g3).
    defects = n[mul[:, :, None], g] + n[:, :, None] - n[g[:, None, None], mul] - n[None]
    return not ((defects % d).any() or (n[e] % d).any() or (n[:, e] % d).any())


def verify_cocycle(sigma: Multiplier, samples: int = 1000, seed: int = 0) -> CheckReport:
    """Check normalization and the 2-cocycle identity as rational turns.

    A pairing x^T P y is bilinear, so it is decided with no triple evaluated;
    otherwise exhaustive on finite groups of order <= 24, else on ``samples``
    (>= 1) seeded triples.  A pass means zero defect on every checked identity;
    the worst defect is a distance on the unit circle.  A table on a small group
    is first decided in one integer array pass; only a failure walks the triples.
    """
    grp = sigma.group
    if isinstance(sigma, BilinearMultiplier):
        return CheckReport(True, 0, 0.0, None, "decided")
    how = "exhaustive" if _is_small(grp) else "sampled"
    if isinstance(sigma, TableMultiplier) and how == "exhaustive" and _table_cocycle_holds(sigma):
        return CheckReport(True, grp.n ** 3, 0.0, None, how)
    e = grp.identity()
    triples = _sample_triples(grp, samples, seed)
    n, d = (sigma.turns, 1) if sigma._denominator is None else (sigma._numerator, sigma._denominator)
    worst, witness = 0.0, None
    for g1, g2, g3 in triples:
        g12, g23 = grp.multiply(g1, g2), grp.multiply(g2, g3)
        if (n(g12, g3) + n(g1, g2) - n(g1, g23) - n(g2, g3)) % d:
            lhs = Phase(sigma.turns(g12, g3) + sigma.turns(g1, g2))
            rhs = Phase(sigma.turns(g1, g23) + sigma.turns(g2, g3))
            defect = abs(lhs.value - rhs.value)
            if witness is None or defect > worst:
                worst, witness = defect, (g1, g2, g3)
        if n(e, g1) % d or n(g1, e) % d:
            defect = max(abs(sigma.value(e, g1) - 1.0), abs(sigma.value(g1, e) - 1.0))
            if witness is None or defect > worst:
                worst, witness = defect, (e, g1, None)
    return CheckReport(witness is None, len(triples), worst, witness, how)


def _pair_set(group: Group, radius: int):
    if _is_small(group):
        return itertools.product(group.elements(), repeat=2)
    require_int(radius, 1, MultiplierError, "comparing multipliers on a ball needs an integer radius >= 1")
    return itertools.product(group.ball(radius), repeat=2)


def _normal_form(sigma: Multiplier):
    """Hashable exact data of sigma, or None when sigma is lazy.

    Pairings and tables are reduced mod 1, so two forms on the same group
    agree exactly when the multipliers are equal.
    """
    matrix = sigma.turn_table if sigma.pairing is None else sigma.pairing
    if matrix is not None:
        return tuple(tuple(x % 1 for x in row) for row in matrix)
    if isinstance(sigma, ProductMultiplier):
        left, right = _normal_form(sigma.left), _normal_form(sigma.right)
        if left is not None and right is not None:
            return left, right
    return None


def _same_multiplier(a: Multiplier, b: Multiplier) -> bool:
    """Whether a = b is decided: a is b, or equal normal forms on one group; False when either
    side is lazy.  It evaluates no pair, and sits on every binary element operation."""
    if a is b or a.group != b.group:
        return a is b
    form = _normal_form(a)
    return form is not None and form == _normal_form(b)


def _turn_distance(na: int, da: int, nb: int, db: int) -> float:
    """The distance mod 1 between na / da and nb / db turns: 0.0 only when equal, never an underflow."""
    r = (na * db - nb * da) % (da * db)
    return max(min(r, da * db - r) / (da * db), math.ulp(0.0)) if r else 0.0


def multipliers_equal(a: Multiplier, b: Multiplier, radius: int = 5) -> CheckReport:
    """Whether a = b: "decided" (no case evaluated, worst defect 0.0 or inf) for one object,
    different groups or two normal forms (Kleppner), else the distance in turns between the exact
    phases on each pair of a group of order <= 24 ("exhaustive") or of ball(radius) ("sampled")."""
    same = _same_multiplier(a, b)
    if same or a.group != b.group or (_normal_form(a) is not None and _normal_form(b) is not None):
        return CheckReport(same, 0, 0.0 if same else math.inf, None, "decided")
    how = "exhaustive" if _is_small(a.group) else "sampled"
    return CheckReport.from_cases(_pair_set(a.group, radius),
                                  lambda g, h: _turn_distance(*a._pair(g, h), *b._pair(g, h)), 0.0, how)


def is_cohomologous_via(sigma: Multiplier, sigma_prime: Multiplier, z: PhaseMap,
                        radius: int = 5) -> CheckReport:
    """Whether sigma' = sigma * dz, as multipliers_equal reports it."""
    return multipliers_equal(sigma.twist(z), sigma_prime, radius)


class LatticeGeometry:
    """Gauge data for Z^2 acting on R^2: psi_g solves d psi_g = g*eta - eta.

    theta is the flux per unit cell in turns.  Angles are handled in turns
    so all values at rational points are exact.  ``offsets`` is an optional
    map g -> rational turns adding a constant to each psi_g, which changes
    the resulting multiplier by an explicit coboundary.
    """

    def __init__(self, theta, gauge: str = "landau", base_point: Sequence = (0, 0),
                 offsets: Callable | None = None):
        self.theta = as_rational(theta)
        if gauge not in ("landau", "symmetric"):
            raise MultiplierError(f"unknown gauge {gauge!r}")
        self.gauge = gauge
        self.base_point = tuple(as_rational(x) for x in base_point)
        if len(self.base_point) != 2:
            raise MultiplierError("base point must be a pair")
        self.offsets = offsets
        self.group = FreeAbelianGroup(2)

    def _psi_pair(self, g, x1: tuple, x2: tuple) -> tuple[int, int]:
        """psi_g at the point with coordinates x1 = (a1, b1) for a1 / b1 and x2 = (a2, b2),
        in turns as an integer pair (n, d) for n / d."""
        (a1, b1), (a2, b2) = x1, x2
        return self._plus_offsets(self._psi_numerator(g, a1, a2, b1, b2), b1, b2, ((1, g),))

    def _psi_numerator(self, g, a1: int, a2: int, b1: int, b2: int) -> int:
        """psi_g at (a1 / b1, a2 / b2) without its offset, in turns times 2 q b1 b2 (theta = p / q)."""
        p = self.theta.numerator
        if self.gauge == "landau":
            return 2 * p * g[0] * a2 * b1
        return p * (g[0] * a2 * b1 - g[1] * a1 * b2)

    def _plus_offsets(self, n: int, b1: int, b2: int, terms) -> tuple[int, int]:
        """n / (2 q b1 b2) plus sign * offset(g) for each (sign, g) in terms, as a pair (n', d')."""
        d = 2 * self.theta.denominator * b1 * b2
        if self.offsets is not None:
            for sign, g in terms:
                off = as_rational(self.offsets(g))
                if g == (0, 0) and off != 0:
                    raise MultiplierError("offset at the identity must vanish")
                n, d = n * off.denominator + sign * off.numerator * d, d * off.denominator
        return n, d

    def vector_potential_turns(self, x: Sequence, direction: int) -> Fraction:
        """Edge potential for the step x -> x + e_direction, in turns."""
        x1, x2 = (as_rational(v) for v in x)
        if self.gauge == "landau":
            # eta = 2 pi theta x_1 dx_2 integrated along the unit edge
            return Fraction(0) if direction == 0 else self.theta * x1
        if direction == 0:
            return -self.theta * x2 / 2
        return self.theta * x1 / 2

    def plaquette_curvature_turns(self, x: Sequence) -> Fraction:
        """Discrete curl of the edge potential on the unit plaquette at x."""
        x1, x2 = (as_rational(v) for v in x)
        a1 = self.vector_potential_turns((x1, x2), 0)
        a2 = self.vector_potential_turns((x1 + 1, x2), 1)
        a3 = self.vector_potential_turns((x1, x2 + 1), 0)
        a4 = self.vector_potential_turns((x1, x2), 1)
        return a1 + a2 - a3 - a4

    def verify_curvature(self) -> bool:
        """Flux per plaquette equals theta on the exhaustive window [-4, 4]^2."""
        for x1 in range(-4, 5):
            for x2 in range(-4, 5):
                if self.plaquette_curvature_turns((x1, x2)) != self.theta:
                    return False
        return True


class GeometricMultiplier(Multiplier):
    """Multiplier built from lattice gauge data at a base point.

    sigma(g, h) = exp(i (psi_h(x0) + psi_g(h x0) - psi_gh(x0))), which is
    independent of x0; the group acts on R^2 by translation.
    """

    kind = "geometric"

    def __init__(self, geometry: LatticeGeometry):
        super().__init__(geometry.group)
        self.geometry = geometry

    def _pair(self, g, h) -> tuple[int, int]:
        # The three psi values share the denominator 2 q b1 b2, since h x0 has x0's denominators.
        geo = self.geometry
        (a1, b1), (a2, b2) = (v.as_integer_ratio() for v in geo.base_point)
        gh = (g[0] + h[0], g[1] + h[1])
        psi = geo._psi_numerator
        n = (psi(h, a1, a2, b1, b2) + psi(g, a1 + h[0] * b1, a2 + h[1] * b2, b1, b2)
             - psi(gh, a1, a2, b1, b2))
        return geo._plus_offsets(n, b1, b2, ((1, h), (1, g), (-1, gh)))

    def power(self, s) -> "GeometricMultiplier":
        # The turns are linear in theta and the offsets together.
        geo, s = self.geometry, as_rational(s)
        offsets = None if geo.offsets is None else (lambda g: s * as_rational(geo.offsets(g)))
        return GeometricMultiplier(LatticeGeometry(geo.theta * s, geo.gauge, geo.base_point, offsets))


def multiplier_from_json(data: dict, group: Group | None = None) -> Multiplier:
    """Build a multiplier from its JSON form.

    ``group`` supplies the underlying group for kinds that need one
    (trivial, table, coboundary twists on finite groups); magnetic and bilinear
    kinds carry their own Z^2 or Z^k structure.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise MultiplierError("multiplier payload must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "trivial":
        return trivial_multiplier(group)
    if kind == "magnetic":
        return magnetic_multiplier(data["theta"], data.get("gauge", "landau"))
    if kind == "bilinear":
        pairing = data["pairing"]
        grp = group if isinstance(group, FreeAbelianGroup) else FreeAbelianGroup(len(pairing))
        return BilinearMultiplier(grp, pairing)
    if kind == "table":
        if not isinstance(group, FiniteTableGroup):
            raise MultiplierError("table multiplier needs a finite table group")
        return TableMultiplier(group, data["phases"])
    if kind == "power":
        base = multiplier_from_json(data["base"], group)
        return base.power(data["s"])
    if kind == "coboundary-twist":
        base = multiplier_from_json(data["base"], group)
        zdata = data["z"]
        z = phase_map_from_json(zdata, base.group)
        return base.twist(z)
    raise MultiplierError(f"unknown multiplier kind {kind!r}")


def phase_map_from_json(data: dict, group: Group) -> PhaseMap:
    if not isinstance(data, dict):
        raise MultiplierError("phase map payload must be an object")
    if "entries" in data:
        if not isinstance(group, FiniteTableGroup):
            raise MultiplierError("entry tables need a finite table group")
        return PhaseMap.from_table(group, data["entries"])
    if "character" in data:
        if not isinstance(group, FreeAbelianGroup):
            raise MultiplierError("character data needs a free abelian group")
        return PhaseMap.character_on_lattice(group, data["character"])
    if "quadratic" in data:
        if not isinstance(group, FreeAbelianGroup):
            raise MultiplierError("quadratic data needs a free abelian group")
        return PhaseMap.quadratic_on_lattice(group, data["quadratic"])
    raise MultiplierError("phase map payload needs 'entries', 'character' or 'quadratic'")
