"""Finitely generated discrete groups with word metric utilities.

Three descriptor kinds are supported: finite groups given by a full
multiplication table, free abelian groups of finite rank, and binary
products of the two.  Elements are plain hashable Python values: an int
index for tables, a tuple of ints for free abelian groups, and a pair
(left, right) for products.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import deque
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import TwistlabError


class GroupError(TwistlabError):
    """Raised for malformed descriptors or foreign elements."""


class Group:
    """Abstract descriptor; see FiniteTableGroup, FreeAbelianGroup, ProductGroup."""

    kind: str = "abstract"

    def identity(self):
        raise NotImplementedError

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def check_element(self, g) -> None:
        """Raise GroupError when g does not belong to this group."""
        raise NotImplementedError

    def generators(self) -> list:
        """Generating set, closed under inversion."""
        raise NotImplementedError

    def word_length(self, g) -> int:
        raise NotImplementedError

    def element_key(self, g):
        """Deterministic sort key used for canonical orderings."""
        raise NotImplementedError

    def is_finite(self) -> bool:
        return False

    def ball(self, radius: int) -> list:
        """Elements with word length <= radius, sorted by (length, key)."""
        elems = self._ball_elements(radius)
        return sorted(elems, key=lambda g: (self.word_length(g), self.element_key(g)))

    def _ball_elements(self, radius: int) -> Iterable:
        raise NotImplementedError

    def conjugacy_class(self, g) -> list:
        raise NotImplementedError

    def random_element(self, rng: random.Random, spread: int = 3):
        """Deterministic pseudo-random element; spread bounds word length-ish size."""
        raise NotImplementedError

    def element_to_json(self, g):
        raise NotImplementedError

    def element_from_json(self, data):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


def _bfs_lengths(group: Group, start, generators: Sequence) -> dict:
    lengths = {start: 0}
    frontier = deque([start])
    while frontier:
        g = frontier.popleft()
        base = lengths[g]
        for s in generators:
            h = group.multiply(s, g)
            if h not in lengths:
                lengths[h] = base + 1
                frontier.append(h)
    return lengths


class FiniteTableGroup(Group):
    """Finite group given by its full multiplication table.

    mul[i][j] is the index of the product of elements i and j; inverses
    are read off the table.  The generator list must be closed under
    inversion so word length is symmetric.
    """

    kind = "finite-table"

    def __init__(
        self,
        mul: Sequence[Sequence[int]],
        identity_index: int = 0,
        generator_indices: Sequence[int] | None = None,
        label: str = "",
    ):
        self.n = len(mul)
        self.mul_table = tuple(tuple(int(x) for x in row) for row in mul)
        self.identity_index = int(identity_index)
        self.label = label
        if self.n == 0:
            raise GroupError("empty multiplication table")
        for row in self.mul_table:
            if len(row) != self.n or any(not (0 <= x < self.n) for x in row):
                raise GroupError("multiplication table is not an n x n index table")
        self.inverse_table = self._derive_inverses()
        if generator_indices is None:
            generator_indices = [i for i in range(self.n) if i != self.identity_index]
        self.generator_indices = tuple(dict.fromkeys(int(i) for i in generator_indices))
        self._lengths: dict | None = None
        self.validate()

    def _derive_inverses(self) -> tuple[int, ...]:
        inv = [-1] * self.n
        e = self.identity_index
        for i in range(self.n):
            for j in range(self.n):
                if self.mul_table[i][j] == e:
                    inv[i] = j
                    break
            if inv[i] < 0:
                raise GroupError(f"element {i} has no inverse in the table")
        return tuple(inv)

    def validate(self) -> None:
        """Group axioms of the table; its shape was checked on construction."""
        n = self.n
        e = self.identity_index
        if not (0 <= e < n):
            raise GroupError("identity index out of range")
        for i in range(n):
            if self.mul_table[e][i] != i or self.mul_table[i][e] != i:
                raise GroupError(f"identity axiom fails at element {i}")
            j = self.inverse_table[i]
            if self.mul_table[i][j] != e or self.mul_table[j][i] != e:
                raise GroupError(f"inverse table wrong at element {i}")
        # Associativity: exhaustive up to order 64, sampled beyond that.
        if n <= 64:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(7)
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(2000))
        for a, b, c in triples:
            if self.mul_table[self.mul_table[a][b]][c] != self.mul_table[a][self.mul_table[b][c]]:
                raise GroupError(f"associativity fails at ({a},{b},{c})")
        for i in self.generator_indices:
            if self.inverse_table[i] not in self.generator_indices:
                raise GroupError(f"generator set not closed under inversion (element {i})")
        if len(self._length_table()) != n:
            raise GroupError("generators do not generate the group")

    def _length_table(self) -> dict:
        if self._lengths is None:
            self._lengths = _bfs_lengths(self, self.identity_index, self.generator_indices)
        return self._lengths

    def identity(self) -> int:
        return self.identity_index

    def multiply(self, g: int, h: int) -> int:
        return self.mul_table[g][h]

    def inverse(self, g: int) -> int:
        return self.inverse_table[g]

    def check_element(self, g) -> None:
        if not isinstance(g, int) or isinstance(g, bool) or not (0 <= g < self.n):
            raise GroupError(f"not an element index of {self!r}: {g!r}")

    def generators(self) -> list[int]:
        return list(self.generator_indices)

    def word_length(self, g: int) -> int:
        table = self._length_table()
        if g not in table:
            raise GroupError(f"element {g} unreachable from the generating set")
        return table[g]

    def element_key(self, g: int) -> int:
        return g

    def is_finite(self) -> bool:
        return True

    def elements(self) -> range:
        return range(self.n)

    def _ball_elements(self, radius: int) -> list[int]:
        return [g for g in range(self.n) if self.word_length(g) <= radius]

    def conjugacy_class(self, g: int) -> list[int]:
        self.check_element(g)
        cls = {self.mul_table[self.mul_table[h][g]][self.inverse_table[h]] for h in range(self.n)}
        return sorted(cls)

    def element_order(self, g: int) -> int:
        self.check_element(g)
        k, h = 1, g
        while h != self.identity_index:
            h = self.mul_table[h][g]
            k += 1
        return k

    def commutator_subgroup(self) -> list[int]:
        """Subgroup generated by all commutators, as a sorted index list."""
        mul, inv = self.mul_table, self.inverse_table
        commutators = {mul[mul[mul[a][b]][inv[a]]][inv[b]] for a in range(self.n) for b in range(self.n)}
        return sorted(_bfs_lengths(self, self.identity_index, commutators))

    def random_element(self, rng: random.Random, spread: int = 3) -> int:
        return rng.randrange(self.n)

    def element_to_json(self, g: int) -> int:
        return int(g)

    def element_from_json(self, data) -> int:
        g = int(data)
        self.check_element(g)
        return g

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "mul": [list(row) for row in self.mul_table],
            "identity": self.identity_index,
            "generators": list(self.generator_indices),
        }

    def __eq__(self, other):
        return (
            isinstance(other, FiniteTableGroup)
            and self.mul_table == other.mul_table
            and self.identity_index == other.identity_index
            and self.generator_indices == other.generator_indices
        )

    def __hash__(self):
        return hash((self.kind, self.mul_table, self.identity_index, self.generator_indices))

    def __repr__(self):
        name = self.label or f"order-{self.n}"
        return f"FiniteTableGroup({name})"


class FreeAbelianGroup(Group):
    """Z^rank with the standard generating set (+-e_i), word length = l1 norm."""

    kind = "free-abelian"

    def __init__(self, rank: int):
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise GroupError(f"rank must be an integer of at least 1, got {rank!r}")
        self.rank = rank

    def identity(self) -> tuple:
        return (0,) * self.rank

    def multiply(self, g, h):
        return tuple(map(operator.add, g, h))

    def inverse(self, g):
        return tuple(-a for a in g)

    def check_element(self, g) -> None:
        if (
            not isinstance(g, tuple)
            or len(g) != self.rank
            or any(not isinstance(a, int) or isinstance(a, bool) for a in g)
        ):
            raise GroupError(f"not an element of Z^{self.rank}: {g!r}")

    def generators(self) -> list[tuple]:
        out = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            out.append(tuple(e))
            e[i] = -1
            out.append(tuple(e))
        return out

    def word_length(self, g) -> int:
        return sum(abs(a) for a in g)

    def element_key(self, g):
        return g

    def _ball_elements(self, radius: int) -> Iterator[tuple]:
        def rec(prefix: tuple, budget: int, left: int):
            if left == 1:
                for a in range(-budget, budget + 1):
                    yield prefix + (a,)
                return
            for a in range(-budget, budget + 1):
                yield from rec(prefix + (a,), budget - abs(a), left - 1)

        return rec((), int(radius), self.rank)

    def conjugacy_class(self, g) -> list:
        self.check_element(g)
        return [g]

    def random_element(self, rng: random.Random, spread: int = 3) -> tuple:
        return tuple(rng.randint(-spread, spread) for _ in range(self.rank))

    def element_to_json(self, g) -> list:
        return list(g)

    def element_from_json(self, data) -> tuple:
        g = tuple(int(a) for a in data)
        self.check_element(g)
        return g

    def to_json(self) -> dict:
        return {"kind": self.kind, "rank": self.rank}

    def __eq__(self, other):
        return isinstance(other, FreeAbelianGroup) and self.rank == other.rank

    def __hash__(self):
        return hash((self.kind, self.rank))

    def __repr__(self):
        return f"FreeAbelianGroup(rank={self.rank})"


class ProductGroup(Group):
    """Direct product of two groups; elements are pairs (left, right)."""

    kind = "product"

    def __init__(self, left: Group, right: Group):
        self.left = left
        self.right = right

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def multiply(self, g, h):
        return (self.left.multiply(g[0], h[0]), self.right.multiply(g[1], h[1]))

    def inverse(self, g):
        return (self.left.inverse(g[0]), self.right.inverse(g[1]))

    def check_element(self, g) -> None:
        if not isinstance(g, tuple) or len(g) != 2:
            raise GroupError(f"not a product element: {g!r}")
        self.left.check_element(g[0])
        self.right.check_element(g[1])

    def generators(self) -> list:
        el, er = self.left.identity(), self.right.identity()
        out = [(s, er) for s in self.left.generators()]
        out.extend((el, s) for s in self.right.generators())
        return out

    def word_length(self, g) -> int:
        return self.left.word_length(g[0]) + self.right.word_length(g[1])

    def element_key(self, g):
        return (self.left.element_key(g[0]), self.right.element_key(g[1]))

    def is_finite(self) -> bool:
        return self.left.is_finite() and self.right.is_finite()

    def elements(self):
        if not self.is_finite():
            raise GroupError("cannot enumerate an infinite group")
        return [
            (a, b) for a in self.left.elements() for b in self.right.elements()
        ]

    def _ball_elements(self, radius: int) -> Iterator:
        for a in self.left.ball(radius):
            la = self.left.word_length(a)
            for b in self.right.ball(radius - la):
                yield (a, b)

    def conjugacy_class(self, g) -> list:
        self.check_element(g)
        return sorted(
            ((a, b) for a in self.left.conjugacy_class(g[0]) for b in self.right.conjugacy_class(g[1])),
            key=self.element_key,
        )

    def random_element(self, rng: random.Random, spread: int = 3):
        return (self.left.random_element(rng, spread), self.right.random_element(rng, spread))

    def element_to_json(self, g) -> list:
        return [self.left.element_to_json(g[0]), self.right.element_to_json(g[1])]

    def element_from_json(self, data):
        if not isinstance(data, (list, tuple)) or len(data) != 2:
            raise GroupError(f"bad product element payload: {data!r}")
        return (self.left.element_from_json(data[0]), self.right.element_from_json(data[1]))

    def to_json(self) -> dict:
        return {"kind": self.kind, "left": self.left.to_json(), "right": self.right.to_json()}

    def __eq__(self, other):
        return (
            isinstance(other, ProductGroup)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((self.kind, self.left, self.right))

    def __repr__(self):
        return f"ProductGroup({self.left!r}, {self.right!r})"


class Homomorphism:
    """Group homomorphism with explicit domain and codomain."""

    def __init__(self, domain: Group, codomain: Group, fn):
        self.domain = domain
        self.codomain = codomain
        self._fn = fn

    def __call__(self, g):
        return self._fn(g)

    @classmethod
    def identity(cls, group: Group) -> "Homomorphism":
        return cls(group, group, lambda g: g)

    @classmethod
    def from_table(cls, domain: FiniteTableGroup, codomain: Group, images: Sequence) -> "Homomorphism":
        images = list(images)
        if len(images) != domain.n:
            raise GroupError("image table must list one codomain element per domain element")
        for h in images:
            codomain.check_element(h)
        hom = cls(domain, codomain, lambda g: images[g])
        hom.verify(exhaustive=True)
        return hom

    @classmethod
    def from_matrix(cls, domain: FreeAbelianGroup, codomain: FreeAbelianGroup, matrix: Sequence[Sequence[int]]) -> "Homomorphism":
        rows = [tuple(int(x) for x in row) for row in matrix]
        if len(rows) != codomain.rank or any(len(r) != domain.rank for r in rows):
            raise GroupError("matrix shape must be codomain.rank x domain.rank")

        def fn(g):
            return tuple(sum(r[i] * g[i] for i in range(domain.rank)) for r in rows)

        return cls(domain, codomain, fn)

    def verify(self, exhaustive: bool = False) -> None:
        """Check multiplicativity (all pairs or 200 random); raises GroupError on a violation."""
        dom = self.domain
        if exhaustive and dom.is_finite():
            pairs = itertools.product(dom.elements(), repeat=2)
        else:
            rng = random.Random(11)
            pairs = ((dom.random_element(rng), dom.random_element(rng)) for _ in range(200))
        for a, b in pairs:
            lhs = self(dom.multiply(a, b))
            rhs = self.codomain.multiply(self(a), self(b))
            if lhs != rhs:
                raise GroupError(f"not a homomorphism at ({a!r}, {b!r})")


def _perm_compose(p: tuple, q: tuple) -> tuple:
    """(p . q)(i) = p[q[i]], apply q first."""
    return tuple([p[i] for i in q])


def _perm_group_from(perms: list[tuple], gens: list[tuple], label: str) -> FiniteTableGroup:
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[_perm_compose(p, q)] for q in perms] for p in perms]
    identity = index[tuple(range(len(perms[0])))]
    gen_idx = []
    for g in gens:
        gen_idx.append(index[g])
        inv = tuple(sorted(range(len(g)), key=lambda i: g[i]))
        if index[inv] not in gen_idx:
            gen_idx.append(index[inv])
    return FiniteTableGroup(mul, identity, gen_idx, label=label)


# Largest order of a tabulated group: S6, whose table has 720 x 720 entries.
MAX_TABLE_ORDER = 720


def _check_order(label: str, order: int) -> None:
    """Refuse a group before any element or table is enumerated."""
    if order > MAX_TABLE_ORDER:
        raise GroupError(f"{label} has more than {MAX_TABLE_ORDER} elements, the cap for table groups")


def _degree_factorial(n: int) -> int:
    """n!, with n clipped to [0, MAX_TABLE_ORDER + 1] so a huge degree stays cheap."""
    return math.factorial(min(max(n, 0), MAX_TABLE_ORDER + 1))


def symmetric_group(n: int) -> FiniteTableGroup:
    """S_n as a table group generated by adjacent transpositions."""
    _check_order(f"S{n}", _degree_factorial(n))
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    gens = []
    for i in range(n - 1):
        t = list(range(n))
        t[i], t[i + 1] = t[i + 1], t[i]
        gens.append(tuple(t))
    return _perm_group_from(perms, gens, f"S{n}")


def alternating_group(n: int) -> FiniteTableGroup:
    """A_n as a table group generated by 3-cycles (0 1 i)."""
    _check_order(f"A{n}", _degree_factorial(n) // 2)
    perms = []
    for p in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
        )
        if inversions % 2 == 0:
            perms.append(tuple(p))
    gens = []
    for i in range(2, n):
        c = list(range(n))
        c[0], c[1], c[i] = c[1], c[i], c[0]
        gens.append(tuple(c))
    return _perm_group_from(perms, gens, f"A{n}")


def cyclic_group(n: int) -> FiniteTableGroup:
    """Z/n with generator 1 (and its inverse)."""
    _check_order(f"C{n}", n)
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = [1 % n, (n - 1) % n] if n > 1 else [0]
    return FiniteTableGroup(mul, 0, gens, label=f"C{n}")


def trivial_group() -> FiniteTableGroup:
    return FiniteTableGroup([[0]], 0, [0], label="1")


def character_turn_tables(group: FiniteTableGroup) -> list[tuple]:
    """All homomorphisms into U(1), as tuples of rational turns per element.

    Characters factor through the abelianization, so the commutator
    subgroup is computed first and candidates are enumerated on a small
    generating set of the quotient.
    """
    n = group.n
    comm = set(group.commutator_subgroup())
    # Coset decomposition: map each element to its minimal coset member.
    rep_of = {
        g: min(group.mul_table[g][c] for c in comm) for g in range(n)
    }
    reps = sorted(set(rep_of.values()))
    rep_index = {r: i for i, r in enumerate(reps)}
    q = len(reps)
    qmul = [
        [rep_index[rep_of[group.mul_table[a][b]]] for b in reps] for a in reps
    ]
    quotient = FiniteTableGroup(qmul, rep_index[rep_of[group.identity_index]], label="ab")

    # Greedy generating set of the quotient.
    qgens: list[int] = []
    reached = {quotient.identity_index}
    for g in range(q):
        if g not in reached:
            qgens.append(g)
            reached = _bfs_lengths(quotient, quotient.identity_index, qgens)

    # The walk below checks turns(x g) = turns(x) + turns(g) on every edge
    # x -> x g of the quotient's Cayley graph, which by induction on word
    # length makes a choice that passes a homomorphism; and two choices
    # differ on a generator, so no character is found twice.
    orders = [quotient.element_order(g) for g in qgens]
    tables = []
    for choice in itertools.product(*(range(o) for o in orders)):
        turns = {quotient.identity_index: Fraction(0)}
        ok = True
        frontier = deque([quotient.identity_index])
        assign = {g: Fraction(k, o) for g, k, o in zip(qgens, choice, orders)}
        while frontier and ok:
            x = frontier.popleft()
            for g, t in assign.items():
                y = quotient.mul_table[x][g]
                val = (turns[x] + t) % 1
                if y in turns:
                    if turns[y] != val:
                        ok = False
                        break
                else:
                    turns[y] = val
                    frontier.append(y)
        if ok and len(turns) == q:
            tables.append(tuple(turns[rep_index[rep_of[g]]] for g in range(n)))
    return sorted(tables)


def group_from_json(data: dict) -> Group:
    """Build a descriptor from its JSON form."""
    if not isinstance(data, dict) or "kind" not in data:
        raise GroupError("group payload must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "finite-table":
        return FiniteTableGroup(
            data["mul"],
            data.get("identity", 0),
            data.get("generators"),
        )
    if kind == "free-abelian":
        return FreeAbelianGroup(data["rank"])
    if kind == "product":
        return ProductGroup(group_from_json(data["left"]), group_from_json(data["right"]))
    raise GroupError(f"unknown group kind {kind!r}")
