import itertools
import random
import time
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistlab import (
    FiniteTableGroup,
    FreeAbelianGroup,
    GroupError,
    Homomorphism,
    ProductGroup,
    alternating_group,
    character_turn_tables,
    cyclic_group,
    group_from_json,
    symmetric_group,
    trivial_group,
)
from twistlab.groups import MAX_BALL_ELEMENTS, MAX_TABLE_ORDER, _bfs_lengths

Z2 = FreeAbelianGroup(2)
S3 = symmetric_group(3)
S4 = symmetric_group(4)
PROD = ProductGroup(Z2, S3)

lattice_elements = st.tuples(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8)
)


def sample(group, count, seed=3):
    rng = random.Random(seed)
    return [group.random_element(rng) for _ in range(count)]


@pytest.mark.parametrize("group", [Z2, S3, S4, PROD, cyclic_group(6)])
def test_group_axioms_on_samples(group):
    e = group.identity()
    for g in sample(group, 40):
        assert group.multiply(g, e) == g
        assert group.multiply(e, g) == g
        assert group.multiply(g, group.inverse(g)) == e
    gs = sample(group, 30, seed=4)
    for a, b, c in zip(gs, gs[1:], gs[2:]):
        assert group.multiply(group.multiply(a, b), c) == group.multiply(
            a, group.multiply(b, c)
        )


@pytest.mark.parametrize("group", [Z2, S3, PROD])
def test_word_length_metric_properties(group):
    assert group.word_length(group.identity()) == 0
    for g in sample(group, 30, seed=5):
        assert group.word_length(g) == group.word_length(group.inverse(g))
    gs = sample(group, 20, seed=6)
    for a, b in zip(gs, gs[1:]):
        assert group.word_length(group.multiply(a, b)) <= group.word_length(
            a
        ) + group.word_length(b)


@given(lattice_elements)
def test_lattice_word_length_is_l1(g):
    assert Z2.word_length(g) == abs(g[0]) + abs(g[1])


def test_lattice_ball_sizes():
    for r in range(5):
        assert len(Z2.ball(r)) == 2 * r * r + 2 * r + 1


def test_a_ball_needs_a_radius_of_at_least_zero():
    for group in (Z2, S3, PROD, trivial_group()):
        assert group.ball(0) == [group.identity()]
        with pytest.raises(GroupError, match="radius >= 0, not -1"):
            group.ball(-1)


def test_a_ball_holds_at_most_its_bound():
    assert len(Z2.ball(44)) == 3961
    assert len(FreeAbelianGroup(4).ball(8)) == 3649
    for group, radius in ((Z2, 45), (FreeAbelianGroup(1), 10**18), (PROD, 44),
                          (ProductGroup(S3, FreeAbelianGroup(1)), 2048)):
        with pytest.raises(GroupError, match=f"more than {MAX_BALL_ELEMENTS} elements"):
            group.ball(radius)


def test_a_ball_stops_enumerating_one_element_past_its_bound(monkeypatch):
    group = FreeAbelianGroup(2)
    made = []
    elements = group._ball_elements

    def counted(radius):
        for g in elements(radius):
            made.append(g)
            yield g

    monkeypatch.setattr(group, "_ball_elements", counted)
    with pytest.raises(GroupError):
        group.ball(10**9)
    assert len(made) == MAX_BALL_ELEMENTS + 1


def test_ball_is_inverse_closed():
    for group in (Z2, S3, PROD):
        ball = group.ball(2)
        as_set = {group.element_key(g) for g in ball}
        assert all(group.element_key(group.inverse(g)) in as_set for g in ball)


def test_symmetric_group_structure():
    assert S3.n == 6
    assert sorted(S3.element_order(g) for g in S3.elements()) == [1, 2, 2, 2, 3, 3]
    sizes = sorted(len(S3.conjugacy_class(g)) for g in {0, 1, 2, 3, 4, 5})
    assert sizes.count(1) == 1
    class_sizes = {len(S3.conjugacy_class(g)) for g in S3.elements()}
    assert class_sizes == {1, 2, 3}


def test_commutator_subgroup_of_s3_is_a3():
    comm = set(S3.commutator_subgroup())
    assert len(comm) == 3
    assert all(S3.element_order(g) in (1, 3) for g in comm)


def test_alternating_group_orders():
    a4 = alternating_group(4)
    assert a4.n == 12
    assert set(a4.commutator_subgroup()) == {
        g for g in a4.elements() if a4.element_order(g) in (1, 2)
    }
    a5 = alternating_group(5)
    assert a5.n == 60
    assert len(a5.commutator_subgroup()) == 60


def test_character_tables_count_matches_abelianization():
    assert len(character_turn_tables(S3)) == 2
    assert len(character_turn_tables(cyclic_group(5))) == 5
    assert len(character_turn_tables(alternating_group(5))) == 1
    for table in character_turn_tables(S3):
        for a in S3.elements():
            for b in S3.elements():
                assert (table[a] + table[b]) % 1 == table[S3.mul_table[a][b]]


def _table_product(left, right):
    """Multiplication table of left x right with (a, b) at index a * right.n + b."""
    n = right.n
    return [[left.mul_table[i // n][j // n] * n + right.mul_table[i % n][j % n]
             for j in range(left.n * n)] for i in range(left.n * n)]


@pytest.mark.parametrize("group", [
    FiniteTableGroup([[i ^ j for j in range(4)] for i in range(4)], label="V4"),
    FiniteTableGroup(_table_product(cyclic_group(2), cyclic_group(4)), label="C2xC4"),
])
def test_characters_of_abelian_groups_that_need_two_generators(group):
    # No element generates the group, so the greedy search must pick two.
    assert max(group.element_order(g) for g in group.elements()) < group.n
    tables = character_turn_tables(group)
    assert len(set(tables)) == len(tables) == group.n
    for table in tables:
        for a in group.elements():
            for b in group.elements():
                assert (table[a] + table[b]) % 1 == table[group.multiply(a, b)]


def _characters_with_full_table_check(group):
    """character_turn_tables as written before it trusted its edge walk:
    each choice is checked again on the whole quotient table, and repeats
    are dropped.  Cubic in the order of a cyclic quotient; the reference."""
    n = group.n
    comm = set(group.commutator_subgroup())
    rep_of = {g: min(group.mul_table[g][c] for c in comm) for g in range(n)}
    reps = sorted(set(rep_of.values()))
    rep_index = {r: i for i, r in enumerate(reps)}
    q = len(reps)
    qmul = [[rep_index[rep_of[group.mul_table[a][b]]] for b in reps] for a in reps]
    quotient = FiniteTableGroup(qmul, rep_index[rep_of[group.identity_index]], label="ab")
    qgens = []
    reached = {quotient.identity_index}
    for g in range(q):
        if g not in reached:
            qgens.append(g)
            reached = _bfs_lengths(quotient, quotient.identity_index, qgens)
    orders = [quotient.element_order(g) for g in qgens]
    tables = []
    seen = set()
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
        if not ok or len(turns) != q:
            continue
        if not all((turns[a] + turns[b]) % 1 == turns[quotient.mul_table[a][b]]
                   for a in range(q) for b in range(q)):
            continue
        full = tuple(turns[rep_index[rep_of[g]]] for g in range(n))
        if full not in seen:
            seen.add(full)
            tables.append(full)
    return sorted(tables)


CHARACTER_GROUPS = [
    S3, S4, alternating_group(4), alternating_group(5),
    *(cyclic_group(n) for n in range(1, 25)),
    FiniteTableGroup([[i ^ j for j in range(4)] for i in range(4)], label="V4"),
    FiniteTableGroup(_table_product(cyclic_group(2), cyclic_group(4)), label="C2xC4"),
    FiniteTableGroup(_table_product(cyclic_group(3), S3), label="C3xS3"),
    FiniteTableGroup(_table_product(cyclic_group(4), cyclic_group(6)), label="C4xC6"),
]


def test_characters_match_the_full_table_check():
    for group in CHARACTER_GROUPS:
        assert character_turn_tables(group) == _characters_with_full_table_check(group), group.label


def test_characters_of_a_large_cyclic_group_are_fast():
    c200 = cyclic_group(200)
    start = time.perf_counter()
    tables = character_turn_tables(c200)
    assert time.perf_counter() - start < 5.0
    assert [t[1] for t in tables] == [Fraction(k, 200) for k in range(200)]


def test_cyclic_group_characters_are_roots_of_unity():
    c4 = cyclic_group(4)
    tables = character_turn_tables(c4)
    assert sorted(t[1] for t in tables) == [
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(3, 4),
    ]


def test_product_group_componentwise():
    g = ((1, -2), 3)
    h = ((0, 1), 4)
    prod = PROD.multiply(g, h)
    assert prod[0] == (1, -1)
    assert prod[1] == S3.multiply(3, 4)
    assert PROD.word_length(g) == Z2.word_length(g[0]) + S3.word_length(g[1])
    assert not PROD.is_finite()
    assert ProductGroup(S3, cyclic_group(3)).is_finite()


def test_homomorphism_projection_and_matrix():
    doubling = Homomorphism.from_matrix(Z2, Z2, [[2, 0], [1, 1]])
    doubling.verify()
    assert doubling((1, 0)) == (2, 1)
    assert doubling((0, 1)) == (0, 1)


def test_a_lattice_map_refuses_entries_that_are_not_integers():
    # int() read 2.7 as 2, so (1,) went to (2,).
    for entry in (2.7, 2.0, True, "2"):
        with pytest.raises(GroupError, match="matrix entry must be an integer"):
            Homomorphism.from_matrix(FreeAbelianGroup(1), FreeAbelianGroup(1), [[entry]])
    assert Homomorphism.from_matrix(FreeAbelianGroup(1), FreeAbelianGroup(1), [[np.int64(2)]])((1,)) == (2,)


@pytest.mark.parametrize("mul, identity, generators, named", [
    ([[0, 1.9], [True, "0"]], 0.7, ["1"], "a table entry"),
    ([[0, 1], [1, 0.0]], 0, None, "a table entry"),
    ([[0, 1], [True, 0]], 0, None, "a table entry"),
    ([[0, 1], [1, 0]], 0.0, None, "the identity index"),
    ([[0, 1], [1, 0]], False, None, "the identity index"),
    ([[0, 1], [1, 0]], 0, ["1"], "a generator index"),
    ([[0, 1], [1, 0]], 0, [1.0], "a generator index"),
], ids=["mixed", "float entry", "bool entry", "float identity", "bool identity", "string generator",
        "float generator"])
def test_a_table_group_refuses_indices_that_are_not_integers(mul, identity, generators, named):
    with pytest.raises(GroupError, match=f"{named} must be an integer"):
        FiniteTableGroup(mul, identity, generators)


def test_a_table_group_takes_numpy_integers():
    table = np.array([[0, 1], [1, 0]])
    group = FiniteTableGroup(table, np.int64(0), [np.int32(1)])
    assert group.mul_table == ((0, 1), (1, 0)) and group.generator_indices == (1,)
    assert all(type(x) is int for row in group.mul_table for x in row)


def test_homomorphism_verify_rejects_non_hom():
    bad = Homomorphism(S3, S3, lambda g: (g + 1) % 6)
    with pytest.raises(GroupError):
        bad.verify()


def test_a_homomorphism_of_finite_groups_verifies():
    c6 = cyclic_group(6)
    c3 = cyclic_group(3)
    pi = Homomorphism(c6, c3, lambda g: g % 3)
    pi.verify()
    assert pi(4) == 1


def test_table_validation_catches_bad_tables():
    with pytest.raises(GroupError):
        FiniteTableGroup([[0, 1], [1, 1]])
    with pytest.raises(GroupError):
        FiniteTableGroup([[1, 0], [0, 0]], identity_index=0)


def test_table_group_orders_are_capped_before_enumeration():
    assert cyclic_group(MAX_TABLE_ORDER).n == MAX_TABLE_ORDER
    assert alternating_group(6).n == 360
    for build, n in ((cyclic_group, MAX_TABLE_ORDER + 1), (cyclic_group, 10**8),
                     (symmetric_group, 7), (symmetric_group, 10**8), (alternating_group, 7)):
        with pytest.raises(GroupError, match="cap for table groups"):
            build(n)


@pytest.mark.parametrize("rank", [2.9, 2.0, True, "2", None, 0, -1])
def test_free_abelian_rank_must_be_a_positive_integer(rank):
    with pytest.raises(GroupError):
        FreeAbelianGroup(rank)
    with pytest.raises(GroupError):
        group_from_json({"kind": "free-abelian", "rank": rank})


def test_trivial_group():
    one = trivial_group()
    assert one.n == 1
    assert one.identity() == 0
    assert one.ball(5) == [0]


@pytest.mark.parametrize("group", [Z2, S3, PROD, cyclic_group(8)])
def test_group_json_round_trip(group):
    back = group_from_json(group.to_json())
    assert back == group
    for g in sample(group, 10, seed=9):
        assert back.element_from_json(group.element_to_json(g)) == g


@pytest.mark.parametrize("group, data", [
    (Z2, [1.9, 0]), (Z2, [1.0, 0]), (Z2, [True, 0]), (Z2, ["1", 0]), (Z2, [1]), (Z2, 1), (Z2, "10"),
    (S3, 2.7), (S3, 2.0), (S3, True), (S3, "2"), (S3, 6), (S3, [2]),
    (PROD, [[1, 0], 2.0]), (PROD, [[1.5, 0], 2]), (PROD, [[1, 0]]),
])
def test_json_elements_are_checked_not_coerced(group, data):
    with pytest.raises(GroupError):
        group.element_from_json(data)


def test_json_elements_of_the_right_kind_are_read():
    assert Z2.element_from_json([1, -2]) == (1, -2)
    assert S3.element_from_json(5) == 5
    assert PROD.element_from_json([[1, 0], 2]) == ((1, 0), 2)


def test_conjugacy_classes_partition_s4():
    seen = {}
    for g in S4.elements():
        cls = frozenset(S4.conjugacy_class(g))
        seen.setdefault(cls, set()).update(cls)
    sizes = sorted(len(c) for c in seen)
    assert sizes == [1, 3, 6, 6, 8]
    assert sum(sizes) == 24
