"""Products, powers and dimensions, cross-checked against slow oracles.

The brute-force fillers in this file are deliberately independent of the
library code paths: dimensions are counted as explicit semistandard
fillings and by the hook content formula, standard-tableau counts come from
the hook length formula, and the two product algorithms (signed column expansion and skew-filling count) must
agree term by term.
"""

import json
import sys
import tracemalloc
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab import (
    LRElement,
    Partition,
    all_subdivisions,
    clear_caches,
    cone_generator_decomposition,
    cone_membership,
    dominance_compare,
    Dominance,
    gl_dimension,
    lcm_upto,
    lr_coefficient,
    minimal_uniform_exponent,
    mul,
    mul_element,
    mul_tableau,
    partitions_of,
    partitions_up_to,
    property_holds,
    single_column,
    tensor_power,
    term_budget,
    theorem_bound,
    transfer_witness,
    verify_lemma,
)
from lrlab import product, verify
from lrlab.errors import BudgetExceeded, InternalCheckError, InvalidPartition, LRLabError
from lrlab.powercache import PowerCache
from lrlab.subdivisions import Subdivision


def P(*parts):
    return Partition(parts)


def E(d, cap=None):
    return LRElement({P(*k): v for k, v in d.items()}, cap=cap)


def count_ssyt(shape: Partition, d: int) -> int:
    """Semistandard fillings with entries 1..d, counted by raw backtracking."""
    rows = shape.parts
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    grid = {}

    def rec(k):
        if k == len(cells):
            return 1
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, d + 1):
            grid[(i, j)] = v
            total += rec(k + 1)
        grid.pop((i, j), None)
        return total

    return rec(0)


def hook_length_syt(shape: Partition) -> int:
    """Number of standard tableaux via the hook length formula."""
    conj = shape.conjugate()
    denom = 1
    for i, row in enumerate(shape.parts, 1):
        for j in range(1, row + 1):
            denom *= (row - j) + (conj[j - 1] - i) + 1
    return factorial(shape.weight) // denom


def hook_content_dimension(shape: Partition, d: int) -> int:
    """prod (d + content) / hook over the cells; zero beyond d rows."""
    conj = shape.conjugate()
    num = den = 1
    for i, row in enumerate(shape.parts, 1):
        for j in range(1, row + 1):
            num *= d + j - i
            den *= (row - j) + (conj[j - 1] - i) + 1
    return num // den


class TestDimensionOracle:
    def test_hook_content_matches_ssyt_count(self):
        for d in range(1, 5):
            for p in partitions_up_to(5):
                assert gl_dimension(p, d) == count_ssyt(p, d), (p, d)

    def test_weyl_matches_hook_content(self):
        for d in range(1, 7):
            for p in partitions_up_to(10):
                assert gl_dimension(p, d) == hook_content_dimension(p, d), (p, d)

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            gl_dimension(P(1), 0)

    def test_spec_values(self):
        assert gl_dimension(P(1, 1), 3) == 3
        assert gl_dimension(P(2), 2) == 3

    def test_vanishes_beyond_rank(self):
        assert gl_dimension(P(1, 1, 1), 2) == 0

    def test_unit(self):
        assert gl_dimension(Partition(), 4) == 1


class TestColumnStep:
    def test_single_box(self):
        assert mul(P(1), single_column(1)) == E({(2,): 1, (1, 1): 1})

    def test_hook_times_box(self):
        assert mul(P(2, 1), single_column(1)) == E({(3, 1): 1, (2, 2): 1, (2, 1, 1): 1})

    def test_box_times_column(self):
        assert mul(P(1), single_column(2)) == E({(2, 1): 1, (1, 1, 1): 1})

    def test_unit_cases(self):
        assert mul(P(3, 1), single_column(0)) == E({(3, 1): 1})
        assert mul(Partition(), single_column(3)) == E({(1, 1, 1): 1})

    def test_column_times_column_closed_form(self):
        for s in range(1, 7):
            for r in range(1, s + 1):
                lhs = mul(single_column(r), single_column(s))
                rhs = LRElement.zero()
                for k in range(r + 1):
                    rhs = rhs + LRElement.basis(
                        single_column(r - k).plus(single_column(s + k))
                    )
                assert lhs == rhs, (r, s)


CAPPED_SUITES = ["CHI", "ATENSORL", "EXCHANGE", "G_IN_TENSOR", "H_IN_TENSOR", "H_MULT_P",
                 "A_MULT_PP", "MULT_CIRC", "CHI_SYMMETRY"]
UNCAPPED_SUITES = ["SMALLER", "MULT_PLUS", "MULT_INERT", "HIGHEST_TERM", "PSEQ"]


def strips_oracle(parts, r, cap):
    """Vertical strips of height r added to parts, by the strip step's recursion unmemoised."""
    if r == 0:
        return (parts,) if cap is None or len(parts) <= cap else ()
    if not parts:
        return ((1,) * r,) if cap is None or r <= cap else ()
    head, tail = parts[0], parts[1:]
    res = []
    for u in strips_oracle(tail, r - 1, cap):
        v = (head + 1,) + u
        if cap is None or len(v) <= cap:
            res.append(v)
    for u in strips_oracle(tail, r, cap):
        if not u or head >= u[0]:
            v = (head,) + u
            if cap is None or len(v) <= cap:
                res.append(v)
    return tuple(res)


def capped_strips(parts, r, cap):
    """The packed strip step under cap, through _apply: parts times one column of height r."""
    got, _ = product._apply({parts: 1}, {(r,): 1}, cap, product.DEFAULT_TERM_BUDGET)
    assert set(got.values()) <= {1}
    return tuple(got)


class TestStripStep:
    """The strip steps against an unmemoised copy of the tuple recursion: the
    memoised, interned one uncapped, the packed one under a cap."""

    def test_matches_unmemoised_recursion_in_order(self):
        # caps 0 to 8, the caps about the mask edge (one row past the start plus r) and one far
        # past it, on every partition of weight 10 or less and on starts of 20 to 40 rows
        small = [a.parts for a in partitions_up_to(10)]
        tall = [(1,) * 20, (2,) * 12 + (1,) * 9, tuple(range(30, 0, -1)), (3,) * 10 + (2,) * 15 + (1,) * 15]
        clear_caches()
        for _ in ("cold", "warm"):
            for r in range(7):
                for a in partitions_up_to(10):
                    assert product._pieri(a.parts, r) == strips_oracle(a.parts, r, None), (a, r)
            for cap in range(9):
                for r in range(7):
                    for a in partitions_up_to(10):
                        got = capped_strips(a.parts, r, cap)
                        assert got == strips_oracle(a.parts, r, cap), (a, r, cap)
            for r in range(7):
                for parts in small + tall * (r < 4):
                    edge = len(parts) + r
                    for cap in {edge - 1, edge, edge + 1, 10**6} - {-1}:
                        got = capped_strips(parts, r, cap)
                        assert got == strips_oracle(parts, r, cap), (parts, r, cap)

    def test_equal_partitions_are_one_object(self):
        clear_caches()
        x = product._pieri((2, 1), 1)  # (3, 1), (2, 2), (2, 1, 1)
        y = product._pieri((1, 1), 2)  # (2, 2), (2, 1, 1), (1, 1, 1, 1)
        assert x[1] is y[0] and x[2] is y[1]
        first = {}
        for r in range(4):
            for a in partitions_up_to(6):
                for u in product._pieri(a.parts, r):
                    assert first.setdefault(u, u) is u
                if len(a) <= 3:
                    for u in capped_strips(a.parts, r, 3):
                        assert first.setdefault(u, u) is u

    def test_memo_and_intern_counts_after_a_power(self):
        # counts, not bytes
        clear_caches()
        tensor_power(P(3, 1), 8)
        assert sum(len(table) for table in product._pieri_memo.values()) == 58_884
        assert len(product._canon) == 35_452

    def test_tall_shapes_recurse_once_per_run_of_equal_rows(self):
        # a recursion one row per level overflows the stack at 1,000 rows
        clear_caches()
        assert mul(P(*[2] * 1000), P(1)) == E({(3,) + (2,) * 999: 1, (2,) * 1000 + (1,): 1})
        clear_caches()
        assert mul(P(300), P(300)) == E({(600 - k, k): 1 for k in range(301)})
        assert sum(len(table) for table in product._pieri_memo.values()) == 302
        assert len(product._canon) == 903
        column = P(*[1] * 400)
        assert mul(column, column) == E({(2,) * k + (1,) * (800 - 2 * k): 1 for k in range(401)})
        clear_caches()

    def test_capped_power_builds_no_strip_table(self):
        # a capped step keeps one pattern tuple per (cap, bits, height, runs of equal rows),
        # not one strip tuple per partition
        clear_caches()
        tensor_power(P(4, 2, 1), 8, cap=4)
        assert product._pieri_memo == {}
        assert sum(len(table) for table in product._pattern_memo.values()) == 112
        # nor with a cap that cuts no partition of the expanded factor's weight
        for call in (
            lambda: tensor_power(P(2, 1), 6, cap=3),
            lambda: mul(P(2, 1), P(1), cap=5),
            lambda: mul_element(E({(2, 1): 1, (1, 1, 1): 1}, cap=3), P(2, 1)),
        ):
            clear_caches()
            call()
            assert product._pieri_memo == {}
        clear_caches()

    def test_patterns_span_the_rows_a_strip_reaches_not_the_cap(self):
        # row 0 sits in the low bits, so a pattern is as wide as the rows it touches
        clear_caches()
        power = tensor_power(P(2, 1), 8, cap=1000)
        assert power.items() == tensor_power(P(2, 1), 8).items()
        for (cap, bits, _), table in product._pattern_memo.items():
            assert cap == 1000
            for patterns in table.values():
                assert all(v.bit_length() < 24 * bits for v in patterns)
        clear_caches()

    def test_a_tall_column_costs_its_rows_not_their_square(self):
        # one strip of 2,000 rows: a pattern per run, not an int per row and a partial per height
        clear_caches()
        tracemalloc.start()
        try:
            got = mul(P(*[1] * 2000), P(1), cap=2001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            clear_caches()
        assert got == E({(2,) + (1,) * 1999: 1, (1,) * 2001: 1}, cap=2001)
        assert peak < 1 << 20

    def test_pattern_tables_do_not_grow_with_the_cap(self):
        # the run masks span the rows a call reaches, so a stored runs key holds its own rows
        clear_caches()
        tracemalloc.start()
        try:
            tensor_power(P(2, 1), 8, cap=100000)
            held, _ = tracemalloc.get_traced_memory()
            product._pattern_memo.clear()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 4 << 20
        tables = {}
        for cap in (1000, 10**6):
            clear_caches()
            tensor_power(P(2, 1), 8, cap=cap)
            tables[cap] = {(bits, r): table for (_, bits, r), table in product._pattern_memo.items()}
        clear_caches()
        assert tables[1000] == tables[10**6]

    def test_a_cap_steps_past_the_recursion_limit(self):
        # the uncapped strip step recurses once per distinct part; the capped one does not
        staircase = P(*range(300, 0, -1))
        parts = staircase.parts
        grown = [parts[:i] + (301 - i,) + parts[i + 1 :] for i in range(301)]  # row i holds 300 - i
        clear_caches()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            with pytest.raises(RecursionError):
                mul(staircase, P(1))
            clear_caches()
            got = mul(staircase, P(1), cap=301)
        finally:
            sys.setrecursionlimit(limit)
            clear_caches()
        assert got == E(dict.fromkeys(grown, 1), cap=301)

    def test_a_start_longer_than_the_cap_is_zero(self):
        assert product._apply({(2, 1): 1}, {(1,): 1}, 1, product.DEFAULT_TERM_BUDGET) == ({}, 0)
        got, _ = product._apply({(2, 1): 1, (1,): 2}, {(1,): 1}, 1, product.DEFAULT_TERM_BUDGET)
        assert got == {(2,): 2}

    @pytest.mark.parametrize(
        "lemma_id, untouched",
        [(name, "_pieri_memo") for name in CAPPED_SUITES]
        + [(name, "_pattern_memo") for name in UNCAPPED_SUITES],
    )
    def test_each_suite_keeps_to_its_representation(self, lemma_id, untouched):
        # a capped call steps on packed ints, whatever its cap; an uncapped one on tuples
        clear_caches()
        verify_lemma(lemma_id)
        assert getattr(product, untouched) == {}
        clear_caches()

    def test_parts_of_2_to_the_16_under_a_cap(self):
        # B follows the largest part the call can build, here 17 bits and a spare
        clear_caches()
        assert tensor_power(P(70000), 1, cap=1) == mul_tableau(P(70000), P(), cap=1)
        assert mul(P(70000), P(1), cap=2) == mul_tableau(P(70000), P(1), cap=2)
        assert tensor_power(P(70000), 2, cap=1) == E({(140000,): 1}, cap=1)
        clear_caches()

    def test_caps_past_8_match_tableau_oracle(self):
        # caps 9 to 12, and two far past every row count, on every unordered pair of weight 6 or less
        pool = list(partitions_up_to(6))
        for cap in (*range(9, 13), 1000, 10**6):
            clear_caches()
            for i, a in enumerate(pool):
                for b in pool[i:]:
                    if a.weight + b.weight <= 6:
                        assert mul(a, b, cap=cap) == mul_tableau(a, b, cap=cap), (a, b, cap)
        clear_caches()


class TestMul:
    def test_hook_squared(self):
        assert mul(P(2, 1), P(2, 1)) == E(
            {
                (4, 2): 1,
                (4, 1, 1): 1,
                (3, 3): 1,
                (3, 2, 1): 2,
                (3, 1, 1, 1): 1,
                (2, 2, 2): 1,
                (2, 2, 1, 1): 1,
            }
        )

    def test_unit(self):
        assert mul(P(3, 1), Partition()) == E({(3, 1): 1})
        assert mul(Partition(), P(3, 1)) == E({(3, 1): 1})

    def test_row_squared(self):
        assert mul(P(2), P(2)) == E({(4,): 1, (3, 1): 1, (2, 2): 1})

    def test_agrees_with_tableau_oracle(self):
        pool = list(partitions_up_to(4))
        for a in pool:
            for b in pool:
                assert mul(a, b) == mul_tableau(a, b), (a, b)

    def test_grading(self):
        for a in partitions_up_to(6):
            for b in partitions_up_to(6 - a.weight):
                for c, _ in mul(a, b).items():
                    assert c.weight == a.weight + b.weight

    def test_commutative(self):
        pool = list(partitions_up_to(5))
        for a in pool:
            for b in pool:
                if a.weight + b.weight <= 10:
                    assert mul(a, b) == mul(b, a)

    def test_associative(self):
        pool = list(partitions_up_to(4))
        for a in pool:
            for b in pool:
                for c in pool:
                    if a.weight + b.weight + c.weight > 10:
                        continue
                    left = mul_element(mul(a, b), c)
                    right = mul_element(mul(b, c), a)
                    assert left == right, (a, b, c)

    def test_highest_term(self):
        for a in partitions_up_to(6):
            for b in partitions_up_to(6):
                prod = mul(a, b)
                top = a.plus(b)
                assert prod[top] == 1
                for c, _ in prod.items():
                    if c != top:
                        assert dominance_compare(top, c) is Dominance.GREATER

    def test_sum_inside_product(self):
        # the pointwise sum of a tuple always appears in its product
        pool = list(partitions_up_to(9))
        for a in pool:
            for b in pool:
                if a.weight + b.weight > 9:
                    continue
                assert mul(a, b)[a.plus(b)] >= 1
                for c in pool:
                    if a.weight + b.weight + c.weight > 9:
                        continue
                    triple = mul_element(mul(a, b), c)
                    assert triple[a.plus(b).plus(c)] >= 1

    def test_determinant_shift(self):
        for l in range(1, 4):
            det = single_column(l)
            for a in partitions_up_to(5, max_len=l):
                for b in partitions_up_to(5, max_len=l):
                    lhs = mul(det.plus(a, l), b, cap=l)
                    rhs = mul(a, b, cap=l).shift_add(det)
                    assert lhs == rhs, (l, a, b)

    def test_conjugation_symmetry(self):
        pool = list(partitions_up_to(5))
        for a in pool:
            for b in pool:
                mirrored = LRElement(
                    {c.conjugate(): m for c, m in mul(a, b).items()}
                )
                assert mirrored == mul(a.conjugate(), b.conjugate())


class TestCoefficient:
    def test_two_fillings(self):
        assert lr_coefficient(P(2, 1), P(2, 1), P(3, 2, 1)) == 2

    def test_single_filling(self):
        assert lr_coefficient(P(2, 1), P(2, 1), P(4, 2)) == 1

    def test_weight_mismatch(self):
        assert lr_coefficient(P(2, 1), P(2, 1), P(4, 3)) == 0

    def test_matches_full_product(self):
        pool = list(partitions_up_to(4))
        for a in pool:
            for b in pool:
                prod = mul(a, b)
                for c in partitions_of(a.weight + b.weight):
                    assert prod[c] == lr_coefficient(a, b, c)


class TestQuotient:
    def test_truncation_equals_capped_product(self):
        a = b = P(2, 1)
        assert mul(a, b).truncated(2) == mul(a, b, cap=2)
        assert mul(a, b, cap=2) == E({(4, 2): 1, (3, 3): 1}, cap=2)

    def test_quotient_is_multiplicative(self):
        pool = list(partitions_up_to(4))
        for l in (1, 2, 3):
            for a in pool:
                for b in pool:
                    assert mul(a, b).truncated(l) == mul(a, b, cap=l)

    def test_long_operand_maps_to_zero(self):
        assert mul(P(1, 1, 1), P(1), cap=2) == LRElement.zero(cap=2)
        assert mul(P(), P(1, 1), cap=1) == LRElement.zero(cap=1)


class TestPower:
    def test_zeroth(self):
        assert tensor_power(P(3, 1), 0) == LRElement.unit()

    def test_square_capped(self):
        assert tensor_power(P(2), 2, cap=2) == E(
            {(4,): 1, (3, 1): 1, (2, 2): 1}, cap=2
        )

    def test_box_cubed(self):
        assert tensor_power(P(1), 3) == E({(3,): 1, (2, 1): 2, (1, 1, 1): 1})

    def test_multiplicities_count_standard_tableaux(self):
        for n in range(1, 6):
            power = tensor_power(P(1), n)
            for shape in partitions_of(n):
                assert power[shape] == hook_length_syt(shape), (n, shape)

    def test_power_is_iterated_mul(self):
        a = P(2, 1)
        step = mul_element(mul(a, a), a)
        assert tensor_power(a, 3) == step

    def test_multiplicities_outgrow_machine_words(self):
        power = tensor_power(P(2, 1), 20, cap=4)
        top = max(m for _, m in power.items())
        assert top > 2**63
        assert LRElement.from_json(power.to_json()) == power

    def test_budget_exceeded(self):
        clear_caches()
        with pytest.raises(BudgetExceeded):
            tensor_power(P(3, 2, 1), 4, budget=10)

    def test_budget_env_override(self, monkeypatch):
        clear_caches()
        monkeypatch.setenv("LRLAB_BUDGET", "5")
        with pytest.raises(BudgetExceeded):
            tensor_power(P(2, 1, 1), 4)
        monkeypatch.delenv("LRLAB_BUDGET")
        clear_caches()


HOOK_TIMES_BOX = mul(P(2, 1), P(1))
BUDGETED_CALLS = {
    "mul": lambda budget: mul(P(2, 1), P(2, 1), budget=budget),
    "mul_capped": lambda budget: mul(P(3, 1), P(2, 2), cap=3, budget=budget),
    "mul_element": lambda budget: mul_element(HOOK_TIMES_BOX, P(2, 1), budget=budget),
    "power": lambda budget: tensor_power(P(2, 1), 4, budget=budget),
    "power_capped": lambda budget: tensor_power(P(2, 1), 5, cap=3, budget=budget),
}


def _outcome(call, budget):
    try:
        return call(budget)
    except BudgetExceeded:
        return BudgetExceeded


class TestBudgetIgnoresMemoState:
    @pytest.mark.parametrize("budget", [1, 3, 5, 8, 13, 21, 34, 89])
    @pytest.mark.parametrize("name", sorted(BUDGETED_CALLS))
    def test_cold_and_warm_agree(self, name, budget):
        call = BUDGETED_CALLS[name]
        clear_caches()
        cold = _outcome(call, budget)
        clear_caches()
        call(None)
        tensor_power(P(2, 1), 6)
        tensor_power(P(2, 1), 6, cap=3)
        warm = _outcome(call, budget)
        clear_caches()
        assert cold == warm

    def test_both_outcomes_occur(self):
        # the budgets above straddle every call's peak term count
        for call in BUDGETED_CALLS.values():
            clear_caches()
            assert _outcome(call, 1) is BudgetExceeded
            clear_caches()
            assert _outcome(call, 89) is not BudgetExceeded
        clear_caches()


# Every budgeted call with its peak: the largest term count any step of its
# cold computation reaches, counted on this tree. Several peak above the size
# of their result. The last one peaks in the expansion of (3,2,1) and has no
# strip step at all: it multiplies the zero element. The two products with
# (3,2,1) expand the box instead.
PEAKED_CALLS = {
    **BUDGETED_CALLS,
    # one unordered pair in both orders: each one's "others" run is a mirrored hit
    "mul_2_22": lambda budget: mul(P(2), P(2, 2), budget=budget),
    "mul_22_2": lambda budget: mul(P(2, 2), P(2), budget=budget),
    # a wide pair and its conjugate pair: each one's "others" run is a conjugate
    # hit whose peak is above its size
    "mul_11_41": lambda budget: mul(P(1, 1), P(4, 1), budget=budget),
    "mul_2_2111": lambda budget: mul(P(2), P(2, 1, 1, 1), budget=budget),
    "mul_321_1": lambda budget: mul(P(3, 2, 1), P(1), budget=budget),
    "mul_1_321": lambda budget: mul(P(1), P(3, 2, 1), budget=budget),
    "mul_element_zero": lambda budget: mul_element(LRElement.zero(), P(3, 2, 1), budget=budget),
}
# (peak, size of the result)
PEAKS = {
    "mul": (8, 7),
    "mul_capped": (5, 5),
    "mul_element": (12, 11),
    "power": (66, 63),
    "power_capped": (18, 18),
    "mul_2_22": (3, 3),
    "mul_22_2": (3, 3),
    "mul_11_41": (5, 4),
    "mul_2_2111": (5, 4),
    "mul_321_1": (4, 4),
    "mul_1_321": (4, 4),
    "mul_element_zero": (6, 0),
}


class TestBudgetAtThePeak:
    """A budget of peak - 1 raises and a budget of peak passes, whatever the memo
    tables hold: nothing, every other call's entries, or every call's."""

    def _warm_up(self, name, memo):
        clear_caches()
        for other, call in PEAKED_CALLS.items():
            if memo == "all" or (memo == "others" and other != name):
                call(None)

    @pytest.mark.parametrize("memo", ["cold", "others", "all"])
    @pytest.mark.parametrize("name", sorted(PEAKED_CALLS))
    def test_peak_is_the_least_budget_that_passes(self, name, memo):
        call, (peak, size) = PEAKED_CALLS[name], PEAKS[name]
        self._warm_up(name, memo)
        with pytest.raises(BudgetExceeded):
            call(peak - 1)
        self._warm_up(name, memo)
        assert len(call(peak)) == size
        clear_caches()

    def test_power_read_from_a_cache_peaks_at_its_size(self, tmp_path):
        # the file record has no peak, so its size stands in within the call that
        # read it; the cold peak is 66, where a later call without the file raises
        path = str(tmp_path / "powers.lrpow")
        cache = PowerCache(path)
        clear_caches()
        tensor_power(P(2, 1), 4, cache=cache)
        cache.save()

        def call(budget):
            return tensor_power(P(2, 1), 4, budget=budget, cache=PowerCache(path))

        for warm in (False, True):
            clear_caches()
            if warm:
                call(None)
            with pytest.raises(BudgetExceeded):
                call(62)
            assert len(call(63)) == 63
            assert _text(lambda: tensor_power(P(2, 1), 4, budget=63)) == "66 terms exceed budget 63"
        clear_caches()


def _text(call):
    """The terms of a call's result, or the text of its BudgetExceeded."""
    try:
        return call().to_json()
    except BudgetExceeded as exc:
        return str(exc)


class TestWarmBudgetErrorNamesTheColdCount:
    """A memo entry is reused only when its peak fits the budget, so a call past
    the budget raises at the count where its cold computation stops, not with the
    peak of an entry that an earlier call stored."""

    # a narrow, a wide and a capped pair, and a power with and without a cache file
    CALLS = {
        "narrow": lambda budget, path: mul(P(3, 2, 1), P(2, 2), budget=budget),
        "wide": lambda budget, path: mul(P(4, 2), P(3), budget=budget),
        "capped": lambda budget, path: mul(P(3, 2, 1), P(2, 2, 1), cap=3, budget=budget),
        "power": lambda budget, path: tensor_power(P(2, 1), 4, budget=budget),
        "power_cached": lambda budget, path: tensor_power(P(2, 1), 4, budget=budget, cache=PowerCache(path)),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_every_budget_up_to_one_past_the_peak(self, name, tmp_path, monkeypatch):
        monkeypatch.delenv("LRLAB_BUDGET", raising=False)
        path = str(tmp_path / "powers.lrpow")
        clear_caches()
        cache = PowerCache(path)
        tensor_power(P(2, 1), 2, cache=cache)
        cache.save()  # the file holds the powers up to the square; calls never save
        call = self.CALLS[name]
        budget, passes = 0, 0
        while passes < 2:
            clear_caches()
            cold = _text(lambda: call(budget, path))
            # warm every entry at the default budget, also with the cached power first
            for order in (list(self.CALLS), ["power_cached", *self.CALLS]):
                clear_caches()
                for other in order:
                    self.CALLS[other](None, path)
                assert _text(lambda: call(budget, path)) == cold, (budget, order[0])
            passes += not isinstance(cold, str)
            budget += 1
        assert budget > 3  # the peak is above 1: budgets 0 and 1 raised
        clear_caches()

    def test_found_cases(self, monkeypatch):
        # a warm memo used to name 1408 terms here, the peak of the stored sixth power
        clear_caches()
        assert _text(lambda: tensor_power(P(3, 1), 6, budget=5)) == "9 terms exceed budget 5"
        tensor_power(P(3, 1), 6)
        assert _text(lambda: tensor_power(P(3, 1), 6, budget=5)) == "9 terms exceed budget 5"
        # and 3 terms here, after a passing sweep had stored the first product
        clear_caches()
        monkeypatch.setenv("LRLAB_BUDGET", "0")
        with pytest.raises(BudgetExceeded, match="^1 terms exceed budget 0$"):
            verify_lemma("SMALLER", {"max_weight": 4})
        monkeypatch.delenv("LRLAB_BUDGET")
        assert verify_lemma("SMALLER", {"max_weight": 4}).passed
        monkeypatch.setenv("LRLAB_BUDGET", "0")
        with pytest.raises(BudgetExceeded, match="^1 terms exceed budget 0$"):
            verify_lemma("SMALLER", {"max_weight": 4})
        clear_caches()


class TestUnorderedProductMemo:
    """mul(a, b) and mul(b, a) share one memo entry, computation and term dict."""

    def test_mirrored_calls_share_their_terms(self):
        clear_caches()
        assert mul(P(2), P(2, 2))._terms is mul(P(2, 2), P(2))._terms
        assert mul(P(3, 1), P(2), cap=2)._terms is mul(P(2), P(3, 1), cap=2)._terms
        assert len(product._mul_memo) == 3  # (2) x (2,2) is wide: its conjugate pair has an entry too
        clear_caches()

    def test_smaller_fills_one_entry_per_unordered_pair(self):
        # an ordered-pair key fills 3,278 entries here; each wide pair's entry
        # sits beside its conjugate pair's
        clear_caches()
        verify_lemma("SMALLER", {"max_weight": 8})
        assert len(product._mul_memo) == 1_993
        clear_caches()


class TestWidePairConjugationMemo:
    """A wide pair transposes its conjugate pair's terms and interns them in _canon."""

    WIDE = [
        (a, b)
        for a in partitions_up_to(6)
        for b in partitions_up_to(6 - a.weight)
        if sum(a.parts[:1] + b.parts[:1]) > len(a) + len(b)
    ]

    def test_every_wide_pair_matches_tableau_oracle_cold_and_warm(self):
        assert len(self.WIDE) == 56  # pairs of total weight <= 6
        for a, b in self.WIDE:
            clear_caches()
            assert mul(a, b) == mul_tableau(a, b), (a, b)
            assert all(product._canon[t] is t for t in mul(a, b)._terms), (a, b)
        for _ in range(2):  # the first pass fills the memo for later pairs, the second only reads it
            for a, b in self.WIDE:
                assert mul(a, b) == mul_tableau(a, b), (a, b)
        clear_caches()

    def test_conjugates_are_interned_and_clear_caches_empties_the_memo(self):
        clear_caches()
        terms = mul(P(3), P(2))._terms
        assert terms == {(5,): 1, (4, 1): 1, (3, 2): 1}
        for t in terms:
            assert product._canon[t] is t
        clear_caches()
        assert product._canon == {}

    def test_caps_that_cut_nothing_match_tableau_oracle_cold_and_warm(self):
        # cap len(a) + len(b) is the least that cuts nothing; cap 12 cuts nothing at weight 6
        calls = [(a, b, cap) for a, b in self.WIDE for cap in (len(a) + len(b), 12)]
        for a, b, cap in calls:
            clear_caches()
            assert mul(a, b, cap=cap) == mul_tableau(a, b, cap=cap), (a, b, cap)
        for a, b, cap in calls:
            assert mul(a, b, cap=cap) == mul_tableau(a, b, cap=cap), (a, b, cap)
        clear_caches()

    def test_a_capped_wide_pair_takes_its_conjugate_route(self):
        # cap 80 cuts nothing, so the pair multiplies its conjugate pair, one column of
        # height 40 on another, in 41 terms; expanding h_40 under the cap passes 10,000
        clear_caches()
        capped = mul(P(40), P(40), cap=80, budget=10_000)
        assert capped._terms == mul(P(40), P(40))._terms and len(capped) == 41
        clear_caches()


class TestOneExpansionPerProduct:
    def test_only_the_chosen_factor_is_expanded(self):
        # (1) has fewer columns than (3,2,1), so E((3,2,1)) and its sub-expansions
        # are never built
        clear_caches()
        mul(P(3, 2, 1), P(1))
        assert set(product._exp_memo) == {((1,), None)}
        clear_caches()


class TestBudgetValue:
    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="^budget must be a non-negative integer, not -1$"):
            mul(P(2, 1), P(1), budget=-1)

    @pytest.mark.parametrize("value", ["-5", "abc", "1.5", ""])
    def test_bad_environment_budget_is_refused(self, monkeypatch, value):
        monkeypatch.setenv("LRLAB_BUDGET", value)
        with pytest.raises(ValueError, match="^LRLAB_BUDGET must be a non-negative integer"):
            tensor_power(P(2, 1), 2)

    def test_zero_budget_is_valid(self, monkeypatch):
        assert term_budget(0) == 0
        with pytest.raises(BudgetExceeded):
            mul(P(2, 1), P(1), budget=0)
        monkeypatch.setenv("LRLAB_BUDGET", "0")
        assert term_budget() == 0
        monkeypatch.setenv("LRLAB_BUDGET", " 7 ")
        assert term_budget() == 7


NEGATIVE_CAP_CALLS = {
    "mul": lambda: mul(P(2, 1), P(1), cap=-1),
    "tensor_power": lambda: tensor_power(P(2, 1), 3, cap=-1),
    "mul_tableau": lambda: mul_tableau(P(2, 1), P(1), cap=-1),
    "LRElement": lambda: LRElement({P(1): 1}, cap=-1),
}

# a fractional exponent once stepped the power walk past 0 for ever; a fractional cap or
# truncation length was accepted
NON_INTEGER_CALLS = {
    "exponent_2.5": (lambda: tensor_power(P(2), 2.5), "exponent", 2.5),
    "exponent_2.0": (lambda: tensor_power(P(2), 2.0), "exponent", 2.0),
    "property_holds_2.5": (lambda: property_holds(P(2), 2.5, 2), "exponent", 2.5),
    "mul_cap_1.5": (lambda: mul(P(2, 1), P(1), cap=1.5), "cap", 1.5),
    "mul_tableau_cap_1.5": (lambda: mul_tableau(P(2, 1), P(1), cap=1.5), "cap", 1.5),
    "tensor_power_cap_1.5": (lambda: tensor_power(P(2), 2, cap=1.5), "cap", 1.5),
    "LRElement_cap_1.5": (lambda: LRElement({P(1): 1}, cap=1.5), "cap", 1.5),
    "truncated_1.5": (lambda: LRElement({P(1): 1}).truncated(1.5), "length", 1.5),
}


class Index:
    """Not an int, but operator.index reads it as one."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _sweep(report):
    return report.bounds, report.cases_checked, report.failures


def _json(record):
    # through the JSON text, so a bool kept in a record (true) differs from its int (1)
    return json.dumps(record.to_json())


# every count and limit the library takes: a call on it, a value it accepts, the name its
# message gives, the error a bad value raises, and whether it must be at least 1
COUNTS = {
    "part": (lambda n: Partition([n]), 2, "part", InvalidPartition, False),
    "scale": (lambda n: P(2, 1).scaled(n), 2, "scale", InvalidPartition, False),
    "column_height": (single_column, 2, "column height", InvalidPartition, False),
    "interval_size": (lambda n: Subdivision([n, 1]), 2, "interval size", ValueError, True),
    "multiplicity": (lambda n: LRElement({P(1): n}), 2, "multiplicity", ValueError, False),
    "truncated": (lambda n: mul(P(2, 1), P(1)).truncated(n), 2, "length", ValueError, False),
    "cap_mul": (lambda n: mul(P(2, 1), P(1), cap=n), 2, "cap", ValueError, False),
    "cap_mul_tableau": (lambda n: mul_tableau(P(2, 1), P(1), cap=n), 2, "cap", ValueError, False),
    "cap_tensor_power": (lambda n: tensor_power(P(2, 1), 3, cap=n), 2, "cap", ValueError, False),
    "cap_LRElement": (lambda n: LRElement({P(1): 1}, cap=n), 2, "cap", ValueError, False),
    "budget_mul": (lambda n: mul(P(2, 1), P(1), budget=n), 9, "budget", ValueError, False),
    "budget_mul_element": (
        lambda n: mul_element(LRElement({P(2, 1): 1}), P(1), budget=n), 9, "budget", ValueError, False
    ),
    "budget_tensor_power": (
        lambda n: tensor_power(P(2, 1), 2, budget=n), 9, "budget", ValueError, False
    ),
    "exponent": (lambda n: tensor_power(P(2, 1), n), 2, "exponent", ValueError, False),
    "exponent_property_holds": (
        lambda n: property_holds(P(2), n, 2), 2, "exponent", ValueError, False
    ),
    "bound": (lambda n: _sweep(verify_lemma("CHI", {"max_l": n})), 2, "max_l", ValueError, False),
    "lcm_upto": (lcm_upto, 4, "l", ValueError, True),
    "all_subdivisions": (lambda n: list(all_subdivisions(n)), 2, "l", ValueError, True),
    "from_mask": (lambda n: Subdivision.from_mask(n, 0), 2, "l", ValueError, True),
    "gl_dimension": (lambda n: gl_dimension(P(1), n), 2, "dimension", ValueError, True),
    "l_property_holds": (lambda n: property_holds(P(2), 2, n), 2, "l", ValueError, False),
    "l_minimal_uniform_exponent": (
        lambda n: _json(minimal_uniform_exponent(P(1), n, 2)), 2, "l", ValueError, False
    ),
    "n_max": (lambda n: _json(minimal_uniform_exponent(P(1), 2, n)), 2, "n_max", ValueError, True),
    "d_transfer_witness": (lambda n: _json(transfer_witness(P(1), P(1), n)), 2, "d", ValueError, False),
    "t_max": (
        lambda n: _json(transfer_witness(P(2), P(1, 1), 2, t_max=n)), 2, "t_max", ValueError, True
    ),
    "l_cone_membership": (
        lambda n: _json(cone_membership(P(2), P(1), n)), 2, "l", ValueError, False
    ),
    "l_cone_generator_decomposition": (
        lambda n: _json(cone_generator_decomposition(P(2), P(1), n)), 2, "l", ValueError, True
    ),
    "l_theorem_bound": (lambda n: theorem_bound(P(1), n), 2, "l", ValueError, True),
}
POSITIVE = {name: row for name, row in COUNTS.items() if row[-1]}


def _refusal(what, positive, value):
    return f"{what} must be a {'positive' if positive else 'non-negative'} integer, not {value!r}"


def _on_count(call, n):
    """What a call returns on the count n, or the type and text of the error it raises."""
    try:
        return call(n)
    except LRLabError as exc:
        return type(exc), str(exc)


class TestEntryChecks:
    @pytest.mark.parametrize("call", NEGATIVE_CAP_CALLS.values(), ids=NEGATIVE_CAP_CALLS)
    def test_negative_cap_is_refused(self, call):
        with pytest.raises(ValueError, match="^cap must be a non-negative integer, not -1$"):
            call()

    @pytest.mark.parametrize("call, what, value", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS)
    def test_non_integer_exponent_or_cap_is_refused(self, call, what, value):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"{what} must be a non-negative integer, not {value!r}"

    # scaled(Index(2)) raised TypeError, and budget=Index(9) and max_l=Index(2) were
    # refused; budget=True raised "3 terms exceed budget True"; a limit such as
    # gl_dimension's raised TypeError on Index(2), and n_max=True was kept as true
    @pytest.mark.parametrize("call, n, what, error, positive", COUNTS.values(), ids=COUNTS)
    def test_an_index_object_or_a_bool_counts_as_its_int(self, call, n, what, error, positive):
        assert _on_count(call, Index(n)) == _on_count(call, n)
        assert _on_count(call, True) == _on_count(call, 1)

    # l=2.5 gave cone_membership a member certificate; l=-1 reached property_holds as
    # InvalidPartition naming length -1
    @pytest.mark.parametrize("value", [-1, 2.5, "2"], ids=["negative", "float", "str"])
    @pytest.mark.parametrize("call, n, what, error, positive", COUNTS.values(), ids=COUNTS)
    def test_a_bad_count_is_refused_with_the_one_message(self, call, n, what, error, positive, value):
        with pytest.raises(error) as exc:
            call(value)
        assert type(exc.value) is error
        assert str(exc.value) == _refusal(what, positive, value)

    @pytest.mark.parametrize("call, n, what, error, positive", POSITIVE.values(), ids=POSITIVE)
    def test_zero_is_refused_where_a_limit_must_be_positive(self, call, n, what, error, positive):
        with pytest.raises(error) as exc:
            call(0)
        assert type(exc.value) is error
        assert str(exc.value) == _refusal(what, True, 0)

    def test_a_cap_is_kept_as_the_int_operator_index_returns(self):
        assert mul(P(2, 1), P(1), cap=True).to_json()["cap"] == 1
        assert mul(P(2, 1), P(1), cap=Index(2)) == mul(P(2, 1), P(1), cap=2)
        assert tensor_power(P(2, 1), 3, cap=Index(2)) == tensor_power(P(2, 1), 3, cap=2)
        assert mul_tableau(P(2, 1), P(1), cap=True).cap == 1
        assert type(LRElement({P(1): 1}, cap=Index(2)).cap) is int
        assert type(LRElement({P(1): 1}).truncated(Index(2)).cap) is int

    def test_a_bool_cap_writes_the_cache_file_of_its_int(self, tmp_path):
        # True was written as "cap": true, which the next open found stale
        paths = [str(tmp_path / "true.lrpow"), str(tmp_path / "one.lrpow")]
        for path, cap in zip(paths, (True, 1)):
            clear_caches()
            cache = PowerCache(path)
            tensor_power(P(2, 1), 3, cap=cap, cache=cache)
            cache.save()
        with open(paths[0], "rb") as fh, open(paths[1], "rb") as gh:
            assert fh.read() == gh.read()
        reopened = PowerCache(paths[0])
        assert reopened.valid_header and len(reopened) == 4
        clear_caches()

    def test_negative_multiplicity_is_an_internal_error(self, monkeypatch):
        # an expansion with a negative term makes every product negative; _apply
        # checks every sum it makes, whichever entry point reached it
        clear_caches()
        monkeypatch.setattr(product, "_expansion", lambda *args: ({(1,): -1}, 1))
        calls = [
            lambda: mul(P(2, 1), P(1)),
            lambda: tensor_power(P(2, 1), 2),
            lambda: mul_element(LRElement({P(2): 1}), P(1)),
            lambda: mul(P(1, 1), P(4, 1)),  # wide: the conjugate pair reaches _apply
            lambda: mul(P(2, 1), P(1), cap=2),
        ]
        for call in calls:
            with pytest.raises(InternalCheckError, match="^negative multiplicity in "):
                call()
        monkeypatch.undo()
        clear_caches()


POOL_7 = list(partitions_up_to(7))
CAPS = st.sampled_from([None, 1, 2, 3, 4])
fixed_profile = settings(derandomize=True, deadline=None)


class TestDifferential:
    """The fast path against independent computations, past the acceptance bounds."""

    @fixed_profile
    @given(st.sampled_from(POOL_7), st.sampled_from(POOL_7), CAPS)
    def test_mul_matches_tableau_oracle(self, a, b, cap):
        assert mul(a, b, cap=cap) == mul_tableau(a, b, cap=cap)

    @fixed_profile
    @given(st.sampled_from(list(partitions_up_to(4))), st.integers(0, 4), CAPS)
    def test_power_is_repeated_mul_element(self, a, n, cap):
        step = LRElement.unit(cap=cap)
        for _ in range(n):
            step = mul_element(step, a)
        assert tensor_power(a, n, cap=cap) == step

    def test_mul_matches_tableau_oracle_in_both_orders(self):
        # every unordered pair of weight 8 or less, with cold memos, once with
        # each order of the factors called first
        pool = list(partitions_up_to(8))
        for cap in (None, 1, 2, 3):
            for i, a in enumerate(pool):
                for b in pool[i:]:
                    if a.weight + b.weight > 8:
                        continue
                    want = mul_tableau(a, b, cap=cap)
                    for x, y in ((a, b), (b, a)):
                        clear_caches()
                        first, mirrored = mul(x, y, cap=cap), mul(y, x, cap=cap)
                        assert first == mirrored == want, (x, y, cap)
        clear_caches()

    def test_wide_pairs_match_tableau_oracle(self):
        # every uncapped pair with more columns than rows, of weight 9 to 12 and
        # factors of weight 1 to 11, with cold memos and with its conjugate
        # pair's product computed first
        pool = list(partitions_up_to(11))[1:]
        wide = 0
        for i, a in enumerate(pool):
            for b in pool[i:]:
                if not 9 <= a.weight + b.weight <= 12 or a[0] + b[0] <= len(a) + len(b):
                    continue
                wide += 1
                want = mul_tableau(a, b)
                for conjugate_first in (False, True):
                    clear_caches()
                    if conjugate_first:
                        mul(a.conjugate(), b.conjugate())
                    assert mul(a, b) == mul(b, a) == want, (a, b, conjugate_first)
        assert wide == 514
        clear_caches()

    def test_every_product_path_gives_the_same_product(self):
        # every unordered pair of weight 10 or less, the empty partition included:
        # each factor that fits the cap, times the column expansion of the other,
        # gives the terms of mul and of the oracle; _apply assumes that its start
        # fits the cap, and mul never starts it from a longer factor
        pool = list(partitions_up_to(10))
        budget = product.DEFAULT_TERM_BUDGET
        pairs = checks = 0
        for i, a in enumerate(pool):
            for b in pool[i:]:
                if a.weight + b.weight > 10:
                    continue
                pairs += 1
                for cap in (None, 0, 1, 2, 3, 4):
                    want = mul(a, b, cap=cap)
                    assert want == mul_tableau(a, b, cap=cap), (a, b, cap)
                    for base, other in ((a, b), (b, a)):
                        if cap is not None and len(base) > cap:
                            continue
                        exp, _ = product._expansion(other.parts, cap, budget)
                        got, _ = product._apply({base.parts: 1}, exp, cap, budget)
                        assert got == want._terms, (base, other, cap)
                        checks += 1
        assert (pairs, checks) == (617, 4579)
        clear_caches()

    def test_h_mult_p_products_match_tableau_oracle(self, monkeypatch):
        # every product H_MULT_P asks for at max_l=4, past its default bound of 3:
        # heavy perturbed generators times light moves
        asked = set()

        def recording_mul(a, b, cap=None, budget=None):
            asked.add((a, b, cap))
            return mul(a, b, cap=cap, budget=budget)

        monkeypatch.setattr(verify, "mul", recording_mul)
        clear_caches()
        assert verify_lemma("H_MULT_P", {"max_l": 4}).passed
        assert len(asked) == 513
        for a, b, cap in asked:
            assert mul(a, b, cap=cap) == mul_tableau(a, b, cap=cap), (a, b, cap)
        clear_caches()

    def test_uncapped_product_is_the_transpose_of_the_conjugate_product(self):
        # s_a s_b = omega(s_a' s_b') for every unordered pair of weight 12 or less
        pool = list(partitions_up_to(12))
        for i, a in enumerate(pool):
            for b in pool[i:]:
                if a.weight + b.weight <= 12:
                    conj = mul(a.conjugate(), b.conjugate())
                    want = LRElement({c.conjugate(): m for c, m in conj.items()})
                    assert mul(a, b) == want, (a, b)
        clear_caches()

    @fixed_profile
    @given(st.sampled_from(list(partitions_up_to(5))), st.integers(0, 6), st.integers(1, 4))
    def test_capped_power_dimension_identity(self, a, n, d):
        power = tensor_power(a, n, cap=d)
        total = sum(m * gl_dimension(c, d) for c, m in power.items())
        assert total == gl_dimension(a, d) ** n


class TestDimensionIdentity:
    def test_products_respect_dimensions(self):
        pool = list(partitions_up_to(4))
        for d in range(1, 4):
            for a in pool:
                for b in pool:
                    total = sum(m * gl_dimension(c, d) for c, m in mul(a, b).items())
                    assert total == gl_dimension(a, d) * gl_dimension(b, d)
