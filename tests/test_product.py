"""Products, powers and dimensions, cross-checked against slow oracles.

The brute-force fillers in this file are deliberately independent of the
library code paths: dimensions are counted as explicit semistandard
fillings and by the hook content formula, standard-tableau counts come from
the hook length formula, and the two product algorithms (signed column expansion and skew-filling count) must
agree term by term.
"""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab import (
    LRElement,
    Partition,
    clear_caches,
    dominance_compare,
    Dominance,
    gl_dimension,
    lr_coefficient,
    mul,
    mul_by_column,
    mul_element,
    mul_tableau,
    partitions_of,
    partitions_up_to,
    single_column,
    tensor_power,
    term_budget,
    verify_lemma,
)
from lrlab import product
from lrlab.errors import BudgetExceeded
from lrlab.powercache import PowerCache


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
        assert mul_by_column(P(1), 1) == E({(2,): 1, (1, 1): 1})

    def test_hook_times_box(self):
        assert mul_by_column(P(2, 1), 1) == E({(3, 1): 1, (2, 2): 1, (2, 1, 1): 1})

    def test_box_times_column(self):
        assert mul_by_column(P(1), 2) == E({(2, 1): 1, (1, 1, 1): 1})

    def test_unit_cases(self):
        assert mul_by_column(P(3, 1), 0) == E({(3, 1): 1})
        assert mul_by_column(Partition(), 3) == E({(1, 1, 1): 1})

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


class TestStripStep:
    """The memoised, interned strip step against an unmemoised copy of its recursion."""

    def test_matches_unmemoised_recursion_in_order(self):
        clear_caches()
        for _ in ("cold", "warm"):
            for cap in (None, *range(9)):
                for r in range(7):
                    for a in partitions_up_to(10):
                        got = product._pieri(a.parts, r, cap)
                        assert got == strips_oracle(a.parts, r, cap), (a, r, cap)

    def test_equal_partitions_are_one_object(self):
        clear_caches()
        x = product._pieri((2, 1), 1, None)  # (3, 1), (2, 2), (2, 1, 1)
        y = product._pieri((1, 1), 2, None)  # (2, 2), (2, 1, 1), (1, 1, 1, 1)
        assert x[1] is y[0] and x[2] is y[1]
        first = {}
        for cap in (None, 3):
            for r in range(4):
                for a in partitions_up_to(6):
                    for u in product._pieri(a.parts, r, cap):
                        assert first.setdefault(u, u) is u

    def test_memo_and_intern_counts_after_a_power(self):
        # counts, not bytes; a memo keyed by (parts, r, cap) also holds 61,953 entries here
        clear_caches()
        tensor_power(P(3, 1), 8)
        assert sum(len(table) for table in product._pieri_memo.values()) == 61_953
        assert len(product._canon) == 35_847


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
# of their result. The last three peak in the expansion of (3,2,1), above
# their own strip steps, and fill each other's expansion memo; the zero
# element times (3,2,1) has no strip step at all.
PEAKED_CALLS = {
    **BUDGETED_CALLS,
    # one unordered pair in both orders: each one's "others" run is a mirrored hit
    "mul_2_22": lambda budget: mul(P(2), P(2, 2), budget=budget),
    "mul_22_2": lambda budget: mul(P(2, 2), P(2), budget=budget),
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
    "mul_2_22": (7, 3),
    "mul_22_2": (7, 3),
    "mul_321_1": (6, 4),
    "mul_1_321": (6, 4),
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
        # the file record has no peak, so its size stands in; the cold peak is 66
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
        clear_caches()


class TestUnorderedProductMemo:
    """mul(a, b) and mul(b, a) share one memo entry, computation and term dict."""

    def test_mirrored_calls_share_their_terms(self):
        clear_caches()
        assert mul(P(2), P(2, 2))._terms is mul(P(2, 2), P(2))._terms
        assert mul(P(3, 1), P(2), cap=2)._terms is mul(P(2), P(3, 1), cap=2)._terms
        assert len(product._mul_memo) == 2
        clear_caches()

    def test_smaller_fills_one_entry_per_unordered_pair(self):
        # an ordered-pair key fills 3,278 entries here
        clear_caches()
        verify_lemma("SMALLER", {"max_weight": 8})
        assert len(product._mul_memo) == 1_668
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
