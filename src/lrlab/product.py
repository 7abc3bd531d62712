"""Products in the partition ring.

Two independent algorithms are kept side by side on purpose:

* the fast path writes one factor in its signed column expansion
  s_b = sum_mu E(b)[mu] * e_mu1 * e_mu2 * ... (inverse Kostka / dual
  Jacobi-Trudi, Macdonald I.3), solved once per shape from the unitriangular
  system relating a partition to the product of its columns, and then
  multiplies by one column at a time (vertical-strip step), sharing the
  steps of column tuples with a common prefix;
* the oracle counts column-strict skew fillings whose reverse reading word is
  a lattice word, one coefficient at a time.

The test suite demands that both agree. _apply sums every fast-path product
and power step and is the one check for a negative multiplicity; a wide
product transposes a checked result, and PowerCache checks cache reads. Memo
values are term dicts shared with LRElement and never mutated; lrlab starts
no threads, so no memo table has concurrent readers. The product memo is
keyed by the unordered pair of factors in lexicographic order, so mul(a, b)
and mul(b, a) share one entry. A pair is wide when it has more columns than
rows, a[0] + b[0] > len(a) + len(b), and the cap, if any, cuts nothing (is at
least len(a) + len(b)): its entry holds the transpose of its conjugate pair's
terms, under cap a[0] + b[0] if capped, and that pair's peak. Any other pair
expands the factor with fewer columns, then more rows, then the first of its
key: each term of E(x) dominates x' (Macdonald I.6), so it has at most x[0]
parts and a first part of at least len(x). A product's peak depends only on
its pair.

One strip rule serves both vertical-strip steps (Pieri, Macdonald I.5): a
column of height r adds the top k rows of each run of equal rows, the k
summing to r, and each step takes the k of a run from the largest down, so
both list a step's terms in decreasing order. One rule per representation: an
uncapped call steps on part tuples and touches _pieri_memo, a capped call
steps on packed ints and touches _pattern_memo. Uncapped, the step recurses
one run per level: one memo table per column height, keyed by the part
tuple, which _apply looks up inline. Under a cap l a partition of at
most l rows is one int with B bits per row, row i at bit B * i, so an int is as
wide as its rows; B bounds the largest part the call can build (its start's
largest first part plus its most columns) with one spare bit. The runs come
from one borrow-free subtraction of x from x shifted up a row, under masks as
wide as the rows the call can reach: a runs key is the same at any width past
its term's rows, so the 0/1 patterns a strip adds are memoised per (l, B, r,
runs), and l bounds only the rows a strip may reach. Both steps intern each
tuple they make in _canon: memo values, products and powers share one copy.

Every expansion, product and power memo value is a pair (result, peak),
where peak is the largest term count any step of its computation reached,
sub-computations included. An entry is reused only when its peak fits the
caller's budget; else the call runs cold and raises BudgetExceeded at its
first step past the budget, whatever ran before. A tensor_power call with an
on-disk cache walks a table of its own, never the power memo; a record it
reads has no peak, so within that call its size stands in.
"""

from __future__ import annotations

import contextlib
import os
from itertools import count
from operator import lshift

from .elements import LRElement, check_cap
from .errors import BudgetExceeded, InternalCheckError
from .partitions import Partition, as_count, conjugate_parts, partitions_of

DEFAULT_TERM_BUDGET = 5_000_000
BUDGET_ENV_VAR = "LRLAB_BUDGET"

_pieri_memo: dict = {}  # r -> {parts: strips}, uncapped
_pattern_memo: dict = {}  # (cap, bits, r) -> {runs key: patterns}, capped
_canon: dict = {}  # intern table: the one tuple of each partition a step built
_exp_memo: dict = {}
_mul_memo: dict = {}
_power_memo: dict = {}
_held: list[int] | None = None  # inside _budget_read_once: [] until the first read, then [budget]


def term_budget(explicit: int | None = None) -> int:
    """Effective term budget: explicit argument, else environment, else default.
    Inside _budget_read_once the environment is read by the first call that
    needs it and its budget serves the rest of the block. A budget that is
    negative or not an integer raises ValueError naming it."""
    if explicit is not None:
        return as_count(explicit, "budget")
    if _held:
        return _held[0]
    value = os.environ.get(BUDGET_ENV_VAR, DEFAULT_TERM_BUDGET)
    with contextlib.suppress(ValueError):
        value = int(value)
    value = as_count(value, BUDGET_ENV_VAR)
    if _held is not None:
        _held.append(value)
    return value


@contextlib.contextmanager
def _budget_read_once():
    """Calls without an explicit budget inside the block share one reading of
    the environment; after the block, raised out of or not, each reads it again."""
    global _held
    outer, _held = _held, []
    try:
        yield
    finally:
        _held = outer


def clear_caches() -> None:
    _pieri_memo.clear()
    _pattern_memo.clear()
    _canon.clear()
    _exp_memo.clear()
    _mul_memo.clear()
    _power_memo.clear()


def _check_budget(terms: int, budget: int) -> None:
    if terms > budget:
        raise BudgetExceeded(f"{terms} terms exceed budget {budget}")


def _pieri(parts: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    """Support of (partition x one column of height r), uncapped; multiplicity-free."""
    table = _pieri_memo.setdefault(r, {})
    hit = table.get(parts)
    if hit is not None:
        return hit
    canon = _canon.setdefault
    parts = canon(parts, parts)
    if r == 0 or not parts:
        v = parts + (1,) * r
        out = (canon(v, v),)
    else:
        head = parts[0]
        run = parts.count(head)  # the first run of equal rows
        res = []
        for k in range(min(run, r), -1, -1):
            top = (head + 1,) * k + (head,) * (run - k)
            for u in _pieri(parts[run:], r - k):
                v = top + u
                res.append(canon(v, v))
        out = tuple(res)
    table[parts] = out
    return out


def _strip_step(terms: dict, r: int) -> dict:
    """terms times one column of height r, uncapped, on part tuples."""
    strips = _pieri_memo.setdefault(r, {}).get
    nxt: dict[tuple[int, ...], int] = {}
    get = nxt.get
    for t, m in terms.items():
        for u in strips(t) or _pieri(t, r):  # _pieri on a miss
            nxt[u] = get(u, 0) + m
    return nxt


def _patterns(cap: int, bits: int, r: int, key: int) -> tuple[int, ...]:
    """The strips of height r a packed partition with runs key accepts, largest first.

    Row i, at bit bits * i, starts a run of equal rows when i = 0 or key has the top
    bit of its field set. No row r or more past the last run's start, nor past cap, takes a cell.
    """
    column = ((1 << bits * r) - 1) // ((1 << bits) - 1)  # one column of height r
    rows = min(cap, key.bit_length() // bits + r)
    partial, i = [(0, 0)], 0  # (pattern, height) over the runs below row i, largest first
    for j in [s for s in range(1, rows) if key >> bits * s + bits - 1 & 1]:  # all runs but the last
        tops = [column >> bits * (r - k) << bits * i for k in range(min(j - i, r) + 1)]
        partial = [(v + tops[k], h + k) for v, h in partial for k in range(min(j - i, r - h), -1, -1)]
        i = j
    return tuple(v + (column >> bits * h << bits * i) for v, h in partial if r - h <= rows - i)


def _packed_step(cap: int, bits: int, rows: int):
    """The capped strip step, bits bits per row, its run masks rows rows wide (see _apply)."""
    units = ((1 << bits * rows) - 1) // ((1 << bits) - 1)
    low = units * ((1 << bits - 1) - 1)
    high = units << bits - 1

    def step(terms: dict[int, int], r: int) -> dict[int, int]:
        table = _pattern_memo.setdefault((cap, bits, r), {})
        nxt: dict[int, int] = {}
        get = nxt.get
        for x, m in terms.items():
            # each row's field gets the row above it, plus low, minus itself: no field
            # borrows or carries, and its top bit is set when the row is shorter
            key = ((x << bits) + low - x) & high
            patterns = table.get(key)
            if patterns is None:
                patterns = table[key] = _patterns(cap, bits, r, key)
            for v in patterns:
                u = x + v
                nxt[u] = get(u, 0) + m
        return nxt

    return step


def _apply(
    start: dict[tuple[int, ...], int],
    expansion: dict[tuple[int, ...], int],
    cap: int | None,
    budget: int,
) -> tuple[dict[tuple[int, ...], int], int]:
    """sum_mu expansion[mu] * start * e_mu1 * e_mu2 * ..., and its peak term count.

    The column tuples mu are walked in sorted order, keeping the chain of
    partial products of the previous one, so tuples with a common prefix share
    its vertical-strip steps. Under a cap the chain holds packed partitions,
    row 0 in the low bits, and a start term longer than the cap, zero there,
    is dropped; the run masks span one row past the longest start term plus
    the heaviest tuple, or the cap. A negative sum raises InternalCheckError.
    """
    if cap is None:
        step, first = _strip_step, start
    else:
        top = max((t[0] for t in start if t), default=0)
        bits = (top + max(map(len, expansion), default=0)).bit_length() + 1
        rows = max(map(len, start), default=0) + max(map(sum, expansion), default=0) + 1
        step = _packed_step(cap, bits, min(cap, rows))
        first = {sum(map(lshift, t, count(0, bits))): m for t, m in start.items() if len(t) <= cap}
    out: dict = {}
    peak = 0
    chain = [first]  # chain[i]: start times the first i columns of prev
    prev: tuple[int, ...] = ()
    for mu in sorted(expansion):
        k = 0
        while k < len(prev) and k < len(mu) and prev[k] == mu[k]:
            k += 1
        del chain[k + 1 :]
        for r in mu[k:]:
            nxt = step(chain[-1], r)
            _check_budget(len(nxt), budget)
            peak = max(peak, len(nxt))
            chain.append(nxt)
        prev = mu
        coef = expansion[mu]
        get = out.get
        for t, m in chain[-1].items():
            out[t] = get(t, 0) + coef * m
    out = {t: m for t, m in out.items() if m}
    if min(out.values(), default=0) < 0:
        raise InternalCheckError("negative multiplicity in a summed product")
    if cap is not None:
        field = (1 << bits) - 1
        canon = _canon.setdefault
        packed, out = out, {}
        for x, m in packed.items():
            t = tuple([x >> s & field for s in range(0, x.bit_length(), bits)])
            out[canon(t, t)] = m
    _check_budget(len(out), budget)
    return out, max(peak, len(out))


def _expansion(
    b: tuple[int, ...], cap: int | None, budget: int
) -> tuple[dict[tuple[int, ...], int], int]:
    """Signed column expansion E(b) of s_b under the cap, and its peak term count.

    E(b) = {cols(b): 1} - sum_{c != b} cross[c] * E(c), where cross is the
    column product e_cols(b) = sum_c cross[c] * s_c. The system is
    unitriangular in dominance order. Taking cross under the cap is valid
    because truncation is a ring homomorphism.
    """
    if cap is not None and len(b) > cap:
        return {}, 0
    key = (b, cap)
    hit = _exp_memo.get(key)
    if hit is None or hit[1] > budget:
        cols = conjugate_parts(b)  # column heights of b, tallest first
        cross, peak = _apply({(): 1}, {cols: 1}, cap, budget)
        if cross.get(b) != 1:
            raise InternalCheckError(f"column product of {b} is not unitriangular")
        acc = {cols: 1}
        for c, k in cross.items():
            if c != b:
                sub, sub_peak = _expansion(c, cap, budget)
                peak = max(peak, sub_peak)
                for mu, e in sub.items():
                    acc[mu] = acc.get(mu, 0) - k * e
        hit = _exp_memo[key] = ({mu: e for mu, e in acc.items() if e}, peak)
    return hit


def _mul_parts(
    a: tuple[int, ...], b: tuple[int, ...], cap: int | None, budget: int
) -> tuple[dict[tuple[int, ...], int], int]:
    """Memo entry (terms, peak) of the product of two part tuples."""
    if b < a:  # the product commutes: one memo entry per unordered pair
        a, b = b, a
    key = (a, b, cap)
    hit = _mul_memo.get(key)
    if hit is not None and hit[1] <= budget:
        return hit
    width, rows = sum(a[:1] + b[:1]), len(a) + len(b)
    if width > rows and (cap is None or cap >= rows):
        # wide: s_a s_b is the transpose of s_a' s_b', a pair that is not wide and whose
        # terms have at most width rows; the entry holds the transposed terms and that pair's peak
        conj_cap = None if cap is None else width
        terms, peak = _mul_parts(conjugate_parts(a), conjugate_parts(b), conj_cap, budget)
        canon, out = _canon.setdefault, {}
        for t, m in terms.items():
            c = conjugate_parts(t)
            out[canon(c, c)] = m
        hit = _mul_memo[key] = (out, peak)
    else:
        # expand the factor with fewer columns, on a tie the one with more rows, then the first
        x, base = (a, b) if (a[:1], -len(a)) <= (b[:1], -len(b)) else (b, a)
        exp, peak_x = _expansion(x, cap, budget)
        out, peak = _apply({base: 1}, exp, cap, budget)
        hit = _mul_memo[key] = (out, max(peak, peak_x))
    return hit


def mul(a: Partition, b: Partition, cap: int | None = None, budget: int | None = None) -> LRElement:
    """Product of two basis partitions (signed column expansion)."""
    cap = check_cap(cap)
    terms, _ = _mul_parts(a.parts, b.parts, cap, term_budget(budget))
    return LRElement._from_raw(terms, cap)


def mul_element(m: LRElement, b: Partition, budget: int | None = None) -> LRElement:
    """Linear extension of mul to an element times a basis partition."""
    bud = term_budget(budget)
    exp, _ = _expansion(b.parts, m.cap, bud)
    out, _ = _apply(m._terms, exp, m.cap, bud)
    return LRElement._from_raw(out, m.cap)


def tensor_power(
    a: Partition,
    n: int,
    cap: int | None = None,
    budget: int | None = None,
    cache=None,
) -> LRElement:
    """n-th power of a basis partition, cap applied at every step.

    Intermediate powers are memoized per (partition, k, cap), the unit power
    k = 0 always, so it is never read from the optional on-disk cache (see
    powercache). A call with a cache keeps a memo table of its own. One walk
    goes down from n to the highest power that the cache holds or the memo
    holds within the budget; the cache gets every power in the memo. Each
    step applies the expansion of the partition to the whole previous power.
    """
    n = as_count(n, "exponent")
    cap = check_cap(cap)
    bud = term_budget(budget)
    parts = a.parts
    memo = _power_memo if cache is None else {}
    memo.setdefault((parts, 0, cap), ({(): 1}, 1))
    k0 = n
    while k0 and ((hit := memo.get((parts, k0, cap))) is None or hit[1] > bud):
        got = None if cache is None else cache.get(parts, k0, cap)
        if got is not None:
            memo[(parts, k0, cap)] = (got, len(got))
            break
        k0 -= 1
    cur, peak = memo[(parts, k0, cap)]
    _check_budget(peak, bud)
    if k0 < n:
        exp, exp_peak = _expansion(parts, cap, bud)
        peak = max(peak, exp_peak)
    for k in range(k0 + 1, n + 1):
        cur, step_peak = _apply(cur, exp, cap, bud)
        peak = max(peak, step_peak)
        memo[(parts, k, cap)] = (cur, peak)
    if cache is not None:
        for (_, k, _), (terms, _) in memo.items():
            cache.put(parts, k, cap, terms)
    return LRElement._from_raw(cur, cap)


def lr_coefficient(a: Partition, b: Partition, c: Partition) -> int:
    """Multiplicity of c in a x b, counted directly from skew fillings.

    Counts column-strict fillings of the diagram difference c/a whose entry
    counts match b and whose reverse reading word (right to left along rows,
    top to bottom) keeps every value at least as frequent as the next one.
    """
    if a.weight + b.weight != c.weight:
        return 0
    if not c.contains(a):
        return 0
    if b.weight == 0:
        return 1
    nb = len(b)
    ap = a.padded(len(c))
    cp = c.parts
    cells = []
    for i in range(len(cp)):
        for j in range(cp[i], ap[i], -1):
            cells.append((i, j))
    counts = [0] * (nb + 2)
    remaining = list(b.parts)
    filled: dict[tuple[int, int], int] = {}
    total = 0

    def rec(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        right = filled.get((i, j + 1))
        hi = right if right is not None else nb
        if i > 0 and j > ap[i - 1]:
            lo = filled[(i - 1, j)] + 1
        else:
            lo = 1
        for v in range(lo, hi + 1):
            if not remaining[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            remaining[v - 1] -= 1
            filled[(i, j)] = v
            rec(idx + 1)
            counts[v] -= 1
            remaining[v - 1] += 1
            del filled[(i, j)]

    rec(0)
    return total


def mul_tableau(a: Partition, b: Partition, cap: int | None = None) -> LRElement:
    """Product of two basis partitions via the skew-filling count (oracle)."""
    cap = check_cap(cap)
    total = a.weight + b.weight
    max_len = len(a) + len(b)
    if cap is not None:
        max_len = min(max_len, cap)
    max_part = (a.parts[0] if a else 0) + (b.parts[0] if b else 0)
    acc: dict[Partition, int] = {}
    for c in partitions_of(total, max_len=max_len, max_part=max_part):
        if not c.contains(a):
            continue
        k = lr_coefficient(a, b, c)
        if k:
            acc[c] = k
    return LRElement(acc, cap=cap)


def gl_dimension(p: Partition, d: int) -> int:
    """Dimension of the Schur functor of shape p on a d-dimensional space.

    Weyl's formula, the product over i < j <= d of (p_i - p_j + j - i)/(j - i),
    O(d^2) whatever the weight (Fulton-Harris, Lecture 6); zero when p has
    more rows than d.
    """
    if len(p) > (d := as_count(d, "dimension", positive=True)):
        return 0
    parts = p.parts + (0,) * (d - len(p))
    num = den = 1
    for j in range(1, d):
        for i in range(j):
            num *= parts[i] - parts[j] + j - i
            den *= j - i
    if num % den:
        raise InternalCheckError(f"Weyl dimension not integral for {p}, d={d}")
    return num // den
