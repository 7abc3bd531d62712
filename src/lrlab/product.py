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

The test suite demands that both agree. Memo values are term dicts shared
with LRElement and never mutated; lrlab starts no threads, so no memo table
has concurrent readers. The product memo is keyed by the unordered pair of
factors in lexicographic order; of that pair the factor with the shorter
expansion is expanded (the second on a tie), so mul(a, b) and mul(b, a) share
one computation, and a product's peak depends only on the unordered pair.

The vertical-strip step has one memo table per (column height, cap), keyed
by the part tuple, which _apply looks up inline. Every tuple the step builds
is interned in _canon, so each partition exists once and memo values,
products and powers hold references to it.

Every expansion, product and power memo value is a pair (result, peak),
where peak is the largest term count any step of its computation reached,
sub-computations included. A hit whose peak exceeds the caller's budget
raises BudgetExceeded as the cold computation would have, so the outcome of
a call does not depend on what ran before it. A power read from an on-disk
cache is the exception: its file record has no peak, so its size stands in.
"""

from __future__ import annotations

import contextlib
import os

from .elements import LRElement
from .errors import BudgetExceeded, InternalCheckError
from .partitions import Partition, partitions_of

DEFAULT_TERM_BUDGET = 5_000_000
BUDGET_ENV_VAR = "LRLAB_BUDGET"

_pieri_memo: dict = {}  # (r, cap) -> {parts: strips}
_canon: dict = {}  # intern table: the one tuple of each partition _pieri built
_exp_memo: dict = {}
_mul_memo: dict = {}
_power_memo: dict = {}


def term_budget(explicit: int | None = None) -> int:
    """Effective term budget: explicit argument, else environment, else default.
    A budget that is negative or not an integer raises ValueError naming it."""
    name, value = "budget", explicit
    if explicit is None:
        name, value = BUDGET_ENV_VAR, os.environ.get(BUDGET_ENV_VAR)
        if value is None:
            return DEFAULT_TERM_BUDGET
        with contextlib.suppress(ValueError):
            value = int(value)
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, not {value!r}")
    return value


def clear_caches() -> None:
    _pieri_memo.clear()
    _canon.clear()
    _exp_memo.clear()
    _mul_memo.clear()
    _power_memo.clear()


def _check_budget(terms: int, budget: int) -> None:
    if terms > budget:
        raise BudgetExceeded(f"{terms} terms exceed budget {budget}")


def _check_nonnegative(terms: dict[tuple[int, ...], int], what: str) -> None:
    for m in terms.values():
        if m < 0:
            raise InternalCheckError(f"negative multiplicity in {what}")


def _pieri(parts: tuple[int, ...], r: int, cap: int | None) -> tuple[tuple[int, ...], ...]:
    """Support of (partition x one column of height r); multiplicity-free."""
    table = _pieri_memo.setdefault((r, cap), {})
    hit = table.get(parts)
    if hit is not None:
        return hit
    canon = _canon.setdefault
    parts = canon(parts, parts)
    if r == 0:
        out = (parts,) if cap is None or len(parts) <= cap else ()
    elif not parts:
        out = (canon((1,) * r, (1,) * r),) if cap is None or r <= cap else ()
    else:
        head, tail = parts[0], parts[1:]
        res = []
        for u in _pieri(tail, r - 1, cap):
            v = (head + 1,) + u
            if cap is None or len(v) <= cap:
                res.append(canon(v, v))
        for u in _pieri(tail, r, cap):
            if not u or head >= u[0]:
                v = (head,) + u
                if cap is None or len(v) <= cap:
                    res.append(canon(v, v))
        out = tuple(res)
    table[parts] = out
    return out


def _apply(
    start: dict[tuple[int, ...], int],
    expansion: dict[tuple[int, ...], int],
    cap: int | None,
    budget: int,
) -> tuple[dict[tuple[int, ...], int], int]:
    """sum_mu expansion[mu] * start * e_mu1 * e_mu2 * ..., and its peak term count.

    The column tuples mu are walked in sorted order, keeping the chain of
    partial products of the previous one, so tuples with a common prefix
    share its vertical-strip steps.
    """
    out: dict[tuple[int, ...], int] = {}
    peak = 0
    chain = [start]  # chain[i]: start times the first i columns of prev
    prev: tuple[int, ...] = ()
    for mu in sorted(expansion):
        k = 0
        while k < len(prev) and k < len(mu) and prev[k] == mu[k]:
            k += 1
        del chain[k + 1 :]
        for r in mu[k:]:
            strips = _pieri_memo.setdefault((r, cap), {}).get
            nxt: dict[tuple[int, ...], int] = {}
            get = nxt.get
            for t, m in chain[-1].items():
                for u in strips(t) or _pieri(t, r, cap):  # _pieri on a miss or an empty hit
                    nxt[u] = get(u, 0) + m
            _check_budget(len(nxt), budget)
            peak = max(peak, len(nxt))
            chain.append(nxt)
        prev = mu
        coef = expansion[mu]
        get = out.get
        for t, m in chain[-1].items():
            out[t] = get(t, 0) + coef * m
    out = {t: m for t, m in out.items() if m}
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
    if cap is not None:
        if len(b) > cap:
            return {}, 0
        if cap >= sum(b):
            cap = None  # no partition of |b| is cut: share the uncapped entry
    key = (b, cap)
    hit = _exp_memo.get(key)
    if hit is None:
        # column heights of b, tallest first
        cols = tuple(sum(1 for p in b if p > j) for j in range(b[0] if b else 0))
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
    _check_budget(hit[1], budget)
    return hit


def _mul_parts(
    a: tuple[int, ...], b: tuple[int, ...], cap: int | None, budget: int
) -> dict[tuple[int, ...], int]:
    if b < a:  # the product commutes: one memo entry per unordered pair
        a, b = b, a
    key = (a, b, cap)
    hit = _mul_memo.get(key)
    if hit is None:
        exp_a, peak_a = _expansion(a, cap, budget)
        exp_b, peak_b = _expansion(b, cap, budget)
        # expand the factor with the shorter expansion, on a tie the second
        base, exp = (b, exp_a) if len(exp_a) < len(exp_b) else (a, exp_b)
        out, peak = _apply({base: 1}, exp, cap, budget)
        _check_nonnegative(out, f"{a} x {b}")
        hit = _mul_memo[key] = (out, max(peak, peak_a, peak_b))
    _check_budget(hit[1], budget)
    return hit[0]


def mul(a: Partition, b: Partition, cap: int | None = None, budget: int | None = None) -> LRElement:
    """Product of two basis partitions (signed column expansion)."""
    terms = _mul_parts(a.parts, b.parts, cap, term_budget(budget))
    return LRElement._from_raw(terms, cap)


def mul_by_column(a: Partition, r: int, cap: int | None = None) -> LRElement:
    """Product with a single column of height r (vertical-strip expansion)."""
    if r < 0:
        raise ValueError("negative column height")
    return LRElement._from_raw({t: 1 for t in _pieri(a.parts, r, cap)}, cap)


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

    Intermediate powers are memoized per (partition, k, cap); an optional
    on-disk cache object (see powercache) is consulted first and updated with
    every power computed along the way. Each step applies the expansion of
    the partition to the whole previous power at once.
    """
    if n < 0:
        raise ValueError("negative exponent")
    bud = term_budget(budget)
    parts = a.parts
    hit = None
    k0 = 0
    for k in range(n, -1, -1):
        hit = _power_memo.get((parts, k, cap))
        if hit is None and cache is not None:
            got = cache.get(parts, k, cap)
            if got is not None:
                hit = _power_memo[(parts, k, cap)] = (got, len(got))
        if hit is not None:
            k0 = k
            break
    if hit is None:
        hit = _power_memo[(parts, 0, cap)] = ({(): 1}, 1)
    cur, peak = hit
    _check_budget(peak, bud)
    if k0 < n:
        exp, exp_peak = _expansion(parts, cap, bud)
        peak = max(peak, exp_peak)
    for k in range(k0 + 1, n + 1):
        cur, step_peak = _apply(cur, exp, cap, bud)
        _check_nonnegative(cur, f"{a}^{k}")
        peak = max(peak, step_peak)
        _power_memo[(parts, k, cap)] = (cur, peak)
    if cache is not None:
        for k in range(n + 1):
            hit = _power_memo.get((parts, k, cap))
            if hit is not None:
                cache.put(parts, k, cap, hit[0])
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
    if d < 1:
        raise ValueError("dimension must be positive")
    if len(p) > d:
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
