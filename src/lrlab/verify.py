"""Bounded machine verification of the product identities and containments.

Each suite is one generator whose keyword-only parameters are its bounds;
the term budget is the product layer's (LRLAB_BUDGET or its default), read
once per sweep by its first product or power. A suite enumerates every
instance that satisfies its hypotheses inside the bounds, checks the claimed
containment or equality there, with exact arithmetic, and yields the
instance, a dict of the values it already holds (partitions, ints, part
tuples), together with its failure reason, or None when the claim holds.
verify_lemma counts the instances and writes only the failing ones as
records, in enumeration order, with partitions as part lists; so a report is
byte-stable and each recorded failure can be replayed from its record alone.

A suite asks for one coefficient of a power or a product through
_missing_from_power or _missing_from_product, which word a miss; MULT_CIRC
and MULT_PLUS keep the products they read many coefficients from, and
CHI_SYMMETRY the terms of each A x B.
"""

from __future__ import annotations

from itertools import accumulate, compress, product
from operator import ge, ne
from time import perf_counter
from typing import Callable, Iterator

from .elements import LRElement
from .errors import UnknownLemma
from .partitions import (
    Dominance,
    Partition,
    as_count,
    diagram_distance,
    dominance_compare,
    interpolating_sequence,
    lcm_upto,
    partitions_of,
    partitions_up_to,
    single_column,
)
from .product import _budget_read_once, mul, tensor_power
from .reports import VerificationReport
from .subdivisions import (
    Subdivision,
    all_subdivisions,
    blockwise_reversed_negation,
    cone_generator,
    perturbed_generator,
    perturbed_generator_raw,
    restrict,
    reversed_negation,
)

Checked = Iterator[tuple[dict, str | None]]


def _distance_one_pairs(w: int, max_len: int | None = None):
    """(P, Q, row only in P, row only in Q) with P above Q, one cell apart."""
    ps = list(partitions_of(w, max_len=max_len))
    rows = [p.padded(w) for p in ps]
    out = []
    for hi, x in zip(ps, rows):
        for lo, y in zip(ps, rows):
            moved = [r for r in range(w) if x[r] != y[r]]
            # one cell apart with P above Q: two rows differ, the upper one longer in P
            if len(moved) == 2 and x[moved[0]] == y[moved[0]] + 1:
                out.append((hi, lo, moved[0] + 1, moved[1] + 1))
    return out


def _by_length(max_weight: int, max_l: int) -> Iterator[tuple[int, list[Partition]]]:
    """(l, partitions of weight <= max_weight with at most l rows) for l = 1..max_l."""
    for l in range(1, max_l + 1):
        yield l, list(partitions_up_to(max_weight, max_len=l))


def _by_subdivision(max_weight: int, max_l: int) -> Iterator[tuple[int, Subdivision, list[Partition]]]:
    """(l, J, pool) for every subdivision J of {1..l}, l and pool as in _by_length."""
    for l, pool in _by_length(max_weight, max_l):
        for j in all_subdivisions(l):
            yield l, j, pool


def _missing_from_power(target: Partition, a: Partition, n: int, l: int) -> str | None:
    """None when target is a term of a^n under the length cap l, else the reason."""
    return None if tensor_power(a, n, cap=l)[target] else f"{target} missing from {a}^{n}"


def _missing_from_product(target: Partition, a: Partition, b: Partition, l: int) -> str | None:
    """None when target is a term of a x b under the length cap l, else the reason."""
    return None if mul(a, b, cap=l)[target] else f"{target} missing from {a}x{b} at length {l}"


# ---------------------------------------------------------------- suites


def _smaller(*, max_weight=6) -> Checked:
    pairs = []
    for weight in range(1, max_weight + 1):
        pairs.extend(_distance_one_pairs(weight))
    for a1, a2, ra_hi, ra_lo in pairs:
        for c1, c2, rc_hi, rc_lo in pairs:
            # the removed-cell row on each side must not exceed the
            # added-cell row on the other side
            if not (ra_lo >= rc_hi and rc_lo >= ra_hi):
                continue
            reason = None
            if mul(a1, c1)[a2.plus(c2)] < 1:
                reason = f"{a2}+{c2} missing from {a1}x{c1}"
            yield {"A1": a1, "A2": a2, "C1": c1, "C2": c2}, reason


def _chi(*, max_weight=5, max_l=3) -> Checked:
    for l, pool in _by_length(max_weight, max_l):
        for a in pool:
            for b in pool:
                p = a.shifted(reversed_negation(b, l))
                if p is None:
                    continue
                yield {"l": l, "A": a, "B": b, "shifted": p}, _missing_from_product(a, p, b, l)


def _atensorl(*, max_weight=5, max_l=3) -> Checked:
    for l, pool in _by_length(max_weight, max_l):
        for a in pool:
            full = Partition([a.weight] * l)
            shifted = full.shifted(reversed_negation(a, l))
            reason = _missing_from_power(full, a, l, l)
            if reason is None and shifted is None:
                reason = f"shifted target of {a} is not a partition"
            elif reason is None:
                reason = _missing_from_power(shifted, a, l - 1, l)
            yield {"l": l, "A": a}, reason


def _exchange(*, max_l=5) -> Checked:
    for l in range(1, max_l + 1):
        for r, s, t, u in product(range(l + 1), repeat=4):
            if r + s + t + u > l or not (r + s and t + u and r + t and s + u):
                continue
            left = single_column(r).plus(single_column(l - t), l)
            right = single_column(s).plus(single_column(l - u), l)
            top = single_column(l).plus(single_column(r + s - 1), l)
            target = top.plus(single_column(l - t - u + 1), l)
            reason = _missing_from_product(target, left, right, l)
            yield {"l": l, "r": r, "s": s, "t": t, "u": u}, reason


def _g_in_tensor(*, max_weight=4, max_l=3) -> Checked:
    for l, j, pool in _by_subdivision(max_weight, max_l):
        big_l = lcm_upto(l)
        for a in pool:
            gen = cone_generator(a, j)
            shifted = gen.shifted(blockwise_reversed_negation(a, j))
            reason = _missing_from_power(gen, a, big_l, l)
            if reason is None and shifted is None:
                reason = f"shifted generator of {a} with {j} is not a partition"
            elif reason is None:
                reason = _missing_from_power(shifted, a, big_l - 1, l)
            yield {"l": l, "mask": j.mask, "A": a}, reason


def _h_in_tensor(*, max_weight=4, max_l=3) -> Checked:
    for l, j, pool in _by_subdivision(max_weight, max_l):
        big_l = lcm_upto(l)
        for a in pool[1:]:  # the empty partition comes first and has no columns
            conj = a.conjugate()
            for beta in range(2, a.parts[0] + 1):
                for delta in range(1, beta):
                    if conj[delta - 1] + 1 > l:
                        continue
                    m, n, h = perturbed_generator(a, j, beta, delta)
                    if h is None:
                        reason = f"perturbation (m={m}, n={n}) of {a} with {j} is not a partition"
                    else:
                        reason = _missing_from_power(h, a, big_l, l)
                    record = {"l": l, "mask": j.mask, "A": a, "beta": beta, "delta": delta}
                    yield record, reason


def _h_mult_p(*, max_weight=4, max_l=3, max_weight_p=4) -> Checked:
    for l, pool in _by_length(max_weight, max_l):
        move_pool = []
        for weight in range(1, max_weight_p + 1):
            move_pool.extend(_distance_one_pairs(weight, max_len=l))
        for j in all_subdivisions(l):
            blocks = range(1, j.block_count + 1)
            for a in pool:
                gen = cone_generator(a, j)
                for m, n in product(blocks, blocks):
                    if not (m < n or (m == n and j.sizes[m - 1] > 1)):
                        continue
                    h = perturbed_generator_raw(a, j, m, n)
                    if h is None:
                        continue
                    for p_hi, p_lo, r_hi, r_lo in move_pool:
                        if not (j.block_of(r_hi) <= m and n <= j.block_of(r_lo)):
                            continue
                        reason = _missing_from_product(gen.plus(p_lo, l), h, p_hi, l)
                        record = {
                            "l": l,
                            "mask": j.mask,
                            "A": a,
                            "m": m,
                            "n": n,
                            "P": p_hi,
                            "P2": p_lo,
                        }
                        yield record, reason


def _a_mult_pp(*, max_weight=4, max_l=3, max_k=2) -> Checked:
    for l, j, pool in _by_subdivision(max_weight, max_l):
        for a in pool:
            for b in partitions_of(a.weight, max_len=l):
                if dominance_compare(a, b) is not Dominance.GREATER:
                    continue
                k = diagram_distance(a, b)
                if not 1 <= k <= max_k:
                    continue
                target = cone_generator(a, j).scaled(k).plus(b, l)
                reason = _missing_from_power(target, a, k * lcm_upto(l) + 1, l)
                yield {"l": l, "mask": j.mask, "A": a, "B": b, "k": k}, reason


def _mult_plus(*, max_weight=6) -> Checked:
    pool = list(partitions_up_to(max_weight))
    weights = [p.weight for p in pool]
    # row i: (C, |pool[i]| + |C|, support of pool[i] x C) for each C the weight allows
    rows = [
        [(c, wb + wc, [q for q, _ in mul(b, c).items()])
         for c, wc in zip(pool, weights) if wb + wc <= max_weight]
        for b, wb in zip(pool, weights)
    ]
    for b1, row1 in zip(pool, rows):
        for c1, w1, supp1 in row1:
            for b2, row2 in zip(pool, rows):
                for c2, w2, supp2 in row2:
                    if w1 + w2 > max_weight:
                        break
                    big = mul(b1.plus(b2), c1.plus(c2))
                    for a1 in supp1:
                        for a2 in supp2:
                            reason = None
                            if big[a1.plus(a2)] < 1:
                                reason = f"{a1.plus(a2)} missing from ({b1}+{b2})x({c1}+{c2})"
                            record = {"B1": b1, "C1": c1, "B2": b2, "C2": c2, "A1": a1, "A2": a2}
                            yield record, reason


def _mult_inert(*, max_weight=6) -> Checked:
    pool = list(partitions_up_to(max_weight))
    for a in pool:
        for b in pool:
            if a.weight + b.weight > max_weight:
                break
            for c in pool:
                if a.weight + b.weight + c.weight > max_weight:
                    break
                lhs = mul(a.plus(b), c)
                rhs = mul(b, c).shift_add(a)
                reason = None
                if not rhs.leq(lhs):
                    reason = f"{a}+({b}x{c}) is not below ({a}+{b})x{c}"
                yield {"A": a, "B": b, "C": c}, reason


def _mult_circ(*, max_weight=6, max_l=3) -> Checked:
    for l, j, pool in _by_subdivision(max_weight, max_l):
        for b in pool:
            for c in pool:
                if b.weight + c.weight > max_weight:
                    break
                supports = []
                for iv in j.intervals:
                    block = mul(restrict(b, iv, l), restrict(c, iv, l), cap=len(iv))
                    supports.append([q.parts for q, _ in block.items()])
                whole = mul(b, c, cap=l)
                for chosen in product(*supports):
                    flat = []
                    for iv, blk in zip(j.intervals, chosen):
                        flat.extend(blk + (0,) * (len(iv) - len(blk)))
                    reason = None
                    if any(x < y for x, y in zip(flat, flat[1:])):
                        reason = f"concatenation {flat} is not a partition"
                    elif whole[Partition(flat)] < 1:
                        reason = f"{Partition(flat)} missing from {b}x{c} at length {l}"
                    yield {"l": l, "mask": j.mask, "B": b, "C": c, "blocks": chosen}, reason


def _chain_reason(a: Partition, b: Partition) -> str | None:
    """Why interpolating_sequence(a, b) is not a one-cell chain inside the
    symmetric difference of the two diagrams, or None.

    Partitions are padded to one length, so distances are sums of positive
    row differences. A step moves one cell when exactly two rows change, the
    upper losing a cell and the lower gaining one; it stays inside the
    difference when the losing row keeps b_r <= new <= old <= a_r and the
    gaining row a_r <= old < new <= b_r. Adjacent steps suffice: once the
    length and one-cell checks pass, distance + 1 one-cell steps lead from a
    to b, so every row moves monotonically from a_r to b_r and the cells
    between any two steps are those of the adjacent steps in between. For
    the same reason the containment check cannot fail then; it is a cheap
    guard, and its reason comes after every one-cell reason.
    """
    seq = interpolating_sequence(a, b)
    n = max(map(len, (a, b, *seq)))
    pa, pb = a.padded(n), b.padded(n)
    rows = [p.padded(n) for p in seq]
    dist = sum(x - y for x, y in zip(pa, pb) if x > y)
    if len(seq) != dist + 1:
        return f"length {len(seq)} differs from distance {dist} + 1"
    if seq[0] != a or seq[-1] != b:
        return "endpoints wrong"
    outside = None
    for i, (px, py) in enumerate(zip(rows, rows[1:])):
        moved = list(compress(range(n), map(ne, px, py)))
        if len(moved) == 2:
            r, s = moved
            down, up = px[r] - py[r], py[s] - px[s]
        if len(moved) != 2 or down != up or down not in (1, -1):
            return f"adjacent distance is not 1 between {seq[i]} and {seq[i + 1]}"
        if down < 0:  # the cell went up a row
            return f"{seq[i]} does not strictly dominate {seq[i + 1]}"
        if outside is None and (py[r] < pb[r] or px[r] > pa[r] or px[s] < pa[s] or py[s] > pb[s]):
            outside = f"cells of step {i}->{i + 1} leave the symmetric difference"
    return outside


def _pseq(*, max_weight=8) -> Checked:
    for weight in range(max_weight + 1):
        pool = list(partitions_of(weight))
        sums = [tuple(accumulate(p.padded(weight))) for p in pool]
        for a, sa in zip(pool, sums):
            for b, sb in zip(pool, sums):
                if all(map(ge, sa, sb)):  # a dominates b
                    yield {"A": a, "B": b}, _chain_reason(a, b)


def _chi_symmetry(*, max_weight=4, max_l=3, max_shift=4) -> Checked:
    for l, pool in _by_length(max_weight, max_l):
        det = single_column(l)
        # (A, m, chi(A) + m*det) for every A whose shifted image is a partition
        shifted = []
        for a in pool:
            neg = reversed_negation(a, l)
            for m in range(max_shift + 1):
                pa = det.scaled(m).shifted(neg)
                if pa is not None:
                    shifted.append((a, m, pa))
        negated = {}  # (A, B) -> (C, chi(C), multiplicity) for the terms C of A x B
        for a, m, pa in shifted:
            for b, n, pb in shifted:
                lhs = mul(pa, pb, cap=l)
                terms = negated.get((a, b))
                if terms is None:
                    terms = [(c, reversed_negation(c, l), k) for c, k in mul(a, b, cap=l).items()]
                    negated[a, b] = terms
                shift = det.scaled(m + n)
                image: dict[Partition, int] = {}
                reason = None
                for c, neg, mult in terms:
                    q = shift.shifted(neg)
                    if q is None:
                        reason = f"image of {c} under the symmetry is not a partition"
                        break
                    image[q] = image.get(q, 0) + mult
                if reason is None and lhs != LRElement(image, cap=l):
                    reason = f"symmetry image of {a}x{b} differs from {pa}x{pb}"
                yield {"l": l, "A": a, "B": b, "m": m, "n": n}, reason


def _highest_term(*, max_weight=6) -> Checked:
    pool = list(partitions_up_to(max_weight))
    for a in pool:
        for b in pool:
            prod = mul(a, b)
            top = a.plus(b)
            reason = None
            if prod[top] != 1:
                reason = f"{top} has multiplicity {prod[top]} in {a}x{b}"
            else:
                for c, _ in prod.items():
                    if c != top and dominance_compare(top, c) is not Dominance.GREATER:
                        reason = f"term {c} of {a}x{b} is not strictly below {top}"
                        break
            yield {"A": a, "B": b}, reason


_SUITES: dict[str, Callable[..., Checked]] = {
    "SMALLER": _smaller,
    "CHI": _chi,
    "ATENSORL": _atensorl,
    "EXCHANGE": _exchange,
    "G_IN_TENSOR": _g_in_tensor,
    "H_IN_TENSOR": _h_in_tensor,
    "H_MULT_P": _h_mult_p,
    "A_MULT_PP": _a_mult_pp,
    "MULT_PLUS": _mult_plus,
    "MULT_INERT": _mult_inert,
    "MULT_CIRC": _mult_circ,
    "PSEQ": _pseq,
    "CHI_SYMMETRY": _chi_symmetry,
    "HIGHEST_TERM": _highest_term,
}

LEMMA_IDS: tuple[str, ...] = tuple(_SUITES)
_BOUND_NAMES = frozenset(k for suite in _SUITES.values() for k in suite.__kwdefaults__)


def default_bounds(lemma_id: str) -> dict[str, int]:
    """The suite's bounds with their defaults, in the order its report lists them."""
    if lemma_id not in _SUITES:
        raise UnknownLemma(f"no suite named {lemma_id!r}; known: {', '.join(LEMMA_IDS)}")
    return dict(_SUITES[lemma_id].__kwdefaults__)


def _failure_record(instance: dict, reason: str) -> dict:
    """The JSON-ready record of a failing instance: a partition as its part
    list, a tuple as a list item by item, any other value as it is."""

    def write(value):
        if isinstance(value, Partition):
            return list(value.parts)
        if isinstance(value, tuple):
            return [write(v) for v in value]
        return value

    return {**{k: write(v) for k, v in instance.items()}, "reason": reason}


def verify_lemma(lemma_id: str, bounds: dict[str, int] | None = None) -> VerificationReport:
    """Run one suite and report sweep size, failures, and elapsed time.
    Bounds other suites declare are ignored; any other name, or any bound
    that is not a non-negative integer, raises ValueError."""
    bounds = bounds or {}
    defaults = default_bounds(lemma_id)
    unknown = sorted(bounds.keys() - _BOUND_NAMES)
    if unknown:
        raise ValueError(f"no suite takes a bound named {', '.join(unknown)}")
    given = {name: as_count(value, name) for name, value in bounds.items()}
    eff = {k: given.get(k, v) for k, v in defaults.items()}
    start = perf_counter()
    cases = 0
    failures = []
    with _budget_read_once():
        for instance, reason in _SUITES[lemma_id](**eff):
            cases += 1
            if reason is not None:
                failures.append(_failure_record(instance, reason))
    return VerificationReport(
        lemma_id=lemma_id,
        bounds=eff,
        cases_checked=cases,
        failures=failures,
        elapsed=perf_counter() - start,
    )


def verify_all(bounds: dict[str, int] | None = None) -> list[VerificationReport]:
    """All suites in registry order; shared memo caches make this cheaper
    than the sum of its parts."""
    return [verify_lemma(lid, bounds) for lid in LEMMA_IDS]
