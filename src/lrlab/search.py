"""Support searches over tensor powers.

The uniform-exponent property (every dominated partition of the right weight
shows up in the power), its empirical threshold over a window, and the
support-transfer witnesses between powers of two comparable partitions.
"""

from __future__ import annotations

from math import gcd

from .errors import HypothesisFails, NotFoundWithin
from .partitions import Dominance, Partition, as_count, dominance_compare, dominated_partitions
from .product import tensor_power
from .reports import ExponentSearch, TransferWitness


def property_holds(a: Partition, n: int, l: int) -> tuple[bool, Partition | None]:
    """Does every B of length <= l with B dominated by n*a appear in a^n?

    Returns (True, None) or (False, first counterexample) with candidates
    enumerated in descending lexicographic order.
    """
    l = as_count(l, "l")
    a.padded(l)  # raises InvalidPartition when a is longer than l
    power = tensor_power(a, n, cap=l)
    for b in dominated_partitions(a.scaled(n), l):
        if power[b] == 0:
            return False, b
    return True, None


def minimal_uniform_exponent(a: Partition, l: int, n_max: int) -> ExponentSearch:
    """Smallest N with the property holding for every n in N..n_max.

    The property is not assumed monotone in n, so the whole window 1..n_max
    is swept and every failing n is reported with its first counterexample;
    threshold None means the property still fails at n_max itself.
    """
    l = as_count(l, "l")
    n_max = as_count(n_max, "n_max", positive=True)
    failures: list[tuple[int, Partition]] = []
    for n in range(1, n_max + 1):
        ok, bad = property_holds(a, n, l)
        if not ok:
            failures.append((n, bad))
    if not failures:
        threshold = 1
    elif failures[-1][0] == n_max:
        threshold = None
    else:
        threshold = failures[-1][0] + 1
    return ExponentSearch(a, l, n_max, threshold, failures)


def transfer_witness(a: Partition, b: Partition, d: int, t_max: int = 8) -> TransferWitness:
    """Smallest t with support(b^(tM)) inside support(a^(tN)) at length d.

    M = |a|/gcd, N = |b|/gcd, so both sides have equal weight t*|a||b|/gcd.
    Requires |b|*a to dominate |a|*b (both scaled to weight |a||b|).
    """
    d = as_count(d, "d")
    t_max = as_count(t_max, "t_max", positive=True)
    if len(a) > d or len(b) > d:
        raise HypothesisFails(f"lengths of {a}, {b} must be at most {d}")
    wa, wb = a.weight, b.weight
    if wa == 0 and wb == 0:
        return TransferWitness(a, b, d, 1, 1, 1, (1, 1))
    rel = dominance_compare(a.scaled(wb), b.scaled(wa))
    if rel not in (Dominance.GREATER, Dominance.EQUAL):
        raise HypothesisFails(
            f"{wb}*{a} does not dominate {wa}*{b} (comparison: {rel.value})"
        )
    g = gcd(wa, wb)
    m_exp = wa // g
    n_exp = wb // g
    for t in range(1, t_max + 1):
        supp_b = tensor_power(b, t * m_exp, cap=d).support()
        supp_a = tensor_power(a, t * n_exp, cap=d).support()
        if supp_b <= supp_a:
            return TransferWitness(a, b, d, m_exp, n_exp, t, (len(supp_b), len(supp_a)))
    raise NotFoundWithin(f"no support containment for t up to {t_max}")
