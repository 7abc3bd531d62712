"""Exact rational cone computations.

Membership in the dominance cone of a fixed partition, non-negative rational
decompositions over the block-constant generators, and the explicit uniform
exponent bound built from fractional lattice points of simplicial pieces.
All arithmetic is exact (integers and Fractions).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import NoDecomposition, UnsupportedLength
from .partitions import Partition, as_count, diagram_distance, dominates, lcm_upto
from .reports import ConeCertificate
from .subdivisions import Subdivision, all_subdivisions, cone_generator


def cone_membership(b: Partition, a: Partition, l: int) -> ConeCertificate:
    """Is b below some integer multiple of a in dominance order?

    Membership needs |a| to divide |b| and b to be dominated by (|b|/|a|)*a.
    """
    l = as_count(l, "l")
    a.padded(l), b.padded(l)  # raises InvalidPartition for the first one longer than l
    wa, wb = a.weight, b.weight
    if wa == 0:
        if wb == 0:
            return ConeCertificate(member=True, n=0)
        return ConeCertificate(member=False, reason=f"weight {wb} not reachable from the empty partition")
    if wb % wa:
        return ConeCertificate(member=False, reason=f"weight {wa} does not divide {wb}")
    n = wb // wa
    if not dominates(a.scaled(n), b):
        return ConeCertificate(member=False, reason=f"{b} is not dominated by {n}*{a}")
    return ConeCertificate(member=True, n=n)


def _solve_columns(
    cols: list[tuple[int, ...]], target: tuple[int, ...]
) -> list[Fraction] | None:
    """Unique exact solution of sum(k_j * cols[j]) = target, or None.

    Gauss-Jordan elimination: column c is pivoted on the first row, not
    already a pivot row, whose entry there is non-zero. None is returned both
    for inconsistent systems and for linearly dependent column sets; by the
    conic Caratheodory property, skipping dependent sets never loses a
    decomposable target.
    """
    s = len(cols)
    m = [[Fraction(col[i]) for col in cols] + [Fraction(t)] for i, t in enumerate(target)]
    pivots: list[int] = []
    for c in range(s):
        piv = next((i for i in range(len(m)) if i not in pivots and m[i][c] != 0), None)
        if piv is None:
            return None
        pv = m[piv][c]
        m[piv] = [x / pv for x in m[piv]]
        for i, row in enumerate(m):
            if i != piv and row[c] != 0:
                f = row[c]
                m[i] = [x - f * y for x, y in zip(row, m[piv])]
        pivots.append(piv)
    if any(row[s] != 0 for i, row in enumerate(m) if i not in pivots):
        return None
    return [m[p][s] for p in pivots]


def cone_generator_decomposition(b: Partition, a: Partition, l: int) -> ConeCertificate:
    """Non-negative rational combination of the generators equal to b.

    Searches generator subsets of size at most l in a fixed order (subset
    size, then generator index) and solves each candidate system exactly.
    NoDecomposition would falsify the cone-generation claim at this instance
    and is raised with the full instance spelled out.
    """
    l = as_count(l, "l", positive=True)
    cert = cone_membership(b, a, l)
    if not cert.member:
        raise ValueError(f"{b} is not in the cone of {a} at length {l}: {cert.reason}")
    subs = list(all_subdivisions(l))
    gens = [cone_generator(a, j).padded(l) for j in subs]
    target = b.padded(l)
    if not any(target):
        return ConeCertificate(member=True, n=cert.n, decomposition=[])
    for size in range(1, min(l, len(gens)) + 1):
        for idx in combinations(range(len(gens)), size):
            sol = _solve_columns([gens[i] for i in idx], target)
            if sol is None or any(q < 0 for q in sol):
                continue
            deco = [(subs[i], q) for i, q in zip(idx, sol) if q != 0]
            _check_decomposition(deco, a, target, l)
            return ConeCertificate(member=True, n=cert.n, decomposition=deco)
    raise NoDecomposition(
        f"{b} lies in the cone of {a} (l={l}) but is not a non-negative "
        f"rational combination of the {len(gens)} generators; this "
        f"contradicts the cone-generation claim"
    )


def _check_decomposition(
    deco: list[tuple[Subdivision, Fraction]], a: Partition, target: tuple[int, ...], l: int
) -> None:
    """Raise NoDecomposition unless deco has non-negative coefficients and sums to target."""
    acc = [Fraction(0)] * l
    for j, q in deco:
        if q < 0:
            raise NoDecomposition(f"coefficient {q} of {j} is negative for {list(target)}")
        g = cone_generator(a, j).padded(l)
        for i in range(l):
            acc[i] += q * g[i]
    if tuple(acc) != tuple(Fraction(t) for t in target):
        raise NoDecomposition(f"residual is not zero for {list(target)}")


def _fractional_points(cols: list[tuple[int, ...]], l: int) -> set[tuple[int, ...]]:
    """Integer vectors sum(lam_j * cols[j]) with every lam_j in [0, 1).

    Take a nonsingular square row set sq of the columns (none exists when the
    columns are dependent, and then the set is empty). An integer vector
    projects to an integer vector t on those rows, so lam = sq^-1 t mod 1.
    These lam form the group generated, under addition mod 1, by the columns
    of sq^-1; the closure walks that group in integer units of 1/den and
    keeps the members whose combination is integral on every row.
    """
    s = len(cols)
    units = [tuple(int(i == k) for i in range(s)) for k in range(s)]
    for rows in combinations(range(l), s):
        sq = [tuple(col[i] for i in rows) for col in cols]
        inv = [_solve_columns(sq, e) for e in units]
        if None not in inv:
            break
    else:
        return set()
    den = lcm(*(x.denominator for col in inv for x in col))
    gens = [tuple(int(x * den) % den for x in col) for col in inv]
    group = {(0,) * s}
    todo = list(group)
    while todo:
        v = todo.pop()
        for g in gens:
            w = tuple((x + y) % den for x, y in zip(v, g))
            if w not in group:
                group.add(w)
                todo.append(w)
    out: set[tuple[int, ...]] = set()
    for v in group:
        point = [sum(v[j] * cols[j][i] for j in range(s)) for i in range(l)]
        if all(x % den == 0 for x in point):
            out.add(tuple(x // den for x in point))
    return out


def theorem_bound(a: Partition, l: int) -> int:
    """Explicit uniform exponent bound L(l) * (#subdivisions) * M.

    M maximizes (k+1)*n over the fractional lattice points P of the
    simplicial pieces of the generator cone, with n = |P|/|a| and k the
    diagram distance between P and n*a. Points whose weight is not a
    multiple of |a| cannot occur as fractional parts of integral cone
    members and are skipped. Clamped to at least 1.
    """
    if (l := as_count(l, "l", positive=True)) > 3:
        raise UnsupportedLength(f"bound computation is desk-scale only (l <= 3), got {l}")
    a.padded(l)  # raises InvalidPartition when a is longer than l
    big_l = lcm_upto(l)
    subs = list(all_subdivisions(l))
    if a.weight == 0:
        return 1
    gens = [cone_generator(a, j).padded(l) for j in subs]
    points: set[tuple[int, ...]] = {(0,) * l}
    for size in range(1, l + 1):
        for idx in combinations(range(len(gens)), size):
            points |= _fractional_points([gens[i] for i in idx], l)
    best = 0
    for pt in sorted(points):
        w = sum(pt)
        if w == 0 or w % a.weight:
            continue
        n = w // a.weight
        p = Partition(pt)
        k = diagram_distance(p, a.scaled(n))
        best = max(best, (k + 1) * n)
    return max(1, big_l * len(subs) * best)
