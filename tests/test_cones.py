"""Cone membership, exact generator decompositions, the explicit bound."""

import json
import pathlib
from fractions import Fraction

import pytest

from lrlab import (
    ConeCertificate,
    Partition,
    Subdivision,
    all_subdivisions,
    cone_generator,
    cone_generator_decomposition,
    cone_membership,
    dominates,
    minimal_uniform_exponent,
    partitions_of,
    partitions_up_to,
    theorem_bound,
)
from lrlab.cones import _check_decomposition, _solve_columns
from lrlab.errors import InvalidPartition, NoDecomposition, UnsupportedLength


def P(*parts):
    return Partition(parts)


class TestMembership:
    def test_member(self):
        cert = cone_membership(P(2, 2, 2), P(2, 1), 3)
        assert cert.member and cert.n == 2

    def test_weight_obstruction(self):
        cert = cone_membership(P(3, 1), P(2, 1), 3)
        assert not cert.member and "divide" in cert.reason

    def test_multiples_are_members(self):
        for n in range(4):
            cert = cone_membership(P(2, 1).scaled(n), P(2, 1), 3)
            assert cert.member and cert.n == n

    def test_dominance_obstruction(self):
        cert = cone_membership(P(2), P(1, 1), 2)
        assert not cert.member and "dominated" in cert.reason

    def test_empty_partition_reaches_only_weight_zero(self):
        cert = cone_membership(P(1), Partition(), 1)
        assert not cert.member and cert.reason == "weight 1 not reachable from the empty partition"


class TestDecomposition:
    def test_center_ray(self):
        cert = cone_generator_decomposition(P(2, 2, 2), P(2, 1), 3)
        assert cert.decomposition == [(Subdivision([3]), Fraction(1, 3))]

    def test_generator_is_its_own_certificate(self):
        a = P(2, 1)
        for l in (2, 3):
            for j in all_subdivisions(l):
                cert = cone_generator_decomposition(cone_generator(a, j), a, l)
                total = [Fraction(0)] * l
                for sub, q in cert.decomposition:
                    g = cone_generator(a, sub).padded(l)
                    total = [t + q * x for t, x in zip(total, g)]
                assert total == list(cone_generator(a, j).padded(l))

    def test_scaled_partition_decomposes(self):
        from lrlab import lcm_upto

        for l in (1, 2, 3):
            a = P(2, 1) if l >= 2 else P(2)
            big = a.scaled(lcm_upto(l))
            cert = cone_generator_decomposition(big, a, l)
            assert cert.member and cert.decomposition is not None

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            cone_generator_decomposition(P(3, 1), P(2, 1), 3)

    def test_residual_exactness_sweep(self):
        # every decomposition reproduces its target exactly, coefficientwise
        from lrlab import dominated_partitions

        for l in (2, 3):
            for a in partitions_up_to(3, max_len=l):
                if not a:
                    continue
                for n in (1, 2):
                    for b in dominated_partitions(a.scaled(n), l):
                        cert = cone_generator_decomposition(b, a, l)
                        total = [Fraction(0)] * l
                        for sub, q in cert.decomposition:
                            assert q > 0
                            g = cone_generator(a, sub).padded(l)
                            total = [t + q * x for t, x in zip(total, g)]
                        assert total == list(b.padded(l))


class TestExactSolver:
    def test_unique_solution(self):
        sol = _solve_columns([(2, 2), (4, 0)], (3, 1))
        assert sol == [Fraction(1, 2), Fraction(1, 2)]

    def test_inconsistent(self):
        assert _solve_columns([(1, 1)], (1, 2)) is None

    def test_dependent_columns_are_skipped(self):
        assert _solve_columns([(1, 1), (2, 2)], (3, 3)) is None


class TestBound:
    def test_single_box(self):
        assert theorem_bound(P(1), 1) == 1

    def test_row_at_length_two(self):
        assert theorem_bound(P(2), 2) == 16

    def test_unsupported_length(self):
        with pytest.raises(UnsupportedLength):
            theorem_bound(P(1), 4)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_partition_longer_than_the_length(self, l):
        column = P(*[1] * (l + 1))
        with pytest.raises(InvalidPartition) as exc:
            theorem_bound(column, l)
        assert str(exc.value) == f"{column} does not fit length {l}"

    def test_bound_at_least_empirical_threshold(self):
        for l in (1, 2, 3):
            for a in partitions_up_to(3, max_len=l):
                if not a:
                    continue
                bound = theorem_bound(a, l)
                found = minimal_uniform_exponent(a, l, l + 3)
                assert found.threshold is not None
                assert bound >= found.threshold, (a, l)


def test_certificate_json_roundtrip():
    cert = cone_generator_decomposition(P(2, 2, 2), P(2, 1), 3)
    back = ConeCertificate.from_json(cert.to_json())
    assert back.to_json() == cert.to_json()
    non = cone_membership(P(3, 1), P(2, 1), 3)
    assert ConeCertificate.from_json(non.to_json()).to_json() == non.to_json()


class TestPinned:
    """Bounds and certificates recorded before the row reduction was merged."""

    PINS = json.loads((pathlib.Path(__file__).with_name("data") / "cones_pins.json").read_text())

    def test_theorem_bound(self):
        got = {
            f"{a} l={l}": theorem_bound(a, l)
            for l in range(1, 4)
            for a in partitions_up_to(4, max_len=l)
        }
        assert got == self.PINS["theorem_bound"]

    def test_theorem_bound_to_weight_6(self):
        got = {
            f"{a} l={l}": theorem_bound(a, l)
            for l in range(1, 4)
            for a in partitions_up_to(6, max_len=l)
            if a
        }
        assert got == self.PINS["theorem_bound_weight_1_to_6"]

    def test_decompositions(self):
        got = {
            f"{b} {a} l={l}": cone_generator_decomposition(b, a, l).to_json()
            for l in range(1, 4)
            for a in partitions_up_to(3, max_len=l)
            if a
            for n in range(1, 4)
            for b in partitions_of(n * a.weight, max_len=l)
            if dominates(a.scaled(n), b)
        }
        assert got == self.PINS["decompositions"]


class TestCheckDecomposition:
    """cone [11,3,1] [4,1] --l 3: the first solvable generator subset,
    {(1,2,3)}, {(1),(2,3)}, {(1,2),(3)}, solves exactly with a negative
    coefficient, so the search moves on to the next subset."""

    A, B, L = P(4, 1), P(11, 3, 1), 3

    def test_negative_coefficient_is_refused(self):
        subs = list(all_subdivisions(self.L))[:3]
        coeffs = [Fraction(-1, 70), Fraction(8, 21), Fraction(2, 15)]
        gens = [cone_generator(self.A, j).padded(3) for j in subs]
        total = [sum(q * g[i] for g, q in zip(gens, coeffs)) for i in range(3)]
        assert total == list(self.B.parts)  # the residual alone would accept it
        with pytest.raises(NoDecomposition, match="negative"):
            _check_decomposition(list(zip(subs, coeffs)), self.A, self.B.padded(3), self.L)

    def test_returned_decomposition(self):
        cert = cone_generator_decomposition(self.B, self.A, self.L)
        assert cert.n == 3
        assert cert.decomposition == [
            (Subdivision([3]), Fraction(1, 14)),
            (Subdivision([1, 2]), Fraction(2, 21)),
            (Subdivision([1, 1, 1]), Fraction(1, 3)),
        ]
