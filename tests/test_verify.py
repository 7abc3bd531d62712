"""Verification suite plumbing and spot checks of individual claims.

Full-bounds runs live in the acceptance module; here each suite runs at
reduced bounds so the file stays quick, plus direct checks of the sample
instances each suite is built from.
"""

import hashlib
import json
import pathlib
import re

import pytest

import lrlab.cli as cli_mod
import lrlab.verify as verify_mod
from lrlab import (
    LEMMA_IDS,
    LRElement,
    Partition,
    VerificationReport,
    default_bounds,
    interpolating_sequence,
    mul,
    single_column,
    tensor_power,
    verify_all,
    verify_lemma,
)
from lrlab.errors import UnknownLemma


def P(*parts):
    return Partition(parts)


SMALL_BOUNDS = {
    "SMALLER": {"max_weight": 4},
    "CHI": {"max_weight": 4, "max_l": 2},
    "ATENSORL": {"max_weight": 4, "max_l": 2},
    "EXCHANGE": {"max_l": 4},
    "G_IN_TENSOR": {"max_weight": 3, "max_l": 2},
    "H_IN_TENSOR": {"max_weight": 3, "max_l": 2},
    "H_MULT_P": {"max_weight": 3, "max_l": 2, "max_weight_p": 3},
    "A_MULT_PP": {"max_weight": 3, "max_l": 2, "max_k": 1},
    "MULT_PLUS": {"max_weight": 4},
    "MULT_INERT": {"max_weight": 4},
    "MULT_CIRC": {"max_weight": 4, "max_l": 2},
    "PSEQ": {"max_weight": 5},
    "CHI_SYMMETRY": {"max_weight": 3, "max_l": 2, "max_shift": 3},
    "HIGHEST_TERM": {"max_weight": 4},
}


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_suite_passes_at_reduced_bounds(lemma_id):
    rep = verify_lemma(lemma_id, SMALL_BOUNDS[lemma_id])
    assert rep.status == "PASS", rep.failures[:3]
    assert rep.cases_checked > 0
    assert rep.bounds == SMALL_BOUNDS[lemma_id]


def test_unknown_lemma():
    with pytest.raises(UnknownLemma):
        verify_lemma("NOPE")
    with pytest.raises(UnknownLemma):
        default_bounds("NOPE")


def test_bound_that_no_suite_declares_is_refused():
    with pytest.raises(ValueError, match="max_wieght"):
        verify_lemma("PSEQ", {"max_wieght": 3})
    with pytest.raises(ValueError, match="max_wieght"):
        verify_all({"max_weight": 2, "max_wieght": 3})


def test_bound_that_another_suite_declares_is_ignored():
    rep = verify_lemma("PSEQ", {"max_weight": 3, "max_l": 2, "max_k": 1})
    assert rep.bounds == {"max_weight": 3}
    assert rep.cases_checked == verify_lemma("PSEQ", {"max_weight": 3}).cases_checked


@pytest.mark.parametrize(
    "lemma_id, bounds, shown",
    [
        ("CHI", {"max_l": -1}, "max_l must be a non-negative integer, not -1"),
        ("PSEQ", {"max_weight": 2.5}, "max_weight must be a non-negative integer, not 2.5"),
        # max_k is declared by A_MULT_PP alone
        ("CHI", {"max_weight": 2, "max_k": -1}, "max_k must be a non-negative integer, not -1"),
    ],
    ids=["negative", "float", "another_suites_bound"],
)
def test_bound_that_is_not_a_non_negative_integer_is_refused(monkeypatch, lemma_id, bounds, shown):
    def no_suite_runs(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify_mod, "mul", no_suite_runs)
    monkeypatch.setattr(verify_mod, "tensor_power", no_suite_runs)
    monkeypatch.setattr(verify_mod, "interpolating_sequence", no_suite_runs)
    with pytest.raises(ValueError, match=re.escape(shown)):
        verify_lemma(lemma_id, bounds)
    with pytest.raises(ValueError, match=re.escape(shown)):
        verify_all(bounds)


def test_zero_bound_is_an_empty_sweep():
    rep = verify_lemma("CHI", {"max_l": 0})
    assert rep.status == "PASS" and rep.cases_checked == 0


def test_default_bounds_is_a_copy():
    default_bounds("CHI")["max_l"] = 9
    assert default_bounds("CHI") == {"max_weight": 5, "max_l": 3}
    assert verify_lemma("CHI", {"max_weight": 1}).bounds == {"max_weight": 1, "max_l": 3}


def test_cli_bound_options_are_the_declared_bounds():
    declared = {name for lid in LEMMA_IDS for name in default_bounds(lid)}
    assert set(cli_mod._BOUND_NAMES) == declared
    assert len(cli_mod._BOUND_NAMES) == len(declared)


def test_registry_order_is_stable():
    assert LEMMA_IDS == (
        "SMALLER",
        "CHI",
        "ATENSORL",
        "EXCHANGE",
        "G_IN_TENSOR",
        "H_IN_TENSOR",
        "H_MULT_P",
        "A_MULT_PP",
        "MULT_PLUS",
        "MULT_INERT",
        "MULT_CIRC",
        "PSEQ",
        "CHI_SYMMETRY",
        "HIGHEST_TERM",
    )
    # the CLI spells the names out so that building its parser does not import verify
    assert cli_mod.LEMMA_IDS == LEMMA_IDS


def test_report_json_roundtrip():
    rep = VerificationReport(
        lemma_id="CHI",
        bounds={"max_weight": 4, "max_l": 2},
        cases_checked=10,
        failures=[{"l": 2, "A": [2, 1], "reason": "made up"}],
        elapsed=1.25,
    )
    assert rep.status == "FAIL"
    back = VerificationReport.from_json(rep.to_json())
    assert back.to_json() == rep.to_json()
    assert "elapsed" not in rep.to_json()


class TestSampleInstances:
    def test_chi_sample(self):
        # A=(2,1), B=(1) at length 2: (2)x(1) must contain (2,1)
        assert mul(P(2), P(1), cap=2)[P(2, 1)] >= 1

    def test_exchange_sample(self):
        # l=4, r=s=t=u=1: (2,1,1)^2 must contain (3,2,2,1)
        left = single_column(1).plus(single_column(3))
        assert mul(left, left, cap=4)[P(3, 2, 2, 1)] >= 1

    def test_atensorl_sample(self):
        assert tensor_power(P(2, 1), 2, cap=2)[P(3, 3)] >= 1
        assert tensor_power(P(2, 1), 1, cap=2)[P(2, 1)] >= 1


# ------------------------------------------------------------ fault injection

FAULT_GOLDEN = pathlib.Path(__file__).with_name("data") / "verify_faults.json"


def _zero(*args, cap=None, **kwargs):
    return LRElement.zero(cap)


def _drop_top(fn):
    def faulty(*args, **kwargs):
        elem = fn(*args, **kwargs)
        return LRElement(elem.items()[1:], cap=elem.cap)

    return faulty


def _skew(a, b, **kwargs):
    # not commutative: a x b loses its lexicographically largest term when
    # a > b and the product has more than one; this fails the suites no
    # other fault reaches
    elem = mul(a, b, **kwargs)
    items = elem.items()
    return LRElement(items[1:], cap=elem.cap) if a.parts > b.parts and len(items) > 1 else elem


def _drop_last_step(a, b):
    seq = interpolating_sequence(a, b)
    return seq[:-1] if len(seq) > 1 else seq


# Each fault makes the products the suites call wrong, so suites fail and
# their failure records (instance fields, reason text, order) are compared
# with recorded digests; each of the 14 suites fails under at least one fault.
FAULTS = {
    "zero": {"mul": _zero, "tensor_power": _zero},
    "drop_top": {
        "mul": _drop_top(mul),
        "tensor_power": _drop_top(tensor_power),
        "interpolating_sequence": _drop_last_step,
    },
    "skew": {"mul": _skew},
}


def _fingerprint(rep):
    text = json.dumps(rep.to_json())
    return {
        "status": rep.status,
        "cases": rep.cases_checked,
        "failures": len(rep.failures),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def fault_fingerprints(fault):
    with pytest.MonkeyPatch.context() as mp:
        for name, fake in FAULTS[fault].items():
            mp.setattr(verify_mod, name, fake)
        return {lid: _fingerprint(verify_lemma(lid, SMALL_BOUNDS[lid])) for lid in LEMMA_IDS}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_failure_records_match_golden(fault):
    golden = json.loads(FAULT_GOLDEN.read_text())[fault]
    assert fault_fingerprints(fault) == golden


def _count_writes(mp):
    """Reasons of the records verify_lemma writes while mp's patch holds."""
    calls = []
    write = verify_mod._failure_record

    def counted(instance, reason):
        calls.append(reason)
        return write(instance, reason)

    mp.setattr(verify_mod, "_failure_record", counted)
    return calls


def test_passing_sweep_writes_no_record(monkeypatch):
    calls = _count_writes(monkeypatch)
    rep = verify_lemma("SMALLER", {"max_weight": 6})
    assert rep.status == "PASS" and rep.cases_checked > 0
    assert calls == []


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_failures_are_written_once_as_plain_json(monkeypatch, fault):
    # a tuple left in a record dumps as a list, so the golden digests cannot see it
    for name, fake in FAULTS[fault].items():
        monkeypatch.setattr(verify_mod, name, fake)
    calls = _count_writes(monkeypatch)
    for lid in LEMMA_IDS:
        calls.clear()
        out = verify_lemma(lid, SMALL_BOUNDS[lid]).to_json()
        assert out == json.loads(json.dumps(out)), lid
        assert calls == [f["reason"] for f in out["failures"]], lid


def test_h_mult_p_reason_writes_the_move_as_a_partition(monkeypatch):
    # at SMALL_BOUNDS every failing move has one row, where a list and a
    # partition print alike; here sixteen moves have two
    monkeypatch.setattr(verify_mod, "mul", _zero)
    monkeypatch.setattr(verify_mod, "tensor_power", _zero)
    rep = verify_lemma("H_MULT_P", {"max_weight": 2, "max_l": 3, "max_weight_p": 3})
    assert {
        "l": 3,
        "mask": 0,
        "A": [1],
        "m": 1,
        "n": 1,
        "P": [2, 1],
        "P2": [1, 1, 1],
        "reason": "[3,3,3] missing from [3,2,1]x[2,1] at length 3",
    } in rep.failures
    for f in rep.failures:
        assert f["reason"].endswith(f"x{Partition(f['P'])} at length {f['l']}"), f


# ------------------------------------------------------- chain check reasons


@pytest.mark.parametrize(
    "a, b, chain, reason",
    [
        ([4], [2, 2], [[4], [2, 2]], "length 2 differs from distance 2 + 1"),
        ([4, 2], [3, 3], [[3, 3], [4, 2]], "endpoints wrong"),
        ([4, 2], [3, 3], [[4, 2], [4, 1, 1]], "endpoints wrong"),
        ([4], [2, 1, 1], [[4], [2, 2], [2, 1, 1]], "adjacent distance is not 1 between [4] and [2,2]"),
        ([4], [2, 2], [[4], [4], [2, 2]], "adjacent distance is not 1 between [4] and [4]"),
        ([4], [2, 2], [[4], [4, 1], [2, 2]], "adjacent distance is not 1 between [4] and [4,1]"),
        (
            [4, 2, 2],
            [3, 3, 1, 1],
            [[4, 2, 2], [4, 3, 1], [3, 3, 1, 1]],
            "[4,2,2] does not strictly dominate [4,3,1]",
        ),
        ([4], [2, 2], [[4], [3, 1], [2, 2]], None),
    ],
)
def test_chain_reason_pins(monkeypatch, a, b, chain, reason):
    # the containment reason is not listed: a chain that passes the length and
    # one-cell checks moves every row monotonically, so it cannot fire
    monkeypatch.setattr(verify_mod, "interpolating_sequence", lambda x, y: [P(*c) for c in chain])
    assert verify_mod._chain_reason(P(*a), P(*b)) == reason
