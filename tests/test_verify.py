"""Verification suite plumbing and spot checks of individual claims.

Full-bounds runs live in the acceptance module; here each suite runs at
reduced bounds so the file stays quick, plus direct checks of the sample
instances each suite is built from.
"""

import hashlib
import json
import os
import pathlib
import re
import types

import pytest

import lrlab.cli as cli_mod
import lrlab.product as product_mod
import lrlab.verify as verify_mod
from lrlab import (
    LEMMA_IDS,
    LRElement,
    Partition,
    VerificationReport,
    clear_caches,
    default_bounds,
    dominates,
    interpolating_sequence,
    mul,
    partitions_of,
    single_column,
    tensor_power,
    verify_all,
    verify_lemma,
)
from lrlab.errors import BudgetExceeded, UnknownLemma


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


@pytest.mark.parametrize("lemma_id", ["EXCHANGE", "CHI"])
def test_a_bool_bound_reports_as_its_int(lemma_id):
    # the report once kept True itself, and its JSON read "max_l": true
    rep = verify_lemma(lemma_id, {"max_l": True})
    assert json.dumps(rep.to_json()) == json.dumps(verify_lemma(lemma_id, {"max_l": 1}).to_json())
    assert type(rep.bounds["max_l"]) is int


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


def _chain_reason_oracle(a, b, seq):
    """The two-pass chain check, kept as the reference for _chain_reason."""
    n = max(len(p) for p in (a, b, *seq))
    pa, pb = a.padded(n), b.padded(n)
    rows = [p.padded(n) for p in seq]
    dist = sum(x - y for x, y in zip(pa, pb) if x > y)
    if len(seq) != dist + 1:
        return f"length {len(seq)} differs from distance {dist} + 1"
    if seq[0] != a or seq[-1] != b:
        return "endpoints wrong"
    for x, y, px, py in zip(seq, seq[1:], rows, rows[1:]):
        down = sum(p - q for p, q in zip(px, py) if p > q)
        up = sum(q - p for p, q in zip(px, py) if q > p)
        if down != 1 or up != 1:
            return f"adjacent distance is not 1 between {x} and {y}"
        if px < py:
            return f"{x} does not strictly dominate {y}"
    for i, (px, py) in enumerate(zip(rows, rows[1:])):
        for p, q, ar, br in zip(px, py, pa, pb):
            if (p > q and (q < br or p > ar)) or (q > p and (p < ar or q > br)):
                return f"cells of step {i}->{i + 1} leave the symmetric difference"
    return None


def _dominating_pairs(max_weight):
    for w in range(max_weight + 1):
        pool = list(partitions_of(w))
        yield from ((a, b) for a in pool for b in pool if dominates(a, b))


def _step_out(a, b, x):
    """x with one cell moved down into a row it leaves the difference of a and b by, or None."""
    n = max(len(a), len(b), len(x)) + 1
    pa, pb, rows = a.padded(n), b.padded(n), list(x.padded(n))
    for r in range(n):
        for s in range(r + 1, n):
            y = rows.copy()
            y[r] -= 1
            y[s] += 1
            if all(p >= q for p, q in zip(y, y[1:])) and (y[r] < pb[r] or y[s] > pb[s] or rows[s] < pa[s]):
                return Partition(y)
    return None


def _mutations(a, b, seq):
    """Broken chains from a to b: a step dropped, duplicated or swapped, a
    wrong endpoint, a two-cell step, a step up, a step out of the difference."""
    k = len(seq)
    for i in range(k):
        yield seq[:i] + seq[i + 1 :]
        yield seq[:i + 1] + seq[i:]
    for i in range(k - 1):
        yield seq[:i] + [seq[i + 1], seq[i]] + seq[i + 2 :]
    yield [a.plus(P(1))] + seq[1:]
    yield seq[:-1] + [b.plus(P(1))]
    yield [b] + seq[1:-1] + [a]
    for i in range(k - 2):
        yield seq[:i + 1] + [seq[i + 2]] + seq[i + 2 :]  # two cells at once, then none
    for i in range(k - 2):  # a cell moved up from the last row, then two cells down
        x = seq[i]
        if len(x) > 1:
            yield seq[:i + 1] + [Partition((x[0] + 1, *x.parts[1:-1], x.parts[-1] - 1))] + seq[i + 2 :]
    for i in range(k - 2):  # one cell out of the difference, then back in two cells at once
        y = _step_out(a, b, seq[i])
        if y is not None:
            yield seq[:i + 1] + [y] + seq[i + 2 :]
    for i in range(k):  # out to a cell below every row of a and b, and back
        yield seq[:i + 1] + [Partition(seq[i].parts + (1,)), seq[i]] + seq[i + 1 :]


def test_chain_reason_matches_two_pass_oracle_on_every_chain_to_weight_10(monkeypatch):
    chains = {}
    monkeypatch.setattr(verify_mod, "interpolating_sequence", lambda x, y: chains[x, y])
    pairs = list(_dominating_pairs(10))
    assert len(pairs) == 1_720
    for a, b in pairs:
        chains[a, b] = interpolating_sequence(a, b)
        assert verify_mod._chain_reason(a, b) is None
        assert _chain_reason_oracle(a, b, chains[a, b]) is None


def test_chain_reason_matches_two_pass_oracle_on_broken_chains(monkeypatch):
    chain = []
    monkeypatch.setattr(verify_mod, "interpolating_sequence", lambda x, y: chain)
    seen = set()
    for a, b in _dominating_pairs(10):
        for chain[:] in _mutations(a, b, interpolating_sequence(a, b)):
            reason = verify_mod._chain_reason(a, b)
            assert reason == _chain_reason_oracle(a, b, chain), (a, b, chain)
            seen.add(reason and re.sub(r"[\d\[\],]+", "#", reason))
    assert seen == {
        "length # differs from distance # + #",
        "endpoints wrong",
        "adjacent distance is not # between # and #",
        "# does not strictly dominate #",
    }


def test_pseq_prefix_sum_filter_yields_the_dominating_pairs_in_order(monkeypatch):
    monkeypatch.setattr(verify_mod, "_chain_reason", lambda a, b: None)
    got = [(case["A"], case["B"]) for case, _ in verify_mod._pseq(max_weight=12)]
    assert got == list(_dominating_pairs(12))


# ------------------------------------------------------------ budget reads


class _CountingEnviron(dict):
    def __init__(self, source):
        super().__init__(source)
        self.reads = 0

    def get(self, key, default=None):
        self.reads += key == "LRLAB_BUDGET"
        return super().get(key, default)


@pytest.fixture
def counted_env(monkeypatch):
    env = _CountingEnviron(os.environ)
    monkeypatch.setattr(product_mod, "os", types.SimpleNamespace(environ=env))
    return env


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_one_sweep_reads_the_budget_at_most_once(counted_env, lemma_id):
    clear_caches()
    verify_lemma(lemma_id, SMALL_BOUNDS[lemma_id])
    assert counted_env.reads == (lemma_id != "PSEQ")
    mul(P(2, 1), P(1))
    mul(P(2, 1), P(1))
    assert counted_env.reads == (lemma_id != "PSEQ") + 2  # outside a sweep each call reads it


def test_budget_changed_between_sweeps_applies_to_the_second(monkeypatch):
    monkeypatch.delenv("LRLAB_BUDGET", raising=False)
    assert verify_lemma("SMALLER", SMALL_BOUNDS["SMALLER"]).passed
    monkeypatch.setenv("LRLAB_BUDGET", "0")
    with pytest.raises(BudgetExceeded, match=" terms exceed budget 0$"):
        verify_lemma("SMALLER", SMALL_BOUNDS["SMALLER"])


def test_mul_reads_the_environment_again_after_a_sweep_raised(monkeypatch):
    monkeypatch.setenv("LRLAB_BUDGET", "0")
    with pytest.raises(BudgetExceeded):
        verify_all(SMALL_BOUNDS["SMALLER"])
    monkeypatch.setenv("LRLAB_BUDGET", "abc")
    with pytest.raises(ValueError, match="^LRLAB_BUDGET must be a non-negative integer, not 'abc'$"):
        mul(P(2, 1), P(1))
    monkeypatch.setenv("LRLAB_BUDGET", "7")
    assert mul(P(2, 1), P(1)) == mul(P(2, 1), P(1), budget=7)
