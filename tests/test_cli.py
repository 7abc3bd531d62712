"""Command line surface: formats, exit codes, determinism, cache."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from lrlab import LRElement, Partition, Subdivision, VerificationReport, clear_caches
from lrlab.cli import main, parse_partition
from lrlab.cli import UsageError
from lrlab.errors import InternalCheckError, InvalidPartition
from lrlab.powercache import MAGIC, PowerCache, _terms
from lrlab.reports import ConeCertificate, ExponentSearch, TransferWitness

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
GOLDEN = pathlib.Path(__file__).with_name("data") / "cli_golden.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_proc(*argv, env_extra=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "lrlab", *argv],
        capture_output=True,
        env=env,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParsing:
    def test_literals(self):
        assert parse_partition("[4,2,1]") == Partition([4, 2, 1])
        assert parse_partition("[]") == Partition()

    def test_rejects_garbage(self):
        for bad in ("4,2", "[4,2", "[a]", "[4 2]"):
            with pytest.raises(UsageError):
                parse_partition(bad)
        # a well-formed literal that is not a partition raises the library's own error
        with pytest.raises(InvalidPartition):
            parse_partition("[1,2]")

    # a trailing newline once passed the pattern and failed in int(); an
    # Arabic-Indic three once parsed as [3]
    @pytest.mark.parametrize("literal, shown", [("[2,1]\n", r"'[2,1]\n'"), ("[\u0663]", "'[\u0663]'")])
    def test_trailing_newline_and_non_ascii_digits_are_bad_literals(self, capsys, literal, shown):
        assert main(["dominance", literal, "[1]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad partition literal {shown}; expected like [4,2,1] or []\n"


class TestMulAndPower:
    def test_mul_table(self, capsys):
        code, out = run_cli(capsys, "mul", "[2,1]", "[2,1]")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert "[3,2,1] 2" in lines

    def test_mul_json_roundtrip(self, capsys):
        code, out = run_cli(capsys, "mul", "[2,1]", "[2,1]", "--l", "2", "--json")
        assert code == 0
        elem = LRElement.from_json(json.loads(out))
        assert elem.cap == 2 and elem[Partition([4, 2])] == 1

    def test_power_empty_result(self, capsys):
        code, out = run_cli(capsys, "power", "[1,1,1]", "2", "--l", "2")
        assert code == 0 and out == "empty\n"

    def test_budget_exit_code(self):
        code, out, err = run_proc(
            "power", "[3,2,1]", "6", env_extra={"LRLAB_BUDGET": "10"}
        )
        assert code == 3
        assert b"budget" in err.lower()

    @pytest.mark.parametrize("value, shown", [("-5", "-5"), ("abc", "'abc'")])
    def test_bad_budget_variable_is_usage_error(self, value, shown):
        code, out, err = run_proc("power", "[2,1]", "3", env_extra={"LRLAB_BUDGET": value})
        assert code == 2 and out == b""
        assert err.decode() == f"error: LRLAB_BUDGET must be a non-negative integer, not {shown}\n"

    def test_out_of_memory_exit_code(self, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("lrlab.product.tensor_power", no_memory)
        assert main(["power", "[2,1]", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: out of memory\n"

    def test_recursion_past_the_limit_exit_code(self):
        # the uncapped strip step recurses once per distinct part: a 1,000-row staircase
        # once ended in a RecursionError traceback and exit 1, the "check failed" code
        staircase = "[" + ",".join(map(str, range(1000, 0, -1))) + "]"
        code, out, err = run_proc("mul", staircase, "[1]")
        assert (code, out) == (3, b"")
        assert re.fullmatch(rb"error: recursion deeper than the limit of \d+ frames\n", err)

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["mul", "[2,1]", "[2,1]"], ["power", "[3,1]", "8"]])
    def test_closed_stdout_is_not_an_error(self, argv, unbuffered):
        # `| head` once exited 2 with `error: [Errno 32] Broken pipe`, or, for a small
        # buffered output, 120 from the interpreter's last flush; the 221 KB power fills
        # any pipe buffer. The read end is closed before the child starts.
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lrlab", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_internal_check_error_is_not_a_usage_error(self, monkeypatch):
        # an engine bug keeps its traceback instead of exiting 2 like other lrlab errors
        def broken(*args, **kwargs):
            raise InternalCheckError("negative multiplicity in [1] x [1]")

        monkeypatch.setattr("lrlab.product.mul", broken)
        with pytest.raises(InternalCheckError, match="negative multiplicity"):
            main(["mul", "[1]", "[1]"])


class TestSmallCommands:
    def test_dominance(self, capsys):
        assert run_cli(capsys, "dominance", "[3,1]", "[2,2]") == (0, "Greater\n")
        code, out = run_cli(capsys, "dominance", "[3,1]", "[2,2]", "--json")
        assert json.loads(out) == {"relation": "Greater"}

    def test_interpolate(self, capsys):
        code, out = run_cli(capsys, "interpolate", "[4]", "[2,2]")
        assert code == 0 and out.splitlines() == ["[4]", "[3,1]", "[2,2]"]
        code, out = run_cli(capsys, "interpolate", "[4]", "[2,2]", "--json")
        seq = json.loads(out)["sequence"]
        assert [Partition(p) for p in seq][1] == Partition([3, 1])

    def test_interpolate_incomparable_is_usage_error(self, capsys):
        assert main(["interpolate", "[3,3]", "[4,1,1]"]) == 2

    def test_gj_all(self, capsys):
        code, out = run_cli(capsys, "gj", "[2,1]", "--l", "3")
        assert code == 0
        assert out.splitlines() == [
            "J={(1,2,3)} G=[6,6,6]",
            "J={(1),(2,3)} G=[12,3,3]",
            "J={(1,2),(3)} G=[9,9]",
            "J={(1),(2),(3)} G=[12,6]",
        ]

    def test_gj_json(self, capsys):
        code, out = run_cli(capsys, "gj", "[2,1]", "--l", "2", "--mask", "1", "--json")
        data = json.loads(out)
        row = data["generators"][0]
        assert Subdivision(len(iv) for iv in row["subdivision"]) == Subdivision([1, 1])
        assert Partition(row["generator"]) == Partition([4, 2])

    def test_hj_by_columns(self, capsys):
        code, out = run_cli(
            capsys, "hj", "[2,1]", "--l", "3", "--mask", "3", "--beta", "2", "--delta", "1"
        )
        assert code == 0 and out == "m=1 n=3 H=[11,6,1]\n"

    def test_hj_out_of_range(self, capsys):
        assert main(["hj", "[2,1]", "--l", "2", "--mask", "1", "--beta", "2", "--delta", "1"]) == 2

    def test_hj_raw_mode(self, capsys):
        code, out = run_cli(
            capsys, "hj", "[2,1]", "--l", "2", "--mask", "1", "--m", "1", "--n", "2", "--json"
        )
        data = json.loads(out)
        assert data == {"m": 1, "n": 2, "partition": [3, 3]}

    def test_hj_mixed_modes_rejected(self, capsys):
        # mixed pairs, a half pair, both pairs, and neither
        for extra in (
            ["--m", "1", "--beta", "2"],
            ["--beta", "2"],
            ["--m", "1"],
            ["--beta", "2", "--delta", "1", "--m", "1", "--n", "2"],
            [],
        ):
            assert main(["hj", "[2,1]", "--l", "2", "--mask", "1", *extra]) == 2, extra
            assert capsys.readouterr().err == "error: give either --beta and --delta, or --m and --n\n"


class TestVerifyCommand:
    def test_single_lemma_json(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--lemma", "CHI", "--max-weight", "4", "--max-l", "2", "--json"
        )
        assert code == 0
        rep = VerificationReport.from_json(json.loads(out))
        assert rep.status == "PASS" and rep.lemma_id == "CHI"

    def test_text_line(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--lemma", "PSEQ", "--max-weight", "5"
        )
        assert code == 0
        assert out.startswith("PSEQ: PASS (cases=")

    def test_needs_a_target(self, capsys):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize("argv", [["--all", "--lemma", "PSEQ"], ["--lemma", "CHI", "--all", "--max-l", "2"]])
    def test_lemma_and_all_together_is_usage_error(self, capsys, argv):
        # both once ran all fourteen suites and exited 0
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: verify takes --lemma ID or --all, not both\n"

    def test_sweep_without_products_never_reads_the_budget(self):
        code, out, err = run_proc("verify", "--lemma", "PSEQ", env_extra={"LRLAB_BUDGET": "abc"})
        assert (code, out, err) == (0, b"PSEQ: PASS (cases=472, failures=0)\n", b"")

    @pytest.mark.parametrize(
        "value, code, shown",
        [
            ("abc", 2, "error: LRLAB_BUDGET must be a non-negative integer, not 'abc'"),
            ("0", 3, "error: 1 terms exceed budget 0"),
        ],
    )
    def test_sweep_that_multiplies_reads_the_budget(self, value, code, shown):
        got = run_proc("verify", "--lemma", "SMALLER", env_extra={"LRLAB_BUDGET": value})
        assert got == (code, b"", f"{shown}\n".encode())

    def test_help_lists_the_suites_in_registry_order(self, capsys):
        from lrlab.verify import LEMMA_IDS

        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert len(LEMMA_IDS) == 14
        assert f"--lemma {{{','.join(LEMMA_IDS)}}}" in out

    def test_bound_the_suite_does_not_take_is_usage_error(self, capsys):
        argv = ["verify", "--lemma", "EXCHANGE", "--max-weight", "99", "--max-k", "7", "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: EXCHANGE does not take --max-weight, --max-k; its bounds are --max-l\n"
        )

    def test_fail_report_exits_one(self, capsys, monkeypatch):
        broken = VerificationReport(
            lemma_id="CHI", bounds={}, cases_checked=1,
            failures=[{"reason": "injected"}],
        )
        monkeypatch.setattr("lrlab.verify.verify_lemma", lambda *a, **k: broken)
        code, out = run_cli(capsys, "verify", "--lemma", "CHI")
        assert code == 1
        assert out.startswith("CHI: FAIL")

    def test_all_reduced(self, capsys):
        code, out = run_cli(
            capsys,
            "verify",
            "--all",
            "--max-weight",
            "3",
            "--max-l",
            "2",
            "--max-k",
            "1",
            "--max-weight-p",
            "3",
            "--max-shift",
            "2",
            "--json",
        )
        assert code == 0
        reports = [VerificationReport.from_json(r) for r in json.loads(out)["reports"]]
        assert len(reports) == 14 and all(r.passed for r in reports)


class TestSearchCommands:
    def test_nsearch_text(self, capsys):
        code, out = run_cli(capsys, "nsearch", "[2]", "--l", "2", "--nmax", "5")
        assert code == 0
        assert out == "threshold 2; fails at n=1 with B=[1,1]\n"

    def test_nsearch_json_roundtrip(self, capsys):
        code, out = run_cli(capsys, "nsearch", "[1,1]", "--l", "2", "--nmax", "4", "--json")
        res = ExponentSearch.from_json(json.loads(out))
        assert res.threshold == 1

    def test_cone_member(self, capsys):
        code, out = run_cli(capsys, "cone", "[2,2,2]", "[2,1]", "--l", "3")
        assert code == 0
        assert out == "member n=2\ndecomposition: {(1,2,3)}*1/3\n"

    def test_cone_not_member(self, capsys):
        code, out = run_cli(capsys, "cone", "[3,1]", "[2,1]", "--l", "3")
        assert code == 0 and out.startswith("not a member:")

    def test_cone_json_roundtrip(self, capsys):
        code, out = run_cli(capsys, "cone", "[4,2]", "[2,1]", "--l", "2", "--json")
        cert = ConeCertificate.from_json(json.loads(out))
        assert cert.member and cert.n == 2

    def test_transfer_text_and_json(self, capsys):
        code, out = run_cli(capsys, "transfer", "[2]", "[1,1]", "--d", "2")
        assert code == 0 and out == "t=2 M=1 N=1 supports 1 <= 3\n"
        code, out = run_cli(capsys, "transfer", "[1]", "[1,1]", "--d", "2", "--json")
        wit = TransferWitness.from_json(json.loads(out))
        assert wit.t == 1

    def test_transfer_hypothesis_exit(self, capsys):
        assert main(["transfer", "[1,1]", "[2]", "--d", "2"]) == 2

    def test_transfer_not_found_exit(self, capsys):
        assert main(["transfer", "[2]", "[1,1]", "--d", "2", "--tmax", "1"]) == 1


class TestCache:
    def test_power_cache_cycle(self, tmp_path, capsys):
        path = str(tmp_path / "powers.lrpow")
        code, first = run_cli(capsys, "power", "[2,1]", "4", "--l", "3", "--cache", path)
        assert code == 0
        text = pathlib.Path(path).read_text()
        assert text.startswith(MAGIC + "\n")
        code, second = run_cli(capsys, "power", "[2,1]", "4", "--l", "3", "--cache", path)
        assert second == first
        cache = PowerCache(path)
        assert cache.valid_header and len(cache) >= 4

    def test_cache_info(self, tmp_path, capsys):
        path = str(tmp_path / "powers.lrpow")
        run_cli(capsys, "power", "[2]", "3", "--cache", path)
        code, out = run_cli(capsys, "cache", path, "--json")
        data = json.loads(out)
        assert data["valid"] and data["version"] == MAGIC and data["entries"] >= 3

    def test_bad_magic_invalidates(self, tmp_path, capsys):
        path = tmp_path / "powers.lrpow"
        path.write_text("LRPOW0\njunk\n")
        code, out = run_cli(capsys, "cache", str(path))
        assert code == 0 and "invalid" in out
        # stale file is ignored and rewritten wholesale on the next save
        run_cli(capsys, "power", "[2]", "2", "--cache", str(path))
        assert path.read_text().startswith(MAGIC + "\n")
        assert PowerCache(str(path)).valid_header

    def test_stale_cache_behind_a_symlink_is_rewritten_through_it(self, tmp_path, capsys):
        (tmp_path / "store").mkdir()
        target = tmp_path / "store" / "powers.lrpow"
        target.write_text("LRPOW0\n")
        link = tmp_path / "powers.lrpow"
        link.symlink_to(target)
        assert run_cli(capsys, "power", "[2,1]", "3", "--l", "2", "--cache", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().startswith(MAGIC + "\n")
        assert len(PowerCache(str(target))) == 4
        assert sorted(os.listdir(tmp_path / "store")) == ["powers.lrpow"]

    def test_fifo_as_cache_is_usage_error(self, tmp_path):
        # opening a FIFO for reading blocks until a writer comes: run in a child
        fifo = tmp_path / "powers.lrpow"
        os.mkfifo(fifo)
        for argv in (["cache"], ["power", "[2]", "2", "--cache"]):
            code, out, err = run_proc(*argv, str(fifo), timeout=10)
            assert (code, out) == (2, b"")
            assert err.decode() == f"error: cache {fifo}: not a regular file\n"
        assert os.listdir(tmp_path) == ["powers.lrpow"]

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "powers.lrpow"
        cache = PowerCache(str(path))
        cache.put((2,), 1, None, {(2,): 1})
        cache.save()
        before = path.read_bytes()
        cache.put((2,), 2, None, {(4,): 1, (3, 1): 1, (2, 2): 1})
        cache.put((2,), 3, None, {(6,): 1})
        records = []
        real_dumps = json.dumps

        def dumps_then_fail(rec):
            # the first record reaches the temporary file, the second write fails
            if records:
                raise OSError("disk full")
            records.append(rec)
            return real_dumps(rec)

        monkeypatch.setattr("lrlab.powercache.json.dumps", dumps_then_fail)
        with pytest.raises(OSError, match="disk full"):
            cache.save()
        assert len(records) == 1
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["powers.lrpow"]

    def test_stepwise_sweep_equals_one_shot(self, tmp_path, capsys):
        step, one = tmp_path / "step.lrpow", tmp_path / "one.lrpow"
        for n in range(1, 7):
            clear_caches()
            assert main(["power", "[4,2,1]", str(n), "--l", "4", "--cache", str(step)]) == 0
        clear_caches()
        assert main(["power", "[4,2,1]", "6", "--l", "4", "--cache", str(one)]) == 0
        capsys.readouterr()
        assert step.read_bytes() == one.read_bytes()
        assert len(PowerCache(str(step))) == 7

    def test_stepwise_sweep_file_bytes(self, tmp_path, capsys):
        # records sorted by key in save order, each record's terms in descending order
        path = tmp_path / "sweep.lrpow"
        for n in range(1, 7):
            clear_caches()
            assert main(["power", "[4,2,1]", str(n), "--l", "4", "--cache", str(path)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "add36473845ea27cd841c0cf4fa4d7ce2a2b6acb3be238438bc0c565c800d498"

    def test_corrupt_unit_record_is_never_read(self, tmp_path, capsys):
        # the record passes the load checks (weight 0, multiplicity at least 1);
        # read as the unit power, it doubled every multiplicity built on it
        path = tmp_path / "powers.lrpow"
        rec = {"partition": [2], "n": 0, "cap": None, "terms": [[[], "2"]]}
        path.write_text(MAGIC + "\n" + json.dumps(rec) + "\n")
        assert len(PowerCache(str(path))) == 1
        clear_caches()
        fresh = run_cli(capsys, "power", "[2]", "2")
        assert fresh == (0, "[4] 1\n[3,1] 1\n[2,2] 1\n")
        clear_caches()
        assert run_cli(capsys, "power", "[2]", "2", "--cache", str(path)) == fresh

    def test_save_to_a_valid_file_appends_without_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "powers.lrpow"
        cache = PowerCache(str(path))
        cache.put((2,), 1, None, {(2,): 1})
        cache.save()
        before = path.read_bytes()

        def no_rename(*args):
            raise AssertionError("the cache file was replaced")

        monkeypatch.setattr("lrlab.powercache.os.replace", no_rename)
        cache = PowerCache(str(path))
        cache.put((2,), 2, None, {(4,): 1, (3, 1): 1, (2, 2): 1})
        cache.save()
        after = path.read_bytes()
        assert after.startswith(before) and len(after) > len(before)
        assert len(PowerCache(str(path))) == 2
        assert os.listdir(tmp_path) == ["powers.lrpow"]

    def test_failed_rename_removes_the_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "powers.lrpow"
        path.write_text("LRPOW0\n")  # a stale file is rewritten through a rename
        cache = PowerCache(str(path))
        cache.put((2,), 1, None, {(2,): 1})

        def failing_rename(*args):
            raise OSError("rename refused")

        monkeypatch.setattr("lrlab.powercache.os.replace", failing_rename)
        with pytest.raises(OSError, match="rename refused"):
            cache.save()
        assert path.read_text() == "LRPOW0\n"
        assert os.listdir(tmp_path) == ["powers.lrpow"]

    def test_blank_line_between_records_is_skipped(self, tmp_path):
        path = tmp_path / "powers.lrpow"
        cache = PowerCache(str(path))
        cache.put((2,), 1, None, {(2,): 1})
        cache.put((2,), 2, None, {(4,): 1, (3, 1): 1, (2, 2): 1})
        cache.save()
        magic, first, second = path.read_text().splitlines()
        path.write_text(f"{magic}\n{first}\n\n{second}\n")
        cache = PowerCache(str(path))
        assert cache.valid_header and len(cache) == 2
        assert cache.get((2,), 2, None) == {(4,): 1, (3, 1): 1, (2, 2): 1}

    def test_second_save_writes_nothing(self, tmp_path):
        path = tmp_path / "powers.lrpow"
        cache = PowerCache(str(path))
        cache.put((2,), 1, None, {(2,): 1})
        cache.save()
        cache.put((2,), 2, None, {(4,): 1, (3, 1): 1, (2, 2): 1})
        cache.save()
        saved = path.read_bytes()
        cache.put((2,), 2, None, {(4,): 1, (3, 1): 1, (2, 2): 1})  # a key it holds
        cache.save()
        assert path.read_bytes() == saved
        assert len(saved.splitlines()) == 3

    @pytest.mark.parametrize("fault", ["raise", "short"])
    def test_failed_append_keeps_old_file(self, tmp_path, monkeypatch, fault):
        path = tmp_path / "powers.lrpow"
        cache = PowerCache(str(path))
        cache.put((2,), 1, None, {(2,): 1})
        cache.save()
        before = path.read_bytes()
        cache.put((2,), 2, None, {(4,): 1, (3, 1): 1, (2, 2): 1})
        real_write = os.write

        def failing_write(fd, data):
            if fault == "raise":
                raise OSError("disk full")
            return real_write(fd, data[: len(data) // 2])  # a partial write

        monkeypatch.setattr("lrlab.powercache.os.write", failing_write)
        with pytest.raises(OSError, match="disk full" if fault == "raise" else "short write"):
            cache.save()
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["powers.lrpow"]

    def test_torn_last_record_makes_the_file_stale(self, tmp_path, capsys):
        path = tmp_path / "powers.lrpow"
        argv = ["power", "[2,1]", "3", "--l", "3", "--cache", str(path)]
        clear_caches()
        code, fresh = run_cli(capsys, *argv)
        assert code == 0
        whole = path.read_bytes()
        path.write_bytes(whole[: whole.rindex(b"[")])  # cut the last record mid-line
        cache = PowerCache(str(path))
        assert not cache.valid_header and len(cache) == 0
        clear_caches()
        assert run_cli(capsys, *argv) == (0, fresh)
        assert path.read_bytes() == whole

    def test_deeply_nested_line_makes_the_file_stale(self, tmp_path):
        path = tmp_path / "powers.lrpow"
        path.write_text(MAGIC + "\n" + "[" * 100_000 + "\n")
        cache = PowerCache(str(path))
        assert not cache.valid_header and len(cache) == 0

    def test_file_without_final_newline_is_rewritten(self, tmp_path, capsys):
        path, one = tmp_path / "powers.lrpow", tmp_path / "one.lrpow"
        clear_caches()
        run_cli(capsys, "power", "[2,1]", "2", "--l", "3", "--cache", str(path))
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert len(PowerCache(str(path))) == 3
        for target in (path, one):
            clear_caches()
            run_cli(capsys, "power", "[2,1]", "3", "--l", "3", "--cache", str(target))
        assert path.read_bytes() == one.read_bytes()

    def test_records_stay_in_first_save_order(self, tmp_path):
        path = tmp_path / "powers.lrpow"
        for parts in ((2, 1), (1,)):
            cache = PowerCache(str(path))
            cache.put(parts, 1, None, {parts: 1})
            cache.save()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["partition"] for line in lines[1:]] == [[2, 1], [1]]
        cache = PowerCache(str(path))
        assert cache.valid_header and len(cache) == 2
        assert cache.get((2, 1), 1, None) == {(2, 1): 1}
        assert cache.get((1,), 1, None) == {(1,): 1}

    @pytest.mark.parametrize(
        "key, first, second, valid",
        [
            (([2], 1), [[[2], "1"]], [[[2], "1"]], True),
            (([2], 1), [[[2], "1"]], [[[2], "2"]], False),
            # the same terms in another order, one multiplicity a JSON integer
            (([1], 2), [[[2], "1"], [[1, 1], "1"]], [[[1, 1], 1], [[2], "1"]], True),
        ],
        ids=["same", "different", "reordered"],
    )
    def test_repeated_key(self, tmp_path, key, first, second, valid):
        path = tmp_path / "powers.lrpow"
        parts, n = key
        records = [{"partition": parts, "n": n, "cap": None, "terms": t} for t in (first, second)]
        path.write_text(MAGIC + "\n" + "".join(json.dumps(rec) + "\n" for rec in records))
        cache = PowerCache(str(path))
        assert cache.valid_header == valid and len(cache) == (1 if valid else 0)

    @pytest.mark.parametrize(
        "term",
        [
            [[7, -1], "1"],  # negative part
            [[6, 0], "1"],  # trailing zero
            [[2, 4], "1"],  # not weakly decreasing
            [[2, 2, 2], "1"],  # longer than the cap
            [[4, 1], "1"],  # wrong weight
            [[6], "0"],  # multiplicity below 1
            [[5.0, 1], "1"],  # a float part
            [[5, True], "1"],  # a boolean part
            [[5, 1], 1.9],  # a float multiplicity
            [[5, 1], "1_0"],  # a multiplicity int() would read as 10
            [[5, 1], True],  # a boolean multiplicity
            [[5, 1]],  # no multiplicity
            {"n": 2.0},  # a dict sets fields of the record instead: a float exponent
            {"n": "2"},  # an exponent written as a string
            {"cap": 2.0},  # a float cap
            {"terms": []},  # no terms, though [2,1] fits the cap
            {"partition": [2], "cap": None, "terms": []},  # no terms in an uncapped power
            {"partition": [1, 1], "n": -1, "cap": 1, "terms": []},  # a negative exponent
            {"partition": [1, 1], "n": 3, "cap": -1, "terms": []},  # a negative cap
        ],
    )
    def test_corrupt_record_invalidates(self, tmp_path, capsys, term):
        path = tmp_path / "powers.lrpow"
        argv = ["power", "[2,1]", "2", "--l", "2", "--cache", str(path)]
        clear_caches()
        code, fresh = run_cli(capsys, *argv)
        assert code == 0
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines[1:], 1):
            rec = json.loads(line)
            if rec["n"] == 2:
                if isinstance(term, dict):
                    rec.update(term)
                else:
                    rec["terms"].append(term)
                lines[i] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        cache = PowerCache(str(path))
        assert not cache.valid_header and len(cache) == 0
        clear_caches()
        assert run_cli(capsys, *argv) == (0, fresh)
        assert PowerCache(str(path)).valid_header

    def test_record_without_terms_of_a_power_that_has_some_is_stale(self, tmp_path, capsys):
        path = tmp_path / "powers.lrpow"
        rec = {"partition": [2], "n": 2, "cap": None, "terms": []}
        path.write_text(MAGIC + "\n" + json.dumps(rec) + "\n")
        assert not PowerCache(str(path)).valid_header
        clear_caches()
        out = run_cli(capsys, "power", "[2]", "2", "--cache", str(path))
        assert out == (0, "[4] 1\n[3,1] 1\n[2,2] 1\n")

    def test_powers_cut_by_the_cap_keep_records_without_terms(self, tmp_path, capsys):
        # [1,1,1] is longer than the cap, so every term of its powers past the unit is cut
        path = str(tmp_path / "powers.lrpow")
        clear_caches()
        assert run_cli(capsys, "power", "[1,1,1]", "2", "--l", "2", "--cache", path) == (0, "empty\n")
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh.read().splitlines()[1:]]
        assert [(rec["n"], rec["terms"]) for rec in records] == [(0, [[[], "1"]]), (1, []), (2, [])]
        assert run_cli(capsys, "cache", path) == (0, "LRPOW1 cache valid: entries=3\n")

    def test_open_parses_only_the_records_read(self, tmp_path, capsys, monkeypatch):
        # the file of the bench's stepwise sweep: 15 records, n = 0..14
        path = str(tmp_path / "sweep.lrpow")
        for n in range(1, 15):
            clear_caches()
            assert main(["power", "[4,2,1]", str(n), "--l", "4", "--cache", path]) == 0
        capsys.readouterr()
        parsed = []

        def counting_parse(line):
            parsed.append(line)
            return _terms(line)

        monkeypatch.setattr("lrlab.powercache._terms", counting_parse)
        cache = PowerCache(path)
        assert len(cache) == 15 and parsed == []
        terms = cache.get((4, 2, 1), 14, 4)
        assert len(parsed) == 1 and len(terms) > 0
        assert cache.get((4, 2, 1), 14, 4) is terms and len(parsed) == 1
        assert run_cli(capsys, "cache", path) == (0, "LRPOW1 cache valid: entries=15\n")
        assert len(parsed) == 1

    def test_unwritable_cache_path_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "x.lrpow"
        assert main(["power", "[2]", "2", "--cache", str(missing)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(tmp_path) == []

    def test_directory_as_cache_is_usage_error(self, tmp_path, capsys):
        folder = tmp_path / "powers.lrpow"
        folder.mkdir()
        assert main(["power", "[2]", "2", "--cache", str(folder)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(tmp_path) == ["powers.lrpow"]
        assert os.listdir(folder) == []

    @pytest.mark.parametrize(
        "argv", [["cache"], ["power", "[2]", "2", "--cache"]], ids=["cache", "power"]
    )
    def test_directory_as_cache_fails_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        def no_power(*args, **kwargs):
            raise AssertionError("the power was computed")

        monkeypatch.setattr("lrlab.product.tensor_power", no_power)
        assert main([*argv, str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv", [["cache"], ["power", "[2]", "2", "--cache"]], ids=["cache", "power"]
    )
    def test_missing_directory_fails_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        def no_power(*args, **kwargs):
            raise AssertionError("the power was computed")

        monkeypatch.setattr("lrlab.product.tensor_power", no_power)
        path = tmp_path / "missing" / "x.lrpow"
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cache {path}: directory {tmp_path / 'missing'} does not exist\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv", [["cache", ""], ["power", "[2,1]", "2", "--cache", ""]], ids=["cache", "power"]
    )
    def test_empty_cache_path_fails_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        def no_power(*args, **kwargs):
            raise AssertionError("the power was computed")

        monkeypatch.setattr("lrlab.product.tensor_power", no_power)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: cache path '' is empty\n"
        assert os.listdir(tmp_path) == []


class TestLowerBounds:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gj", "[2,1]", "--l", "0"], "error: l must be a positive integer, not 0"),
            (["cone", "[]", "[]", "--l", "0"], "error: l must be a positive integer, not 0"),
            (["transfer", "[2]", "[1,1]", "--d", "2", "--tmax", "-1"], "error: t_max must be a positive integer, not -1"),
            (["transfer", "[2]", "[1,1]", "--d", "2", "--tmax", "0"], "error: t_max must be a positive integer, not 0"),
        ],
        ids=["gj-l0", "cone-l0", "transfer-tmax-1", "transfer-tmax0"],
    )
    def test_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"


class TestNegativeOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mul", "[2,1]", "[1]", "--l", "-1"],
            ["power", "[2,1]", "2", "--l", "-1"],
            ["transfer", "[2]", "[1,1]", "--d", "-1"],
            ["verify", "--lemma", "CHI", "--max-l", "-2"],
            ["verify", "--lemma", "CHI", "--max-weight", "-1"],
            ["verify", "--lemma", "A_MULT_PP", "--max-k", "-1"],
            ["verify", "--lemma", "H_MULT_P", "--max-weight-p", "-1"],
            ["verify", "--lemma", "CHI_SYMMETRY", "--max-shift", "-1"],
            ["gj", "[2,1]", "--l", "-1"],
            ["hj", "[2,1]", "--l", "-1", "--mask", "0", "--m", "1", "--n", "1"],
            ["nsearch", "[2]", "--l", "-1", "--nmax", "2"],
            ["cone", "[2]", "[1]", "--l", "-1"],
        ],
    )
    def test_rejected_at_parse_time(self, capsys, argv):
        # the option parses as an int and the library refuses it, naming the parameter
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: \w+ must be a (non-negative|positive) integer, not -\d\n", captured.err)

    def test_non_integer_is_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mul", "[1]", "[1]", "--l", "x"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid int value: 'x'" in captured.err


class TestDeterminism:
    def test_verify_bytes_stable_across_threads(self):
        argv = ["verify", "--lemma", "CHI", "--max-weight", "4", "--max-l", "2", "--json"]
        runs = [
            run_proc(*argv, "--threads", "1"),
            run_proc(*argv, "--threads", "8"),
            run_proc(*argv, "--threads", "1"),
        ]
        assert all(code == 0 for code, _, _ in runs)
        outs = {out for _, out, _ in runs}
        assert len(outs) == 1

    def test_power_bytes_stable_across_threads(self):
        a = run_proc("power", "[2,1]", "4", "--l", "3", "--threads", "1")
        b = run_proc("power", "[2,1]", "4", "--l", "3", "--threads", "8")
        assert a == b and a[0] == 0


class TestGolden:
    """Exit code, stdout digest and last stderr line of each recorded command.

    Each case runs in process through main, in a fresh directory, after its
    setup files and setup commands; "env" is set for the command only.
    """

    @pytest.mark.parametrize(
        "case",
        json.loads(GOLDEN.read_text()),
        ids=lambda c: "_".join(c["argv"]) or "no-command",
    )
    def test_matches_golden(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("LRLAB_BUDGET", raising=False)
        for name, text in case.get("files", {}).items():
            (tmp_path / name).write_text(text)
        for argv in case.get("before", []):
            assert main(argv) == 0
        for key, value in case.get("env", {}).items():
            monkeypatch.setenv(key, value)
        capsys.readouterr()
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert {
            "code": code,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "stderr_last": err.splitlines()[-1] if err else "",
        } == case["expect"]
