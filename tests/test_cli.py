import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import product
from pathlib import Path

import pytest

from eiscong.cache import (
    format_cache_line,
    load_bernoulli_cache,
    parse_cache_line,
    save_bernoulli_cache,
)
from eiscong import cache, cli, congruences, eisenstein, exact
from eiscong.cli import (
    STATEMENT_ALIASES,
    STATEMENTS,
    main,
    parse_range,
    smallest_kstar,
)
from eiscong.congruences import CongruenceReport
from eiscong.errors import CacheFormatError
from eiscong.exact import bernoulli, bernoulli_cached_indices, int_str, parse_int
from eiscong.filtration import k0m_of
from eiscong.golden import REPRODUCTION_EXAMPLES
from eiscong.residue import ResidueRing

from conftest import (
    A014233,
    HEX_VALUE,
    bernoulli_by_tangent,
    cache_value_by_regex,
    e_factor_exact,
    e_series_exact,
    identity_sum_by_triple_products,
    inversion_report,
    outcome,
    reduced,
    schoolbook_product,
    telescoping_by_fractions,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def monomial_exact(a: int, b: int, c: int, precision: int = 12) -> tuple:
    """E_4^a E_6^b Delta^c over the rationals, with Delta = (E_4^3 - E_6^2) / 1728."""
    e4, e6 = e_series_exact(4, precision), e_series_exact(6, precision)
    cube, square = reduce(schoolbook_product, [e4] * 3), schoolbook_product(e6, e6)
    delta = tuple((x - y) / 1728 for x, y in zip(cube, square))
    return reduce(schoolbook_product, [e4] * a + [e6] * b + [delta] * c,
                  e_series_exact(0, precision))


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_python(*args, timeout=120):
    """`python ARGS` in a fresh interpreter, importing from src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("EISCONG_BERNOULLI_CACHE", None)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def run_module(*argv, timeout=120):
    """`python -m eiscong ARGV` in a fresh interpreter, importing from src."""
    return run_python("-m", "eiscong", *argv, timeout=timeout)


class TestHelpers:
    def test_parse_range(self):
        assert parse_range("5") == [5]
        assert parse_range("0..3") == [0, 1, 2, 3]
        assert parse_range("1,4,9") == [1, 4, 9]

    def test_smallest_kstar(self):
        assert smallest_kstar(5, 1) == 2
        assert smallest_kstar(5, 2) == 6
        assert smallest_kstar(7, 4) == 8
        assert smallest_kstar(13, 4) == 6

    def test_default_conjecture_kstar_is_the_least_multiple_above_m(self):
        # `scan conjecture` without --kstar takes k0m_of(0, p, m).
        assert k0m_of(0, 5, 6) == 8
        assert k0m_of(0, 7, 7) == 12
        assert k0m_of(0, 13, 15) == 24

    @pytest.mark.parametrize("fmt", ["jsonl", "json"])
    @pytest.mark.parametrize("step", [0.0, 0.001, 0.01, 0.3])
    def test_emit_reads_the_clock_once_per_few_records(self, monkeypatch, step, fmt):
        # A fake clock that each record advances by `step` seconds: a chunk
        # is written at the first clock read 0.1 s or more after the last
        # write, or at 256 records (as the next comes), the first chunk too,
        # whatever the format's head; the clock is read once per 16 records
        # and once per write. Each record is a run of one "@", which no frame
        # holds.
        class Clock:
            now, reads = 0.0, 0

            def monotonic(self):
                self.reads += 1
                return self.now

        class Out:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append((clock.now, text))

            def flush(self):
                pass

        def records(count):
            for _ in range(count):
                clock.now += step
                yield True, 1, "@\n" if fmt == "jsonl" else "@"

        clock, out = Clock(), Out()
        monkeypatch.setattr(cli, "time", clock)
        assert cli._emit(records(1000), fmt, out)
        times, texts = zip(*out.writes)
        sizes = [text.count("@") for text in texts]
        framed = "@\n" * 1000 if fmt == "jsonl" else "[\n" + ",\n".join("@" * 1000) + "\n]\n"
        assert "".join(texts) == framed
        assert sum(sizes) == 1000 and all(0 < size <= 256 for size in sizes[:-1])
        written = 0
        for before, after, size in zip((0.0,) + times, times[:-1], sizes):
            written += size
            full = size == 256
            assert full or (written % 16 == 0 and after - before >= 0.1), (before, after, size)
            assert full or after - before < 0.1 + 16 * step, (before, after, size)
        assert clock.reads <= 1 + 1000 // 16 + len(out.writes)

    @pytest.mark.parametrize("fmt", ["jsonl", "json"])
    def test_emit_writes_whole_runs_of_at_most_a_chunk(self, monkeypatch, rng, fmt):
        # Runs of 1 to 40 passing records, and failing records alone, each record
        # 0.01 s of a fake clock. No write splits a run or holds more than 256
        # records. The clock is read each time the count passes a multiple of
        # 16, less than 56 records apart, so a write is due at most 0.66 s after
        # the one before. The summary counts records, not runs.
        class Clock:
            now, reads = 0.0, 0

            def monotonic(self):
                self.reads += 1
                return self.now

        class Out:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append((clock.now, text))

            def flush(self):
                pass

        runs = [(False, 1) if rng.random() < 0.05 else (True, rng.randint(1, 40))
                for _ in range(300)]

        def emitted():
            for ok, count in runs:
                clock.now += 0.01 * count
                yield ok, count, ("@\n" * count if fmt == "jsonl" else ",\n".join(["@"] * count))

        clock, out = Clock(), Out()
        monkeypatch.setattr(cli, "time", clock)
        assert not cli._emit(emitted(), fmt, out, summary=True)
        total = sum(count for _, count in runs)
        passed = sum(count for ok, count in runs if ok)
        summary = cli._dict_text({"summary": {"pass": passed, "total": total}}, fmt)
        head, sep, tail = cli._FRAMES[fmt]
        records = ["@\n" if fmt == "jsonl" else "@"] * total
        times, texts = zip(*out.writes)
        assert "".join(texts) == head + sep.join(records + [summary]) + tail
        ends = {sum(count for _, count in runs[:i]) for i in range(len(runs) + 1)}
        written = 0
        for before, after, text in zip((0.0,) + times, times, texts[:-1]):
            written += text.count("@")
            assert text.count("@") <= 256 and written in ends
            assert after - before < 0.66, (before, after)
        crossings = sum(end // 16 > (end - count) // 16 for (_, count), end in
                        zip(runs, sorted(ends)[1:]))
        assert clock.reads <= 1 + crossings + len(out.writes)

    @pytest.mark.parametrize("fmt", sorted(cli._FRAMES))
    def test_emit_frames_no_records(self, fmt):
        # The head leads the first record; with none, it is still written,
        # before the summary when there is one.
        head, _, tail = cli._FRAMES[fmt]
        summary = cli._dict_text({"summary": {"pass": 0, "total": 0}}, fmt)
        for wanted, expected in ((False, head + tail), (True, head + summary + tail)):
            out = io.StringIO()
            assert cli._emit([], fmt, out, summary=wanted)
            assert out.getvalue() == expected, wanted


class TestBernoulliCommand:
    def test_single_value(self, capsys):
        status, out, _ = run_cli(capsys, "bernoulli", "12")
        assert status == 0
        assert "-691/2730" in out

    def test_zero(self, capsys):
        status, out, _ = run_cli(capsys, "bernoulli", "0")
        assert status == 0 and out.startswith("0 1/1")

    def test_valuation_columns(self, capsys):
        status, out, _ = run_cli(capsys, "bernoulli", "12", "--p", "5,7")
        assert status == 0
        assert "nu_5=-1" in out and "nu_7=-1" in out

    def test_negative_index_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "bernoulli", "-2")
        assert status == 2
        assert "non-negative" in err

    def test_range_json(self, capsys):
        status, out, _ = run_cli(capsys, "bernoulli", "0..4", "--format", "jsonl")
        assert status == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [rec["k"] for rec in lines] == [0, 1, 2, 3, 4]
        assert lines[2]["value"] == "1/6"

    def test_empty_range_is_usage_error(self, capsys):
        status, out, err = run_cli(capsys, "bernoulli", "5..3")
        assert (status, out) == (2, "")
        assert err == "error: the Bernoulli index range 5..3 is empty\n"

    @pytest.mark.parametrize("primes, bad", [("4", 4), ("5,9", 9), ("1", 1)])
    def test_p_must_be_a_prime(self, capsys, primes, bad):
        status, out, err = run_cli(capsys, "bernoulli", "12", "--p", primes)
        assert (status, out) == (2, "")
        assert err == f"error: p must be a prime, got {bad}\n"

    def test_empty_prime_range_is_usage_error(self, capsys):
        status, out, err = run_cli(capsys, "bernoulli", "12", "--p", "7..5")
        assert (status, out) == (2, "")
        assert err == "error: the prime range 7..5 is empty\n"

    def test_valuations_at_2_and_3(self, capsys):
        status, out, _ = run_cli(capsys, "bernoulli", "12", "--p", "2,3")
        assert status == 0
        assert out == "12 -691/2730  nu_2=-1  nu_3=-1\n"

    @pytest.mark.parametrize("fmt", ["human", "jsonl"])
    def test_records_stream_in_chunks(self, tmp_path, monkeypatch, fmt):
        # The first chunk is in the file before the last record reads its B_k.
        path, seen, read = tmp_path / "bernoulli.txt", [], cli.bernoulli

        def watched(k):
            if k == 299:
                seen.append(path.read_text())
            return read(k)

        monkeypatch.setattr(cli, "bernoulli", watched)
        assert main(["bernoulli", "0..299", "--format", fmt, "--out", str(path)]) == 0
        [early], final = seen, path.read_text()
        assert 0 < len(early.splitlines()) < len(final.splitlines()) == 300
        assert early.endswith("\n") and final.startswith(early)


# `series` argvs without their ring, the ring, and the series over the rationals through q^12.
SERIES_ORACLES = [
    ("e --k 10", 5, 3, lambda: e_series_exact(10, 12)),
    ("e --k 0", 7, 2, lambda: e_series_exact(0, 12)),
    ("efactor", 7, 3, lambda: e_factor_exact(7, 12)),
    ("efactor", 13, 2, lambda: e_factor_exact(13, 12)),
    ("monomial", 5, 2, lambda: monomial_exact(0, 0, 0)),
    ("monomial --a 1 --b 2 --c 1", 5, 2, lambda: monomial_exact(1, 2, 1)),
    ("monomial --a 3", 11, 3, lambda: monomial_exact(3, 0, 0)),
    ("monomial --b 1 --c 2", 7, 4, lambda: monomial_exact(0, 1, 2)),
]


class TestSeriesCommand:
    def test_g_series_json_schema(self, capsys):
        status, out, _ = run_cli(
            capsys, "series", "g", "--k", "4", "--p", "7", "--m", "1", "--prec", "2"
        )
        assert status == 0
        data = json.loads(out)
        assert set(data) == {"p", "m", "precision", "coefficients"}
        assert data["coefficients"] == ["4", "1", "2"]

    @pytest.mark.parametrize("argv, p, m, exact", SERIES_ORACLES,
                             ids=[f"{argv.replace(' ', '')}-p{p}-m{m}"
                                  for argv, p, m, _ in SERIES_ORACLES])
    def test_kind_matches_its_rational_series(self, capsys, argv, p, m, exact):
        status, out, err = run_cli(capsys, "series", *argv.split(), "--p", str(p), "--m", str(m),
                                   "--prec", "12")
        assert (status, err) == (0, "")
        assert json.loads(out) == reduced(exact(), ResidueRing(p, m)).to_json_dict()

    def test_delta(self, capsys):
        status, out, _ = run_cli(
            capsys, "series", "delta", "--p", "5", "--m", "2", "--prec", "2"
        )
        data = json.loads(out)
        assert data["coefficients"] == ["0", "1", "1"]

    @pytest.mark.parametrize("flags, message", [
        (["--p", "5", "--m", "0"], "m must be at least 1"),
        (["--p", "9"], "p must be a prime >= 5, got 9"),
        (["--p", "5", "--prec", "-1"], "precision must be non-negative"),
    ])
    def test_bad_ring_or_precision_is_usage_error(self, capsys, flags, message):
        status, out, err = run_cli(capsys, "series", "delta", *flags)
        assert (status, out, err) == (2, "", f"usage error: {message}\n")


class TestVerifyCommand:
    def test_thm1_grid_passes(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "thm1", "--p", "5", "--m", "2", "--kstar", "6",
            "--alpha", "0..10", "--prec", "30", "--jobs", "1",
        )
        assert status == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 11
        assert all(r["verdict"] == "Pass" for r in records)
        assert all(r["statement-id"] == "Thm1.1" for r in records)

    def test_identity_grid(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "identity", "--m", "2..5", "--alpha", "0..6", "--jobs", "1",
        )
        assert status == 0
        assert all(json.loads(line)["verdict"] == "Pass" for line in out.splitlines())

    def test_thm2_m_out_of_range_is_usage_error(self, capsys):
        status, _, err = run_cli(
            capsys, "verify", "thm2", "--p", "5", "--m", "5", "--alpha", "1", "--jobs", "1",
        )
        assert status == 2
        assert "m must satisfy" in err

    def test_sun97_computes_one_sum_per_point(self, capsys, monkeypatch):
        from eiscong import congruences

        orders = []
        original = congruences.forward_difference_sum

        def counted(f, n):
            orders.append(n)
            return original(f, n)

        monkeypatch.setattr(congruences, "forward_difference_sum", counted)
        status, out, _ = run_cli(
            capsys, "verify", "sun97", "--p", "5", "--n-max", "12", "--jobs", "1")
        assert status == 0 and len(out.splitlines()) == 12
        assert orders == list(range(1, 13))

    def test_telescoping_computes_one_recurrence_per_point(self, capsys, monkeypatch):
        # One certificate, the recurrence with every side, per box point, in
        # record order, for all the records of its r.
        from eiscong import congruences

        points = []
        original = congruences._certificate

        def counted(m, j, s, alpha):
            points.append((m, j, s, alpha))
            return original(m, j, s, alpha)

        monkeypatch.setattr(congruences, "_certificate", counted)
        status, out, _ = run_cli(
            capsys, "verify", "telescoping", "--m", "2..4", "--alpha", "0..5", "--jobs", "1")
        params = [json.loads(line)["params"] for line in out.splitlines()]
        box = list(dict.fromkeys((t["m"], t["j"], t["s"], t["alpha"]) for t in params))
        assert status == 0 and len(params) > len(box) == 60
        assert points == box

    @pytest.mark.parametrize("argv", [
        ["verify", "identity", "--m", "2..4", "--alpha", "0..5"],
        ["verify", "thm1", "--p", "5", "--m", "1..3", "--alpha", "0..6", "--prec", "20"],
        ["scan", "eq6.1", "--p", "5", "--m", "2", "--alpha", "0..4", "--prec", "20"],
        ["verify", "thm1", "--p", "5", "--m", "2", "--alpha", "0..5", "--prec", "10",
         "--budget-bernoulli", "10"],
        ["verify", "thm1", "--p", "4", "--m", "2"],
        ["verify", "telescoping", "--m", "2..5", "--alpha", "0..6"],
        ["verify", "sun97", "--p", "5", "--n-max", "6"],
    ], ids=["identity", "thm1", "eq6.1", "over-budget", "input-error", "telescoping", "sun97"])
    def test_jobs_1_matches_the_default_run(self, capsys, argv):
        # Benchmark argvs carry `--jobs 1`; they must run what a default run does,
        # down to the status and stderr of a budget stop or an input error.
        status, out, err = default = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--jobs", "1") == default
        assert (status, bool(out), bool(err)) in {(0, True, False), (1, True, False),
                                                  (2, False, True)}

    def test_human_and_csv_formats(self, capsys):
        for fmt in ("human", "csv", "json"):
            status, out, _ = run_cli(
                capsys, "verify", "eq3.1", "--p", "5", "--m", "2", "--alpha", "0..2",
                "--d", "2", "--jobs", "1", "--format", fmt,
            )
            assert status == 0 and out

    def test_eq14_and_eq16_and_kummer(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "eq1.4", "--p", "7", "--k", "4,8", "--alpha", "1..3",
            "--prec", "20", "--jobs", "1",
        )
        assert status == 0 and len(out.splitlines()) == 6
        status, out, _ = run_cli(
            capsys, "verify", "eq1.6", "--p", "5", "--m", "2", "--k0", "6",
            "--prec", "20", "--jobs", "1",
        )
        assert status == 0
        status, out, _ = run_cli(
            capsys, "verify", "kummer", "--p", "5", "--m", "2", "--k", "6",
            "--alpha", "1..2", "--jobs", "1",
        )
        assert status == 0

    def test_missing_required_flag_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "verify", "eq1.4", "--p", "7", "--jobs", "1")
        assert status == 2 and "--k" in err

    def test_budget_exceeded_record(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "thm1", "--p", "5", "--m", "2", "--kstar", "6",
            "--alpha", "2000", "--jobs", "1", "--budget-bernoulli", "100",
        )
        assert status == 1
        record = json.loads(out.splitlines()[0])
        assert record["verdict"] == "BudgetExceeded"


class TestScanCommand:
    def test_eq64_summary(self, capsys):
        status, out, _ = run_cli(
            capsys, "scan", "eq6.4", "--p", "5", "--m", "6", "--alpha", "6..16", "--jobs", "1",
        )
        assert status == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1] == {"summary": {"pass": 11, "total": 11}}

    def test_eq61(self, capsys):
        status, out, _ = run_cli(
            capsys, "scan", "eq6.1", "--p", "5", "--m", "5", "--kstar", "8",
            "--alpha", "5..7", "--prec", "30", "--jobs", "1",
        )
        assert status == 0

    def test_budget_guard(self, capsys):
        status, out, _ = run_cli(
            capsys, "scan", "eq6.4", "--p", "97", "--m", "97", "--alpha", "97..99",
            "--jobs", "1",
        )
        assert status == 1
        first = json.loads(out.splitlines()[0])
        assert first["verdict"] == "BudgetExceeded"

    @pytest.mark.parametrize("conjecture", ["eq6.4", "eq6.1"])
    def test_m_below_one_is_usage_error(self, capsys, conjecture):
        # Every difference has valuation >= 0 = m, so m = 0 would pass vacuously.
        status, out, err = run_cli(capsys, "scan", conjecture, "--p", "5", "--m", "0",
                                   "--jobs", "1")
        assert status == 2 and out == ""
        assert err == "error: m must be at least 1, got 0\n"

    @pytest.mark.parametrize("conjecture", ["eq6.4", "eq6.1"])
    def test_negative_alpha_is_error(self, capsys, conjecture):
        status, out, err = run_cli(capsys, "scan", conjecture, "--p", "5", "--m", "1",
                                   "--alpha", "-1", "--jobs", "1")
        assert (status, out, err) == (2, "", "error: alpha must be non-negative\n")


# The --format values each subcommand ignores, with a minimal valid argv.
REJECTED_FORMATS = {
    "bernoulli": (["bernoulli", "4"], ("csv",)),
    "series": (["series", "g", "--k", "4", "--p", "5"], ("csv", "human")),
    "filtration": (["filtration", "--k", "14", "--p", "5", "--m", "1"], ("csv", "human")),
    "reproduce": (["reproduce", "paper-17-6"], ("csv", "human")),
    "scan": (["scan", "eq6.4", "--p", "5", "--m", "1"], ("csv", "human")),
}


@pytest.mark.parametrize("argv,fmt", [
    (argv, fmt) for argv, formats in REJECTED_FORMATS.values() for fmt in formats
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_format_a_subcommand_ignores_is_rejected(capsys, argv, fmt):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", fmt, "--jobs", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice" in captured.err


# Only the grid subcommands, verify and scan, run tasks that a budget limits.
REJECTED_BUDGETS = [(name, flag) for name in ("bernoulli", "series", "filtration", "reproduce")
                    for flag in (("--budget-bernoulli", "10"), ("--budget-seconds", "1"))]


@pytest.mark.parametrize("name,flag", REJECTED_BUDGETS,
                         ids=[f"{name}{flag[0]}" for name, flag in REJECTED_BUDGETS])
def test_budget_flag_outside_the_grids_is_rejected(capsys, name, flag):
    with pytest.raises(SystemExit) as exc:
        main([*REJECTED_FORMATS[name][0], *flag, "--jobs", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


# An argv of each grid subcommand, and each out-of-range budget with its message.
BUDGETED_ARGVS = {"verify": ["verify", "identity", "--m", "2", "--alpha", "0..1"],
                  "scan": ["scan", "eq6.4", "--p", "5", "--m", "1"]}
BAD_BUDGETS = {
    "bernoulli-negative": ("--budget-bernoulli=-1",
                           "--budget-bernoulli must be non-negative, got -1"),
    **{f"seconds{value}": (f"--budget-seconds={value}",
                           f"--budget-seconds must be finite and non-negative, got {shown}")
       for value, shown in (("-1", "-1.0"), ("-inf", "-inf"), ("inf", "inf"), ("nan", "nan"))},
}


@pytest.mark.parametrize("flag,message", BAD_BUDGETS.values(), ids=list(BAD_BUDGETS))
@pytest.mark.parametrize("name", sorted(BUDGETED_ARGVS))
def test_out_of_range_budget_is_rejected_before_any_task_runs(capsys, monkeypatch, name, flag,
                                                              message):
    # A negative Bernoulli budget would print a BudgetExceeded record for a
    # statement that reads no Bernoulli number, and an infinite time limit is
    # not valid JSON in a budget warning.
    computed = []
    monkeypatch.setattr(cli, "prefetch_bernoulli", computed.append)
    status, out, err = run_cli(capsys, *BUDGETED_ARGVS[name], flag, "--jobs", "1")
    assert (status, out, err, computed) == (2, "", f"error: {message}\n", [])


@pytest.mark.parametrize("name", sorted(BUDGETED_ARGVS))
def test_zero_budgets_are_valid(capsys, name):
    status, out, err = run_cli(capsys, *BUDGETED_ARGVS[name], "--budget-bernoulli=0",
                               "--budget-seconds=0", "--jobs", "1")
    assert status in (0, 1) and err == "" and grid_records(out)


# Runs main on the argv after its first argument, the child's address-space cap
# in MiB, so an allocation past the cap raises MemoryError at once instead of
# filling memory.
UNDER_A_MEMORY_CAP = """
import resource, sys
cap = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from eiscong.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("cap, argv", [
    ("2048", "bernoulli 0..99999999999"),
    ("2048", "series g --k 14 --p 5 --m 2 --prec 100000000000"),
    # Its box, about 400000 points, is built before the first record: it
    # fills 256 MiB in about 2 s, 2 GiB in about 17 s.
    ("256", "verify identity --m 2..100000 --alpha 0..3"),
])
def test_running_out_of_memory_gives_an_error_line(cap, argv):
    # The index list, the smallest-factor sieve and the grid are each far
    # past the cap. Never run these argvs without it.
    pytest.importorskip("resource")
    proc = run_python("-c", UNDER_A_MEMORY_CAP, cap, *argv.split(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: out of memory; ask for a smaller range or precision\n")


# A minimal valid argv of every subcommand.
MINIMAL_ARGVS = {name: argv for name, (argv, _) in REJECTED_FORMATS.items()}
MINIMAL_ARGVS["verify"] = ["verify", "identity", "--m", "2", "--alpha", "3"]


@pytest.mark.parametrize("name", sorted(MINIMAL_ARGVS))
def test_jobs_1_is_a_no_op(name):
    # Grids run serially; the flag is kept, as 1 only, for argvs that pass it.
    parser = cli.build_parser()
    argv = MINIMAL_ARGVS[name]
    assert parser.parse_args([*argv, "--jobs", "1"]) == parser.parse_args(argv)


@pytest.mark.parametrize("jobs", ["2", "0"])
@pytest.mark.parametrize("name", sorted(MINIMAL_ARGVS))
def test_jobs_other_than_1_is_rejected(capsys, name, jobs):
    with pytest.raises(SystemExit) as exc:
        main([*MINIMAL_ARGVS[name], "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --jobs: invalid choice: {jobs}" in captured.err


def test_cli_imports_no_process_pool():
    # concurrent.futures pulls in multiprocessing, logging and socket: over
    # 20 ms of every cold run, for a pool the serial grids never start.
    proc = run_python("-c", "import sys, eiscong.cli; print(*sorted(sys.modules))")
    loaded = proc.stdout.split()
    assert proc.returncode == 0 and "eiscong.cli" in loaded, proc.stderr
    assert [name for name in loaded
            if name.split(".")[0] in ("concurrent", "multiprocessing")] == []


def test_cli_imports_no_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize: about 11 ms of every
    # cold run, only to declare value types.
    proc = run_python("-c", "import sys, eiscong.cli; print(*sorted(sys.modules))")
    loaded = proc.stdout.split()
    assert proc.returncode == 0 and "eiscong.cli" in loaded, proc.stderr
    assert [name for name in loaded if name in ("dataclasses", "inspect")] == []


# A run builds the arguments of its own subcommand only; what it prints for
# help, an unknown subcommand or a missing required flag must not change.
PARSER_ARGVS = [[], ["--help"], ["nosuch"], ["verify", "--help"], ["scan", "--help"],
                ["series", "delta"], ["filtration", "--k", "12"], ["verify", "thm9"],
                *([name, "--help"] for name in ("bernoulli", "series", "filtration",
                                                "reproduce"))]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_one_subcommand_parser_prints_what_the_full_parser_prints(capsys, argv):
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as run:
        main(argv)
    assert run.value.code == full.value.code
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("name", sorted(MINIMAL_ARGVS))
def test_one_subcommand_parser_parses_like_the_full_parser(capsys, name):
    narrow = cli.build_parser(name)
    argv = MINIMAL_ARGVS[name]
    assert narrow.parse_args(argv) == cli.build_parser().parse_args(argv)
    for other in sorted(MINIMAL_ARGVS.keys() - {name}):  # registered, with no arguments
        with pytest.raises(SystemExit):
            narrow.parse_args(MINIMAL_ARGVS[other])


# One tiny grid point per verify/scan name, aliases included, and the
# Bernoulli index the paper's weight formula gives for it (None: the
# statement needs no Bernoulli number).
STATEMENT_CASES = {
    # alpha(p-1) + k*
    "thm1": (["verify", "thm1", "--p", "5", "--alpha", "1", "--prec", "10"], 1 * 4 + 2),
    "thm1.1": (["verify", "thm1.1", "--p", "5", "--kstar", "6", "--alpha", "1",
                "--prec", "10"], 1 * 4 + 6),
    "prop3.1": (["verify", "prop3.1", "--p", "5", "--m", "2", "--kstar", "6", "--alpha", "1",
                 "--prec", "10"], 1 * 4 + 6),
    "eq6.1": (["scan", "eq6.1", "--p", "5", "--m", "1", "--alpha", "1", "--prec", "10"],
              1 * 4 + 4),
    "eq6.4": (["scan", "eq6.4", "--p", "7", "--m", "1", "--alpha", "1"], 1 * 6 + 6),
    # alpha(p-1)
    "thm2": (["verify", "thm2", "--p", "5", "--alpha", "2", "--prec", "10"], 2 * 4),
    "thm1.2": (["verify", "thm1.2", "--p", "7", "--m", "2", "--alpha", "2", "--prec", "10"],
               2 * 6),
    "prop4.2": (["verify", "prop4.2", "--p", "5", "--m", "2", "--alpha", "2", "--prec", "10"],
                2 * 4),
    "prop4.1": (["verify", "prop4.1", "--p", "5", "--m", "2", "--alpha", "2", "--d", "2"],
                2 * 4),
    # max(k, k')
    "eq1.4": (["verify", "eq1.4", "--p", "5", "--k", "2", "--alpha", "1", "--prec", "10"],
              2 + 1 * 4),
    "kummer": (["verify", "kummer", "--p", "5", "--m", "2", "--k", "6", "--alpha", "1"],
               6 + 1 * 5 * 4),
    # p^(m-1)(p-1) + k0
    "eq1.6": (["verify", "eq1.6", "--p", "5", "--m", "2", "--k0", "6", "--prec", "10"],
              5 * 4 + 6),
    # n(p-1)
    "sun97": (["verify", "sun97", "--p", "7", "--n-max", "1"], 1 * 6),
    "eq3.1": (["verify", "eq3.1", "--p", "5", "--m", "2", "--alpha", "2", "--d", "2"], None),
    "identity": (["verify", "identity", "--m", "2", "--alpha", "3"], None),
    "telescoping": (["verify", "telescoping", "--m", "2", "--alpha", "3"], None),
}


def grid_records(out):
    records = [json.loads(line) for line in out.splitlines()]
    return [r for r in records if "summary" not in r]


class TestStatementTable:
    def test_every_name_has_a_case(self):
        assert set(STATEMENT_CASES) == set(STATEMENTS) | set(STATEMENT_ALIASES)

    @pytest.mark.parametrize("name", sorted(STATEMENT_CASES))
    def test_tiny_point_passes(self, capsys, name):
        argv, _ = STATEMENT_CASES[name]
        status, out, err = run_cli(capsys, *argv, "--jobs", "1")
        assert status == 0, err
        records = grid_records(out)
        assert records and all(r["verdict"] == "Pass" for r in records)

    @pytest.mark.parametrize("name", sorted(STATEMENT_CASES))
    def test_bernoulli_demand(self, capsys, name):
        argv, index = STATEMENT_CASES[name]
        budget = "1" if index is not None else "0"
        status, out, _ = run_cli(capsys, *argv, "--jobs", "1", "--budget-bernoulli", budget)
        records = grid_records(out)
        if index is None:
            assert status == 0 and all(r["verdict"] == "Pass" for r in records)
            return
        assert status == 1 and len(records) == 1
        assert records[0]["verdict"] == "BudgetExceeded"
        assert records[0]["failure-detail"]["message"] == (
            f"Bernoulli index {index} exceeds budget 1")

    @pytest.mark.parametrize("argv", [
        ["scan", "eq6.4", "--p", "2", "--m", "1"],
        ["scan", "eq6.4", "--p", "3", "--m", "1"],
        ["verify", "prop4.1", "--p", "4", "--m", "1", "--alpha", "1"],
        ["verify", "kummer", "--p", "6", "--m", "1", "--k", "4", "--alpha", "1"],
        ["verify", "sun97", "--p", "4"],
        ["verify", "thm2", "--p", "5,9", "--alpha", "1"],
    ])
    def test_p_must_be_a_prime_at_least_5(self, capsys, argv):
        status, out, err = run_cli(capsys, *argv, "--jobs", "1")
        assert status == 2 and out == ""
        assert err.startswith("error: p must be a prime >= 5")

    def test_p_3_is_rejected_before_the_grid_is_built(self):
        # Every even k is divisible by p - 1 = 2, so a k* search would never end.
        proc = run_module("verify", "thm1", "--p", "3", "--jobs", "1", timeout=30)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: p must be a prime >= 5, got 3\n"

    def test_a_strong_pseudoprime_to_the_first_12_bases_is_no_prime(self, capsys):
        psi_12 = A014233[11]
        status, out, err = run_cli(capsys, "verify", "thm1", "--p", str(psi_12), "--m", "1",
                                   "--alpha", "0..1", "--prec", "5")
        assert (status, out, err) == (2, "", f"error: p must be a prime >= 5, got {psi_12}\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "thm1", "--m", "1", "--alpha", "0", "--prec", "5"],
        ["bernoulli", "12"],
        ["series", "g", "--k", "12", "--m", "1", "--prec", "5"],
    ], ids=lambda argv: argv[0])
    def test_a_p_past_the_proven_range_is_refused(self, capsys, argv):
        psi_13 = A014233[12]
        status, out, err = run_cli(capsys, *argv, "--p", str(psi_13))
        assert (status, out) == (2, "")
        assert err == f"usage error: primality is proven only below {psi_13}, got {psi_13}\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "thm1", "--p", "5", "--alpha", "10..5"],
        ["scan", "eq6.4", "--p", "5", "--m", "1", "--alpha", "3..1"],
        ["verify", "identity", "--m", "1"],
        ["verify", "sun97", "--p", "5", "--n-max", "0"],
    ])
    def test_empty_grid_is_usage_error(self, capsys, argv):
        status, out, err = run_cli(capsys, *argv, "--jobs", "1")
        assert status == 2 and out == ""
        assert err.startswith("error: ") and "grid is empty" in err

    @pytest.mark.parametrize("statement,records", [("identity", 1), ("telescoping", 2)])
    def test_a_box_below_m_1_is_refused_as_thm1_refuses_it(self, capsys, statement, records):
        # m = 0 used to be dropped from the box without a word; m = 1 is a
        # valid box with no (j, s) in it.
        thm1 = run_cli(capsys, "verify", "thm1", "--m", "0..1", "--alpha", "0", "--jobs", "1")
        box = run_cli(capsys, "verify", statement, "--m", "0..2", "--alpha", "0", "--jobs", "1")
        assert box == thm1 == (2, "", "error: m must be at least 1\n")
        status, out, err = run_cli(capsys, "verify", statement, "--m", "1..2", "--alpha", "0",
                                   "--jobs", "1")
        assert (status, err, len(out.splitlines())) == (0, "", records)

    @pytest.mark.parametrize("argv", [
        ["verify", "sun97", "--p", "5", "--n-max", "2"],
        ["verify", "eq1.4", "--p", "5", "--k", "6", "--alpha", "1"],
    ])
    def test_statements_without_m_ignore_it(self, capsys, argv):
        status, plain, _ = run_cli(capsys, *argv, "--jobs", "1")
        status_m, with_m, _ = run_cli(capsys, *argv, "--m", "1,2", "--jobs", "1")
        assert status == status_m == 0
        assert with_m == plain
        lines = plain.splitlines()
        assert len(lines) == len(set(lines))

    @pytest.mark.parametrize("argv,message", [
        (["verify", "kummer", "--p", "5", "--m", "2", "--k", "7", "--alpha", "1"],
         "k must be even, got k=7"),
        (["verify", "kummer", "--p", "5", "--m", "1", "--k", "6,1", "--alpha", "1"],
         "k must be even, got k=1"),
        (["verify", "thm1.1", "--p", "5", "--m", "2", "--kstar", "7", "--alpha", "1"],
         "k* must be even, got k*=7"),
        (["verify", "prop3.1", "--p", "5", "--m", "6", "--kstar", "9", "--alpha", "30",
          "--prec", "30"], "k* must be even, got k*=9"),
        (["verify", "eq1.4", "--p", "5", "--k", "7", "--alpha", "1"],
         "weights must be even, got k=7"),
        (["verify", "eq1.6", "--p", "5", "--m", "2", "--k0", "7"],
         "k0 must be even, got k0=7"),
    ], ids=["kummer", "kummer-k1", "thm1.1", "prop3.1", "eq1.4", "eq1.6"])
    def test_odd_weight_is_rejected_before_any_task_runs(self, capsys, argv, message):
        # A task that ran under a budget of 1 would print a BudgetExceeded record.
        for budget in ("4000", "1"):
            status, out, err = run_cli(capsys, *argv, "--jobs", "1", "--budget-bernoulli", budget)
            assert (status, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("statement", ["identity", "telescoping"])
    def test_negative_alpha_in_the_box_is_rejected_before_any_task_runs(
            self, capsys, monkeypatch, statement):
        from eiscong import congruences

        calls = []
        for kernel in ("_identity_sums", "_certificate", "_identity_row", "_identity_column"):
            original = getattr(congruences, kernel)
            monkeypatch.setattr(congruences, kernel, lambda *args, kernel=kernel,
                                original=original: calls.append(kernel) or original(*args))
        for alphas in ("1,-1", "-1,1"):
            status, out, err = run_cli(capsys, "verify", statement, "--m", "2..3",
                                       f"--alpha={alphas}", "--jobs", "1")
            assert (status, out, err) == (2, "", "error: alpha must be non-negative\n")
        assert calls == []
        # The same spies see the kernels of a valid run.
        assert run_cli(capsys, "verify", statement, "--m", "2..3", "--alpha", "1")[0] == 0
        assert calls

    @pytest.mark.parametrize("argv", [
        ["verify", "kummer", "--p", "5", "--m", "2", "--k", "6"],
        ["verify", "eq1.4", "--p", "5", "--k", "6"],
        ["verify", "kummer", "--p", "5", "--m", "2", "--k", "6", "--alpha", "0..2"],
    ], ids=["kummer", "eq1.4", "kummer-range"])
    def test_zero_shift_count_is_rejected(self, capsys, argv):
        # --alpha defaults to 0, which makes k' = k: a value compared with itself.
        status, out, err = run_cli(capsys, *argv, "--jobs", "1")
        assert (status, out, err) == (2, "", "error: k' must differ from k, got k = k' = 6\n")

    @pytest.mark.parametrize("argv,check,message", [
        (["verify", "eq3.1", "--p", "5", "--m", "1", "--alpha", "0..3", "--d", "2,5"],
         "check_dpower_congruence", "d = 5 must be coprime to p = 5"),
        (["verify", "eq1.4", "--p", "5", "--k", "6,-2", "--alpha", "1"],
         "check_eq14", "weights must be positive, got k=-2, k'=2"),
        (["verify", "kummer", "--p", "5", "--m", "1", "--k", "6,-2", "--alpha", "1"],
         "check_kummer", "weights must be positive, got k=-2, k'=2"),
        (["verify", "eq1.6", "--p", "5", "--m", "2,0", "--k0", "6"],
         "check_eq16", "m must be at least 1"),
        (["verify", "thm1", "--p", "5", "--alpha", "0..3", "--prec", "-1"],
         "check_thm_gk", "precision must be non-negative, got -1"),
    ], ids=["eq3.1", "eq1.4", "kummer", "eq1.6", "thm1-prec"])
    def test_bad_last_point_is_rejected_before_any_task_runs(
            self, capsys, monkeypatch, argv, check, message):
        # Records stream as their tasks finish, so an error that only the last
        # task raised would follow the records of the tasks before it.
        from eiscong import congruences

        calls = []
        original = getattr(congruences, check)
        monkeypatch.setattr(congruences, check, lambda *args: calls.append(args) or original(*args))
        status, out, err = run_cli(capsys, *argv, "--jobs", "1")
        assert (status, out, err) == (2, "", f"error: {message}\n")
        assert calls == []


# SHA-256 of stdout for small grids of the statements whose output
# perfbench/reference.json does not pin.
GOLDEN_STDOUT = [
    ("verify prop3.1 --p 5,7 --m 1..3 --alpha 0..6 --prec 20",
     "16177c2c6b61aaa2b17e9533dbd9bb2a118e899eb7fad6fb504cdaae27c2f26a"),
    ("verify prop4.2 --p 5,7 --m 1..3 --alpha 1..6 --prec 20",
     "11f60070c094a40b98b452cfc7adf6ec57f51ae7f68b7b7009bbabfe90298579"),
    ("verify prop4.1 --p 5,7 --m 1..3 --alpha 1..6 --d 2,3",
     "851693451492a69fa6c274681aef0cdf5446a8b216003c3e7f836da321335a7b"),
    ("verify eq3.1 --p 5,7 --m 1..3 --alpha 0..6 --d 2,3",
     "a9ac888f5ce83ae7df7575238e95b6632389ceb9fb7b850d70e585618c5d4f7a"),
    ("verify kummer --p 5 --m 1..3 --k 2,6,10 --alpha 1..2",
     "4b276d9a976be8febdf01bba49f24908745305208a06daa0d804f00fd92dbf19"),
    ("scan eq6.1 --p 5,7 --m 1..3 --prec 20",
     "0475f2a7614b57def6fdc2c8f0b1d928433033701dbd7bfcc0222f376aa03cfe"),
    ("verify identity --m 2..6 --alpha 0..8",
     "c8aa65d253da45f14b2495661c2d4fb15de95df5830210181db234ab12b7a7e8"),
    ("verify identity --m 2..6 --alpha 0..8 --format json",
     "ae6c6bf72843fc86461973b9f010e09343e2374d6cb7ebf4e1385e5b4f33d90b"),
    ("verify identity --m 2..6 --alpha 0..8 --format csv",
     "60e7fc2b2679e785ed81446184b9e7827bb167c2b88b69a5fb53aa4357cc3e71"),
    ("verify identity --m 2..6 --alpha 0..8 --format human",
     "17a33ecec36fb60783352f44de11fa4ff75ae9a7531ed7f945e03104038c28f9"),
    ("verify telescoping --m 2..5 --alpha 0..6",
     "c1d4b4f433de9c8981295471be682b6df292c1da2a939640a0e18757ca72ca77"),
    ("verify telescoping --m 2..5 --alpha 0..6 --format json",
     "8b9a0b4cd506075fb81c2cd8d9f931872eee5d1e2c032873f2db395774df2a3b"),
    ("verify telescoping --m 2..5 --alpha 0..6 --format csv",
     "c9a6f8f066fe2cb41a029b3e34573b74f763465f54149d1693c7a5dea4294ce1"),
    ("verify telescoping --m 2..5 --alpha 0..6 --format human",
     "185bf20b11093fdeb07ac0ef9b5b5929344f0afb83a4651257ae23994df28291"),
]


def _golden_id(argv: str) -> str:
    """The statement name, then the format when it is not the default."""
    name, fmt = argv.split()[1], argv.partition(" --format ")[2]
    return f"{name}-{fmt}" if fmt else name


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT,
                         ids=[_golden_id(argv) for argv, _ in GOLDEN_STDOUT])
def test_golden_stdout(capsys, argv, digest):
    status, out, err = run_cli(capsys, *argv.split(), "--jobs", "1")
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestFiltrationCommand:
    def test_small_bound_with_probe(self, capsys):
        status, out, _ = run_cli(
            capsys, "filtration", "--form", "G", "--k", "14", "--p", "5", "--m", "3",
            "--probe", "10",
        )
        assert status == 0
        data = json.loads(out)
        assert data["bound-found"] <= 14
        assert data["probe"]["weight"] == 10

    @pytest.mark.parametrize("flags,certification,count,probe", [
        ([], "sturm-certified", 4, None),
        (["--prec", "12", "--probe", "18"], "coefficient-evidence(13)", 13,
         {"result": "Solvable", "weight": 18}),
    ], ids=["sturm", "evidence"])
    def test_e_form_row(self, capsys, flags, certification, count, probe):
        # The form names the input id, and --prec makes the row evidence
        # through q^prec, for the bound and for the probe alike.
        status, out, _ = run_cli(capsys, "filtration", "--form", "E", "--k", "24", "--p", "7",
                                 "--m", "3", *flags)
        data = json.loads(out)
        assert status == 0 and data.pop("probe", None) == probe
        assert data == {
            "bound-found": 12, "certification": certification, "certified-coefficients": count,
            "input-id": "E_24", "m": 3, "p": 7, "sharpness": "NoSolution at weight 6",
            "weight": 24, "witness": {"coefficients": ["1", "281"],
                                      "monomials": [[3, 0, 0], [0, 0, 1]], "n": 2}}


class TestReproduceCommand:
    def test_unknown_example_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "paper-3-1"])
        capsys.readouterr()

    def test_paper_17_6(self, capsys):
        status, out, _ = run_cli(capsys, "reproduce", "paper-17-6")
        assert status == 0
        data = json.loads(out)
        assert data["match"] is True
        assert data["bound-found"] == 80
        assert data["sharpness-probe"]["result"] == "NoSolution"

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        # Every compared value off: the bound, the witness exponent, the last
        # monomial, one coefficient and the certified count, and a sharpness
        # weight at the bound, where the probe is solvable.
        bundled = REPRODUCTION_EXAMPLES["paper-17-6"]
        monomials = [*bundled["monomials"][:-1], (2, 1, 5)]
        coefficients = list(bundled["coefficients"])
        coefficients[2] += 1
        monkeypatch.setitem(REPRODUCTION_EXAMPLES, "paper-17-6", {
            **bundled, "bound": 81, "witness-exponent": 77, "monomials": monomials,
            "coefficients": coefficients, "certified-coefficients": 111, "sharpness-weight": 80})
        status, out, _ = run_cli(capsys, "reproduce", "paper-17-6")
        data = json.loads(out)
        assert status == 1 and data["match"] is False and data["bound-found"] == 80
        assert data["sharpness-probe"] == {"result": "Solvable", "weight": 80}
        assert data["mismatches"] == [
            "bound 80 != 81", "witness exponent 76 != 77",
            f"monomials {tuple(bundled['monomials'])} != {monomials}",
            "coefficient[2] 1427399 != 1427400", "certified 110 != 111",
            "sharpness probe at 80 was solvable"]


class TestConsoleScript:
    def test_installed_entry_point(self):
        import shutil
        import subprocess

        exe = shutil.which("eiscong")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "reproduce", "paper-17-6"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["match"] is True

    def test_declared_entry_point_without_install(self):
        # The callable pyproject.toml names for the `eiscong` script, run as
        # the wrapper an install generates runs it: sys.exit(main()).
        tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
        with open(SRC.parent / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["eiscong"]
        module, _, name = target.partition(":")
        assert callable(getattr(importlib.import_module(module), name))
        wrapper = f"import sys\nfrom {module} import {name}\nsys.exit({name}())\n"
        proc = run_python("-c", wrapper, "reproduce", "paper-17-6")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["match"] is True

    def test_module_entry_point(self):
        proc = run_module("reproduce", "paper-17-6")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["match"] is True


class TestOutAndCache:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.jsonl"
        status = main(["verify", "sun97", "--p", "5", "--n-max", "3",
                       "--jobs", "1", "--out", str(target)])
        capsys.readouterr()
        assert status == 0
        assert len(target.read_text().splitlines()) == 3

    def test_cache_round_trip(self, tmp_path):
        path = tmp_path / "bern.cache"
        # A decimal line, as older caches hold, reads; lines are written in hex.
        line = format_cache_line(12, parse_cache_line("12 -691/2730")[1])
        assert line == "12 -0x2b3/0xaaa\n"
        assert parse_cache_line(line) == (12, Fraction(-691, 2730))
        path.write_text(line)
        assert load_bernoulli_cache(path) == 1
        appended = save_bernoulli_cache(path)
        text = path.read_text()
        # parse -> serialize identity on the original record
        assert text.startswith("12 -0x2b3/0xaaa\n")
        indices = [parse_cache_line(l)[0] for l in text.splitlines()]
        assert len(indices) == len(set(indices))
        assert appended == len(indices) - 1
        path.write_text("12 -691/2730\n")
        assert load_bernoulli_cache(path) == 1

    def test_a_decimal_cache_loads_and_grows_in_hex(self, tmp_path, monkeypatch, cold_bernoulli):
        # Decimal lines as older versions wrote them (B_2200's numerator is
        # past CPython's int/str digit limit), then hex lines.
        values = {k: bernoulli(k) for k in (4, 12, 2200, 14, 16)}
        old = "".join(f"{k} {int_str(values[k].numerator)}/{int_str(values[k].denominator)}\n"
                      for k in (4, 12, 2200))
        old += format_cache_line(14, values[14]) + format_cache_line(16, values[16])
        path = tmp_path / "bern.cache"
        path.write_text(old)
        seed = {k: exact._BERNOULLI_MEMO[k] for k in (0, 1, 2)}
        monkeypatch.setattr(exact, "_BERNOULLI_MEMO", dict(seed))
        assert load_bernoulli_cache(path) == 5
        assert exact._BERNOULLI_MEMO == {**seed, **values}
        values[18] = bernoulli(18)
        assert save_bernoulli_cache(path) == 4
        text = path.read_text()
        assert text.startswith(old)
        for line in text[len(old):].splitlines():  # 0, 1, 2 and 18
            assert re.fullmatch(r"\d+ -?0x[0-9a-f]+/0x[0-9a-f]+", line), line
        monkeypatch.setattr(exact, "_BERNOULLI_MEMO", dict(seed))
        assert load_bernoulli_cache(path) == 9
        assert exact._BERNOULLI_MEMO == {**seed, **values}

    def test_m1_thm1_saves_no_unread_index(self, tmp_path, capsys, cold_bernoulli):
        # At m = 1 no power of E_{p-1} is built, so B_{p-1} = B_6 is not read.
        path = tmp_path / "bern.cache"
        status, _, _ = run_cli(capsys, "verify", "thm1", "--p", "7", "--m", "1",
                               "--alpha", "1..3", "--prec", "10", "--cache", str(path))
        assert status == 0
        indices = [int(line.split()[0]) for line in path.read_text().splitlines()]
        assert indices == [0, 1, 2, 8, 14, 20]

    def test_warm_cache_is_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "bern.cache"
        argv = ["verify", "sun97", "--p", "5", "--n-max", "5", "--jobs", "1",
                "--cache", str(path)]
        status1, out1, _ = (main(argv), *capsys.readouterr())
        status2, out2, _ = (main(argv), *capsys.readouterr())
        assert status1 == status2 == 0
        assert out1 == out2
        assert path.exists()

    def test_cache_path_from_environment(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "env.cache"
        monkeypatch.setenv("EISCONG_BERNOULLI_CACHE", str(path))
        status = main(["bernoulli", "40..44"])
        capsys.readouterr()
        assert status == 0
        assert path.exists()
        indices = [int(line.split()[0]) for line in path.read_text().splitlines()]
        assert 44 in indices

    def test_soft_time_budget_annotates(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "sun97", "--p", "5", "--n-max", "2", "--jobs", "1",
            "--budget-seconds", "0.0",
        )
        assert status == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert all("budget-warning" in r for r in records)

    def test_hex_check_takes_exactly_the_hex_values(self):
        # `_parse_int` reads a value as hex exactly when the whole of it
        # matches -?0x[0-9a-f]+, as the regex it replaced did, and gives any
        # other value to the decimal parser, or raises: the same outcome as
        # the regex oracle for every string over these characters, one a
        # non-ASCII digit, up to length 4, and up to length 6 for those that
        # open with "0x" or "-0x" (any other opening fails the check's first
        # test and the regex at once, so both hand it to the decimal parser).
        alphabet = "0x-_XaAbf9g+\u0663"
        texts = ["".join(chars) for length in range(5) for chars in product(alphabet, repeat=length)]
        texts += [prefix + "".join(chars) for prefix in ("0x", "-0x")
                  for length in range(5 - len(prefix), 7 - len(prefix))
                  for chars in product(alphabet, repeat=length)]
        assert len(texts) == 64065
        hex_values = 0
        for text in texts:
            expected = outcome(cache_value_by_regex, text)
            assert outcome(cache._parse_int, text) == expected, text
            hex_values += bool(HEX_VALUE.fullmatch(text))
        # Five of the characters are hex digits: 0x and 1 to 4 of them, -0x and 1 to 3.
        assert hex_values == sum(5**n for n in range(1, 5)) + sum(5**n for n in range(1, 4))

    @pytest.mark.parametrize("line, reason", [
        ("bad line", "expected a line"),
        ("12 -691/0", "expected a line"),
        ("12 -691/2730/1", "expected a line"),
        ("-2 1/6", "non-negative"),
        ("12 5/7", "denominator 2730"),
        ("12 691/2730", "negative"),
        ("14 -7/6", "positive"),
        ("1 1/2", "B_1 is -1/2"),
        ("3 1/5", "B_3 is 0"),
        ("12 -0x/0xaaa", "expected a line"),
        ("12 -0X2b3/0xaaa", "expected a line"),
        ("12 -0x2g3/0xaaa", "expected a line"),
        ("12 0x-2b3/0xaaa", "expected a line"),
        ("12 -0x2_b3/0xaaa", "expected a line"),
        # -697/2730 has B_12's denominator and sign; B_12 + 1/2 + 1/3 + 1/5 +
        # 1/7 + 1/13 is an integer only for a numerator of -691 mod 2730.
        ("12 -0x2b9/0xaaa", "B_12 has a numerator of 2039 mod 2730"),
        ("12 -697/2730", "B_12 has a numerator of 2039 mod 2730"),
        ("32 -0x1/0x1fe", "B_32 has a numerator of more than 29 bits"),
    ])
    def test_bad_cache_line_is_clean_error(self, tmp_path, capsys, line, reason):
        path = tmp_path / "bad.cache"
        path.write_text("2 1/6\n" + line + "\n")
        status, out, err = run_cli(capsys, "verify", "eq1.4", "--p", "11", "--k", "2",
                                   "--alpha", "1", "--cache", str(path))
        assert status == 2
        assert out == ""
        assert err.startswith(f"error: {path}:2: ") and reason in err
        assert "Traceback" not in err
        assert path.read_text() == "2 1/6\n" + line + "\n"

    def test_a_huge_index_is_refused_before_the_sieve(self, tmp_path):
        # B_k's numerator has over 3.4e13 bits at k = 10^12; the line is refused
        # by its length, before a sieve sized by the index is asked for.
        pytest.importorskip("resource")
        path = tmp_path / "huge.cache"
        path.write_text("1000000000000 0x1/0x6\n")
        proc = run_python("-c", UNDER_A_MEMORY_CAP, "2048", "bernoulli", "4",
                          "--cache", str(path), timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {path}:1: B_1000000000000 has a numerator"
                               " of more than 34905700000001 bits\n")

    def test_running_out_of_memory_loading_a_cache_is_clean_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr(cli, "load_bernoulli_cache", exhausted)
        path = tmp_path / "bern.cache"
        status, out, err = run_cli(capsys, "bernoulli", "4", "--cache", str(path))
        assert (status, out, err) == (2, "", f"error: {path}: out of memory loading the cache\n")

    def test_a_written_cache_loads_every_true_value(self, tmp_path, capsys, monkeypatch,
                                                    cold_bernoulli):
        path = tmp_path / "bern.cache"
        seeds = dict(exact._BERNOULLI_MEMO)
        status, _, _ = run_cli(capsys, "bernoulli", "0..600", "--cache", str(path))
        assert status == 0
        monkeypatch.setattr(exact, "_BERNOULLI_MEMO", seeds)
        # B_0, B_1 and the 300 even indices; the odd zeros are not memoized.
        assert load_bernoulli_cache(path) == 302
        oracle = bernoulli_by_tangent(range(2, 601, 2))
        assert {k: exact._BERNOULLI_MEMO[k] for k in oracle} == oracle

    def test_unreadable_cache_is_clean_error(self, tmp_path, capsys):
        undecodable = tmp_path / "binary.cache"
        undecodable.write_bytes(b"12 \xff\xfe/2730\n")
        for path in (tmp_path, undecodable):
            status, out, err = run_cli(capsys, "bernoulli", "4", "--cache", str(path))
            assert status == 2 and out == ""
            assert err.startswith("error: ") and "Traceback" not in err

    def test_rejected_cache_seeds_nothing(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("12 5/7\n")
        with pytest.raises(CacheFormatError):
            load_bernoulli_cache(path)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_save_appends_in_one_write(self, tmp_path, monkeypatch):
        writes = []
        real_open = Path.open

        class Spy:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                writes.append(text)
                return self.handle.write(text)

        def spy_open(self, mode="r", *args, **kwargs):
            handle = real_open(self, mode, *args, **kwargs)
            return Spy(handle) if "a" in mode else handle

        for k in (20, 22, 24):
            bernoulli(k)
        path = tmp_path / "bern.cache"
        monkeypatch.setattr(Path, "open", spy_open)
        appended = save_bernoulli_cache(path)
        monkeypatch.undo()
        assert appended >= 3
        assert len(writes) == 1
        assert path.read_bytes() == writes[0]
        assert len(writes[0].splitlines()) == appended

    @pytest.mark.parametrize("target", ["missing-dir/out.txt", "."], ids=["missing", "directory"])
    def test_unopenable_out_is_clean_error(self, tmp_path, capsys, monkeypatch, target):
        computed = []
        monkeypatch.setattr(cli, "prefetch_bernoulli", computed.append)
        status, out, err = run_cli(capsys, "bernoulli", "12", "--out", str(tmp_path / target))
        assert (status, out, computed) == (2, "", [])
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unappendable_cache_is_clean_error(self, tmp_path, capsys):
        blocker = tmp_path / "some_file.txt"
        blocker.write_text("")
        status, out, err = run_cli(capsys, "bernoulli", "12", "--cache", str(blocker / "x"))
        assert status == 2 and out == "12 -691/2730\n"
        assert err.startswith("error: ") and "Traceback" not in err
        assert blocker.read_text() == ""

    def test_large_bernoulli_prints_and_round_trips(self, tmp_path):
        # The numerator of B_2200 has more digits than CPython's default
        # int/str conversion limit allows. The second process reads B_2200
        # from the cache alone.
        path = tmp_path / "bern.cache"
        runs = [run_module("bernoulli", "2200", "--cache", str(path)) for _ in range(2)]
        assert [proc.returncode for proc in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        index, value = runs[0].stdout.split()
        assert index == "2200" and len(value.split("/")[0]) > 4300
        assert value.replace("-", "", 1).replace("/", "", 1).isdecimal()
        numerator, denominator = map(parse_int, value.split("/"))
        line = next(l for l in path.read_text().splitlines() if l.startswith("2200 "))
        assert line == f"2200 {numerator:#x}/{denominator:#x}"
        assert parse_cache_line(line)[1] == Fraction(numerator, denominator)
        # The decimal stdout line is the line an older version cached; it reads back.
        assert parse_cache_line(runs[0].stdout) == (2200, Fraction(numerator, denominator))


# Counts every series product made after it in `products`.
COUNTING = """
from eiscong.series import QSeries
products, multiply = [], QSeries.__mul__

def counted(a, b):
    products.append(1)
    return multiply(a, b)

QSeries.__mul__ = counted
"""

# Runs `main(sys.argv[1:])` with stdout discarded and prints the exit status
# and the number of series products made.
COUNT_PRODUCTS = COUNTING + """
import contextlib, io, sys
from eiscong.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(status, len(products))
"""


@pytest.mark.parametrize("argv,most", [
    ("verify thm1 --p 5,7,11,13 --m 1..4 --alpha 0..30 --prec 60", 92),
    ("verify thm2 --p 5,7,11,13 --m 1..4 --alpha 1..30 --prec 60", 92),
    ("scan eq6.1 --p 7 --m 3 --alpha 0..40", 7),
    ("reproduce paper-7-8", 41),
    ("reproduce paper-17-6", 46),
    ("filtration --form G --k 2402 --p 13 --m 6", 44),
], ids=["thm1-grid", "thm2-grid", "eq6.1-scan", "paper-7-8", "paper-17-6", "filtration-2402"])
def test_series_products_per_run(argv, most):
    # Every power of E_4, E_6 and Delta comes from one halving table that a
    # filtration's columns share, and a monomial is at most two products of
    # its entries. Every E_{p-1}^n, the witness's round trip included, is one
    # combination of 1, D, ..., D^(m-1) for D = E_{p-1} - 1, m - 2 products
    # per ring and precision. A filtration builds each column once, in one
    # layer pass, and substitutes once at the bound. A power stepped by one
    # product per term, a monomial raised from scratch, a basis per candidate
    # weight or E_{p-1}^n by squarings costs more. A theorem-grid record
    # makes no product; a block makes m(m-1), plus m-2 for D's powers.
    proc = run_python("-c", COUNT_PRODUCTS, *argv.split(), "--jobs", "1")
    status, products = map(int, proc.stdout.split())
    assert status == 0 and products <= most, (proc.stdout, proc.stderr)


# Runs `verify_refined_bounds` cold over p in {5, 7}, m in {2, 3, 4}, every
# even k0 in 2..p-3 and alpha = 0..p, the rows with k >= 4, and prints the
# number of rows, of Skipped rows and of series products made.
COUNT_REFINED_PRODUCTS = COUNTING + """
from eiscong.filtration import verify_refined_bounds
rows = [verify_refined_bounds(p, m, k0 + alpha * (p - 1))
        for p in (5, 7) for m in (2, 3, 4) for k0 in range(2, p - 2, 2)
        for alpha in range(p + 1) if k0 + alpha * (p - 1) >= 4]
print(len(rows), sum(row.verdict == "Skipped" for row in rows), len(products))
"""


def test_series_products_per_refined_bound_sweep():
    # Each row builds G_k at its own Sturm index and finds its bound, as a
    # filtration run does; its columns come from the one generator table.
    proc = run_python("-c", COUNT_REFINED_PRODUCTS)
    rows, skipped, products = map(int, proc.stdout.split())
    assert (rows, skipped) == (60, 12) and products <= 289, (proc.stdout, proc.stderr)


# Runs `main(sys.argv[2:])` with the Bernoulli pass ("pass") or with
# each task computing its own numbers ("per-task"), then prints the memoized
# indices to stderr.
MEMO_AFTER_RUN = """
import json, sys
from eiscong import cli, exact
if sys.argv[1] == "per-task":
    cli.prefetch_bernoulli = lambda indices: None
status = cli.main(sys.argv[2:])
print(json.dumps(exact.bernoulli_cached_indices()), file=sys.stderr)
sys.exit(status)
"""


@pytest.fixture
def prefetched(monkeypatch):
    """The indices handed to the Bernoulli pass, which still runs."""
    requested = []
    real = cli.prefetch_bernoulli

    def spy(indices):
        indices = list(indices)
        requested.extend(indices)
        real(indices)

    monkeypatch.setattr(cli, "prefetch_bernoulli", spy)
    return requested


class TestPrefetch:
    @pytest.mark.parametrize("argv", [
        "scan eq6.4 --p 7 --m 4 --kstar 6 --alpha 0..120",
        "verify thm1 --p 5,7,11,13 --m 1..4 --alpha 0..30 --prec 30",
        "verify kummer --p 7,11 --m 1..2 --k 4,8 --alpha 1..4",
    ], ids=["eq6.4", "thm1", "kummer"])
    def test_pass_computes_what_the_tasks_would(self, tmp_path, argv):
        runs = {}
        for mode in ("per-task", "pass"):
            cache = tmp_path / f"{mode}.cache"
            proc = run_python("-c", MEMO_AFTER_RUN, mode, *argv.split(), "--jobs", "1",
                              "--cache", str(cache))
            *_, memo = proc.stderr.splitlines()
            runs[mode] = (proc.returncode, proc.stdout, json.loads(memo), cache.read_bytes())
        assert runs["pass"] == runs["per-task"]
        status, out, memo, _ = runs["pass"]
        assert status == 0 and out and len(memo) > 10

    @pytest.mark.parametrize("argv", [
        "verify kummer --p 7 --m 1..2 --k 4,8,10 --alpha 1..3",
        "verify thm1 --p 5,7 --m 2..3 --alpha 5..9 --prec 20",
        "scan eq6.1 --p 5 --m 2 --alpha 4..9 --prec 15",
    ], ids=["kummer", "thm1", "eq6.1"])
    def test_cache_bytes_do_not_depend_on_jobs(self, tmp_path, argv):
        # Each task also reads Bernoulli numbers below its largest index (B_k
        # of kummer, each H-weighted term's and B_{p-1} of an inversion); the
        # cache a `--jobs 1` run writes holds them all, as a default run's does.
        runs = {}
        for name, jobs in (("default", []), ("jobs-1", ["--jobs", "1"])):
            cache = tmp_path / f"{name}.cache"
            proc = run_module(*argv.split(), *jobs, "--cache", str(cache))
            runs[name] = (proc.returncode, proc.stdout, proc.stderr, cache.read_bytes())
        assert runs["jobs-1"] == runs["default"]
        assert runs["default"][0] == 0 and len(runs["default"][3].splitlines()) > 10

    @pytest.mark.parametrize("argv", [
        ["scan", "eq6.4", "--p", "7", "--m", "4", "--kstar", "6", "--alpha", "0..60"],
        ["verify", "thm2", "--p", "5,7", "--m", "1..3", "--alpha", "1..12", "--prec", "30"],
    ], ids=["eq6.4", "thm2"])
    def test_cold_run_matches_an_oracle_memo(self, capsys, monkeypatch, cold_bernoulli, argv):
        # From a cold memo the pass computes every number the grid reads; a run
        # on the tangent-number oracle's values computes none and prints the same.
        cold = run_cli(capsys, *argv)
        indices = [k for k in bernoulli_cached_indices() if k >= 2 and k % 2 == 0]
        oracle = bernoulli_by_tangent(indices)
        assert cold[0] == 0 and cold[1] and len(indices) > 10
        assert {k: exact._BERNOULLI_MEMO[k] for k in indices} == oracle
        monkeypatch.setattr(exact, "_BERNOULLI_MEMO", {k: exact._BERNOULLI_MEMO[k] for k in (0, 1)})
        congruences._k_over_bernoulli.cache_clear()
        for k, value in oracle.items():
            exact.seed_bernoulli(k, value)
        monkeypatch.setattr(exact, "_bernoulli_pass",
                            lambda *args: pytest.fail("computed a memoized number"))
        assert run_cli(capsys, *argv) == cold

    def test_over_budget_task_is_not_prefetched(self, capsys, cold_bernoulli, prefetched):
        status, out, _ = run_cli(capsys, "scan", "eq6.4", "--p", "7", "--m", "4", "--kstar", "6",
                                 "--alpha", "0..20", "--budget-bernoulli", "60", "--jobs", "1")
        verdicts = [r["verdict"] for r in grid_records(out)]
        assert status == 1 and verdicts == ["Pass"] * 10 + ["BudgetExceeded"] * 11
        assert prefetched == list(range(6, 61, 6))
        assert bernoulli_cached_indices() == [0, 1, 2] + prefetched

    def test_bernoulli_range_is_prefetched(self, capsys, cold_bernoulli, prefetched):
        status, out, _ = run_cli(capsys, "bernoulli", "10..14", "--p", "7")
        assert status == 0 and prefetched == [10, 11, 12, 13, 14]
        assert out.splitlines()[2] == "12 -691/2730  nu_7=-1"


# ---------------------------------------------------------------------------
# Record serialization and streaming
# ---------------------------------------------------------------------------

def emit_oracle(records: list[dict], fmt: str) -> str:
    """Every record of a grid in `fmt`, from whole-list dumps: the slow path
    that per-record templates and streaming replace."""
    if fmt == "jsonl":
        return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    if fmt == "json":
        return json.dumps(records, indent=2, sort_keys=True) + "\n"
    lines = ["statement-id,verdict,certification,params,failure-detail\n"] if fmt == "csv" else []
    for record in records:
        params = ";".join(f"{k}={v}" for k, v in sorted(record["params"].items()))
        detail = record["failure-detail"]
        if fmt == "csv":
            quoted = json.dumps(detail).replace('"', "'") if detail else ""
            lines.append(f'{record["statement-id"]},{record["verdict"]},'
                         f'{record["certification"]},"{params}","{quoted}"\n')
        else:
            line = f"{record['statement-id']:>10}  {params:<48} {record['verdict']}"
            lines.append(line + (f"  {detail}" if detail else "") + "\n")
    return "".join(lines)


def text_lines(text: str) -> list[str]:
    """The text's lines with their ends: two texts are equal exactly when these are,
    and where pytest diffs two unequal long strings whole, which takes seconds, it
    reports two unequal lists by their first differing line."""
    return text.splitlines(keepends=True)


def box_oracle_reports(name: str, args) -> list[CongruenceReport]:
    """A box statement's reports, one point at a time, from the uncached oracles."""
    reports = []
    for m in parse_range(args.m):
        for j, s, alpha in ((j, s, alpha) for j in range(1, m) for s in range(m - j)
                            for alpha in parse_range(args.alpha)):
            point = {"m": m, "j": j, "s": s, "alpha": alpha}
            if name == "identity":
                value = identity_sum_by_triple_products(m, j, s, alpha)
                reports.append(CongruenceReport("Prop3.2", point, "Fail" if value else "Pass",
                                                {"sum": str(value)} if value else None))
                continue
            recurrence = ((alpha - m) * identity_sum_by_triple_products(m, j, s, alpha)
                          + (m - s) * identity_sum_by_triple_products(m + 1, j, s, alpha)) == 0
            for r in range(s, m):
                ok = recurrence and telescoping_by_fractions(m, j, s, alpha, r)
                reports.append(CongruenceReport("Eq3.3", dict(point, r=r), "Pass" if ok else "Fail",
                                                None if ok else {"identity": "telescoping"}))
    return reports


# Each inversion statement's id, generator and E_{p-1} powers.
INVERSION_ORACLES = {
    "thm1.1": ("Thm1.1", "g_series", True), "thm1.2": ("Thm1.2", "e_series", True),
    "prop3.1": ("Prop3.1", "g_series", False), "prop4.2": ("Prop4.2", "e_series", False),
    "eq6.1": ("ConjEq6.1", "e_series", True),
}


def inversion_oracle_report(name: str, point: dict) -> CongruenceReport:
    """An inversion statement's report at a grid point, from the per-point oracle, with
    the generator `congruences` holds now."""
    statement_id, form, powers = INVERSION_ORACLES[name]
    params = {key: point[key] for key in ("p", "m", "kstar", "alpha") if key in point}
    params["N"] = point["prec"]
    return inversion_report(statement_id, params, getattr(congruences, form),
                            point.get("kstar", 0), powers)


def oracle_records(argv: list[str]) -> list[dict]:
    """The grid's records from each point statement's runner, the per-point oracles of
    the statements that run in blocks, and `to_json_dict`."""
    args = cli.build_parser().parse_args(argv)
    name = STATEMENT_ALIASES.get(argv[1], argv[1])
    if name in ("identity", "telescoping"):
        return [report.to_json_dict() for report in box_oracle_reports(name, args)]
    records = []
    for point in cli._build_tasks(name, args):
        charge = max(STATEMENTS[name].reads(point), default=0)
        if charge > args.budget_bernoulli:
            message = f"Bernoulli index {charge} exceeds budget {args.budget_bernoulli}"
            report = CongruenceReport(name, dict(point), "BudgetExceeded", {"message": message})
        elif name in INVERSION_ORACLES:
            report = inversion_oracle_report(name, point)
        elif name == "eq6.4":
            report = congruences.scan_conjecture_bernoulli(
                point["p"], point["m"], [point["alpha"]], point["kstar"], budget=None)[0]
        else:
            report = STATEMENTS[name].run(point)
        records.append(report.to_json_dict())
    if argv[0] == "scan":
        passed = sum(record["verdict"] == "Pass" for record in records)
        records.append({"summary": {"pass": passed, "total": len(records)}})
    return records


# A small grid of every statement, one with BudgetExceeded records among
# passing ones, and one whose params pass 2^64. Of the statements that run in
# blocks of alphas: a grid of two k*, one where N falls below the Sturm index
# at alpha = 8, one whose budget straddles unsorted alphas, and two Eq. (6.4)
# scans of several blocks, which share k* across m (the default k* of each p)
# and across p (k* = 12).
DIFFERENTIAL_GRIDS = {
    "thm1.1": "verify thm1 --p 5,7 --m 1..3 --alpha 0..4 --prec 15",
    "thm1.2": "verify thm2 --p 5 --m 1..3 --alpha 1..4 --prec 15",
    "prop3.1": "verify prop3.1 --p 5 --m 1..2 --alpha 0..4 --prec 15",
    "prop4.1": "verify prop4.1 --p 5,7 --m 1..2 --alpha 1..4 --d 2,3",
    "prop4.2": "verify prop4.2 --p 5 --m 1..2 --alpha 1..4 --prec 15",
    "eq3.1": "verify eq3.1 --p 5 --m 1..3 --alpha 0..4 --d 2,3",
    "eq1.4": "verify eq1.4 --p 7 --k 4,8 --alpha 1..3 --prec 15",
    "eq1.6": "verify eq1.6 --p 5 --m 1..2 --k0 6,10 --prec 15",
    "kummer": "verify kummer --p 5 --m 1..2 --k 2,6 --alpha 1..2",
    "sun97": "verify sun97 --p 5,7 --n-max 6",
    "identity": "verify identity --m 2..5 --alpha 0..6",
    "telescoping": "verify telescoping --m 2..4 --alpha 0..5",
    "eq6.1": "scan eq6.1 --p 5 --m 1..2 --prec 15",
    "eq6.4": "scan eq6.4 --p 7 --m 4 --kstar 6 --alpha 0..12 --budget-bernoulli 60",
    "eq6.4-ms": "scan eq6.4 --p 5,7 --m 2..3 --alpha 0..8",
    "eq6.4-ps": "scan eq6.4 --p 5,7 --m 2 --kstar 12 --alpha 0..8",
    "budget": "verify thm1 --p 5 --m 2 --kstar 6 --alpha 0..3,2000 --budget-bernoulli 100",
    "large": "verify identity --m 2..4 --alpha 18446744073709551615..18446744073709551617",
    "kstars": "verify prop3.1 --p 5 --m 1..2 --kstar 6,10 --alpha 0..4 --prec 15",
    "sturm": "verify thm1 --p 5 --m 1..3 --kstar 6 --alpha 0..10 --prec 3",
    "straddle": "verify thm1 --p 5 --m 2 --kstar 6,10 --alpha 3,2000,5 --budget-bernoulli 100",
}

# The grids whose statement runs in blocks, so that its passing records are written in runs.
BLOCK_GRIDS = sorted(name for name, argv in DIFFERENTIAL_GRIDS.items()
                     if STATEMENTS[STATEMENT_ALIASES.get(argv.split()[1], argv.split()[1])].shape)

# Output constants that cut a block's runs short: at 4 records, with the clock read
# every 2, or at every clock read. (_CHUNK_RECORDS is a multiple of _CLOCK_RECORDS.)
RUN_CUTS = {
    "four-record-chunks": {"_CHUNK_RECORDS": 4, "_CLOCK_RECORDS": 2},
    "clock-cut-at-each-read": {"_CHUNK_SECONDS": 0, "_CLOCK_RECORDS": 2},
}


def test_every_read_of_a_statement_is_listed(monkeypatch):
    # Each point of each statement's small grid runs alone, with no prefetch
    # pass, from the seed Bernoulli memo and empty series tables, so every
    # number it memoizes is one it read.
    seed = {k: exact._BERNOULLI_MEMO[k] for k in (0, 1, 2)}
    tables = (eisenstein.g_series, eisenstein.e_series, eisenstein.generator_power,
              eisenstein.monomial_series, eisenstein._e_powers,
              congruences._block_table, congruences._k_over_bernoulli)
    for name, entry in STATEMENTS.items():
        args = cli.build_parser().parse_args(DIFFERENTIAL_GRIDS[name].split())
        for point in cli._build_tasks(name, args):
            entry.validate(point)
            monkeypatch.setattr(exact, "_BERNOULLI_MEMO", dict(seed))
            for table in tables:
                table.cache_clear()
            records = entry.run((point, [point["alpha"]]) if entry.key else point)
            if entry.shape:  # a block runs as its records are read
                list(records)
            reads = entry.reads(point)
            memoized = set(exact._BERNOULLI_MEMO) - set(seed)
            assert memoized <= set(reads), (name, point, sorted(memoized - set(reads)))
            assert max(memoized, default=0) <= max(reads, default=0), (name, point)
    # The terms an inversion sums, which its reads list, are where H is nonzero.
    for m in range(1, 7):
        for alpha in range(3 * m + 1):
            nonzero = [r for r, h in enumerate(congruences._h_row(m, alpha)) if h]
            assert list(congruences._inversion_support(m, alpha)) == nonzero, (m, alpha)


class TestRecordText:
    def test_every_statement_has_a_grid(self):
        assert set(STATEMENTS) <= set(DIFFERENTIAL_GRIDS)

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRIDS))
    def test_grid_matches_the_whole_list_dump(self, capsys, name):
        argv = DIFFERENTIAL_GRIDS[name].split()
        records = oracle_records(argv)
        assert any(r.get("params", {}).get("alpha", 0) > 2 ** 64 for r in records) == (
            name == "large")
        formats = ("jsonl", "json") if argv[0] == "scan" else ("jsonl", "json", "csv", "human")
        for fmt in formats:
            status, out, err = run_cli(capsys, *argv, "--format", fmt, "--jobs", "1")
            assert text_lines(out) == text_lines(emit_oracle(records, fmt)), fmt
            passed = all(r["verdict"] == "Pass" for r in records if "summary" not in r)
            assert (status, err) == (0 if passed else 1, "")

    @pytest.mark.parametrize("cut", sorted(RUN_CUTS))
    @pytest.mark.parametrize("name", BLOCK_GRIDS)
    def test_runs_cut_short_match_the_whole_list_dump(self, capsys, monkeypatch, name, cut):
        # Every block longer than a chunk, and a summary that counts records, not runs.
        for constant, value in RUN_CUTS[cut].items():
            monkeypatch.setattr(cli, constant, value)
        self.test_grid_matches_the_whole_list_dump(capsys, name)

    @pytest.mark.parametrize("report,warning", [
        (CongruenceReport("Prop3.2", {"m": 3, "j": 1, "s": 0, "alpha": 7}, "Fail", {"sum": "-12"}),
         None),
        (CongruenceReport("thm1.1", {"p": 5, "m": 2, "kstar": 6, "alpha": 2000, "prec": 50},
                          "BudgetExceeded", {"message": "Bernoulli index 8006 exceeds budget 100"}),
         None),
        (CongruenceReport("Sun97", {"p": 5, "n": 2, "case": "0"}, "Pass"),
         {"elapsed-seconds": 0.25, "limit": 0.0}),
        (CongruenceReport("Eq3.1", {"p": 5, "m": 2, "alpha": 3, "d": 2}, "Pass"),
         {"elapsed-seconds": 1.5, "limit": 1.0}),
        (CongruenceReport("Sun97", {"p": 5, "n": 4, "case": "p^(n-1)"}, "Pass"), None),
        (CongruenceReport("Flag", {"m": 2, "exact": True}, "Pass"), None),
        (CongruenceReport("Flag", {"m": 2, "exact": 1}, "Pass"), None),
        (CongruenceReport("Big", {"n": 2 ** 64 + 1, "k": -(3 ** 50), "z": 0}, "Pass",
                          None, "sturm-certified"), None),
        (CongruenceReport("Pct%d", {"a%s": 1}, "Pass", None, "100%"), None),
    ], ids=["fail", "budget-exceeded", "warning-str", "warning", "str-param", "bool-param",
            "int-param", "past-2^64", "percent"])
    @pytest.mark.parametrize("fmt", ["jsonl", "json", "csv", "human"])
    def test_record_matches_json_dumps(self, report, warning, fmt):
        record = report.to_json_dict()
        if warning is not None:
            record["budget-warning"] = warning
        head, _, tail = cli._FRAMES[fmt]
        text = cli._record_text(report, warning, fmt)
        assert text_lines(head + text + tail) == text_lines(emit_oracle([record], fmt))

    @pytest.mark.parametrize("fmt", ["jsonl", "json"])
    @pytest.mark.parametrize("argv", [
        "verify thm1 --p 5,7 --m 1..3 --alpha 0..6 --prec 20",
        "verify thm2 --p 5,7 --m 1..3 --alpha 1..6 --prec 20",
        "verify identity --m 2..5 --alpha 0..8",
        "verify telescoping --m 2..4 --alpha 0..6",
        "scan eq6.4 --p 7 --m 4 --kstar 6 --alpha 0..30",
    ], ids=["thm1", "thm2", "identity", "telescoping", "eq6.4"])
    def test_no_passing_record_of_a_benchmark_grid_is_written_alone(self, capsys, monkeypatch,
                                                                    argv, fmt):
        # Small grids of the benchmark's verify and scan workloads: every record
        # passes and is written in a run of its block, none by `_record_text`.
        alone, record_text = [], cli._record_text
        monkeypatch.setattr(cli, "_record_text",
                            lambda *call: alone.append(call) or record_text(*call))
        status, out, err = run_cli(capsys, *argv.split(), "--format", fmt, "--jobs", "1")
        assert (status, err, alone) == (0, "", []) and out


def test_records_stream_as_tasks_finish(tmp_path, monkeypatch):
    from eiscong import congruences

    path = tmp_path / "box.jsonl"
    seen_at_last_task = []
    original = congruences._identity_sums

    def watched(m, j, s, alphas):
        if (m, j, s) == (6, 5, 0):  # the last block
            seen_at_last_task.append(path.read_text())
        return original(m, j, s, alphas)

    monkeypatch.setattr(congruences, "_identity_sums", watched)
    status = main(["verify", "identity", "--m", "2..6", "--alpha", "0..40", "--jobs", "1",
                   "--out", str(path)])
    final = path.read_text()
    [early] = seen_at_last_task
    assert status == 0 and early and early.endswith("\n") and final.startswith(early)
    assert all(json.loads(line)["verdict"] == "Pass" for line in early.splitlines())
    assert len(early.splitlines()) < len(final.splitlines()) == 1435
    assert hashlib.sha256(final.encode()).hexdigest() == (
        "4d73bf3667696433c33e73adee57a5c0a6d13a781577118e41079e8925a0d1a5")


@pytest.fixture
def writes(monkeypatch):
    """The texts `main` writes to its --out file, each as (the time on cli's clock, text)."""
    written, real_open = [], open

    class Recorded:
        def __init__(self, file):
            self.file = file

        def write(self, text):
            written.append((cli.time.monotonic(), text))
            return self.file.write(text)

        def flush(self):
            self.file.flush()

        def close(self):
            self.file.close()

    monkeypatch.setattr(cli, "open", lambda *args: Recorded(real_open(*args)), raising=False)
    return written


def test_a_long_block_is_written_a_chunk_at_a_time(tmp_path, writes):
    # One block of 1000 passing records: its runs are cut at _CHUNK_RECORDS, so
    # it reaches the file in several writes, none of more than a chunk.
    path = tmp_path / "box.jsonl"
    argv = ["verify", "identity", "--m", "2", "--alpha", "0..999", "--jobs", "1",
            "--out", str(path)]
    assert main(argv) == 0
    sizes = [text.count("\n") for _, text in writes]
    assert len(sizes) > 1 and sum(sizes) == 1000 and max(sizes) <= cli._CHUNK_RECORDS
    assert text_lines(path.read_text()) == text_lines(emit_oracle(oracle_records(argv), "jsonl"))


# A block of 200 records: the kernel that makes them, and its argv.
SLOW_BLOCKS = {
    "identity": ("_identity_sums", "verify identity --m 2 --alpha 0..199"),
    "eq6.4": ("scan_conjecture_bernoulli", "scan eq6.4 --p 7 --m 4 --kstar 6 --alpha 0..199"),
}


@pytest.mark.parametrize("fmt", ["jsonl", "json"])
@pytest.mark.parametrize("name", sorted(SLOW_BLOCKS))
def test_a_slow_block_streams_by_the_clock(tmp_path, monkeypatch, writes, name, fmt):
    # Each record is made in 0.01 s of a fake clock. The clock is read each
    # _CLOCK_RECORDS = 16 records, and at the first read 0.1 s or more after the
    # last write the run is cut and written: 16 records at a time, as they are
    # made, so a block the runner ran whole first would be written late.
    class Clock:
        now = 0.0

        def monotonic(self):
            return self.now

    clock = Clock()
    kernel, argv = SLOW_BLOCKS[name]
    fast = getattr(congruences, kernel)

    def slow_sums(m, j, s, alphas):
        for value in fast(m, j, s, alphas):
            clock.now += 0.01
            yield value

    def slow_scan(*args, **kwargs):
        clock.now += 0.01
        return fast(*args, **kwargs)

    monkeypatch.setattr(cli, "time", clock)
    monkeypatch.setattr(congruences, kernel, slow_sums if name == "identity" else slow_scan)
    path = tmp_path / f"{name}.{fmt}"
    argv = [*argv.split(), "--format", fmt, "--jobs", "1"]
    assert main([*argv, "--out", str(path)]) == 0
    assert [text.count('"alpha"') for _, text in writes] == [16] * 12 + [8]
    times = [at for at, _ in writes]
    assert times == pytest.approx([0.16 * n for n in range(1, 13)] + [2.0])
    assert text_lines(path.read_text()) == text_lines(emit_oracle(oracle_records(argv), fmt))


# The identity-box workload's argvs, pinned by the benchmark's reference digests.
BOX_REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("argv", ["verify identity --m 2..12 --alpha 0..40",
                                  "verify telescoping --m 2..8 --alpha 0..20"],
                         ids=["identity", "telescoping"])
def test_identity_box_matches_the_benchmark_reference(capsys, argv):
    status, out, err = run_cli(capsys, *argv.split(), "--jobs", "1")
    reference = BOX_REFERENCES[argv]
    assert (status, err, len(out.splitlines())) == (0, "", reference["records"])
    assert hashlib.sha256(out.encode()).hexdigest() == reference["sha256"]


# Every valid sum is 0 and every certificate holds, so a Fail is forced by
# perturbing one kernel entry: an identity sum off by 12 at (m, j, s, alpha) =
# (4, 1, 1, 3); at (3, 1, 0, 2) the left side of r = 1 off by 1; and at
# (4, 2, 1, 5) the recurrence broken, which fails every r of the point.
FORCED_FAILS = {
    "identity": ("verify identity --m 2..5 --alpha 0..6",
                 lambda point, r: {"sum": "12"} if point == (4, 1, 1, 3) else None),
    "telescoping": ("verify telescoping --m 2..4 --alpha 0..5",
                    lambda point, r: {"identity": "telescoping"}
                    if point == (4, 2, 1, 5) or (point, r) == ((3, 1, 0, 2), 1) else None),
}


@pytest.mark.parametrize("fmt", ["jsonl", "json", "csv", "human"])
@pytest.mark.parametrize("name", sorted(FORCED_FAILS))
def test_a_failing_box_record_is_the_per_point_report(capsys, monkeypatch, name, fmt):
    identity_sums, certificate = congruences._identity_sums, congruences._certificate

    def sums(m, j, s, alphas):
        return (value + 12 * ((m, j, s, alpha) == (4, 1, 1, 3))
                for alpha, value in zip(alphas, identity_sums(m, j, s, alphas)))

    def sides(m, j, s, alpha):
        recurrence, sides = certificate(m, j, s, alpha)
        if (m, j, s, alpha) == (3, 1, 0, 2):
            sides[1] = (sides[1][0] + 1, sides[1][1])
        return recurrence and (m, j, s, alpha) != (4, 2, 1, 5), sides

    monkeypatch.setattr(congruences, "_identity_sums", sums)
    monkeypatch.setattr(congruences, "_certificate", sides)
    argv, detail_at = FORCED_FAILS[name]
    records = []
    for report in box_oracle_reports(name, cli.build_parser().parse_args(argv.split())):
        params = report.params
        detail = detail_at((params["m"], params["j"], params["s"], params["alpha"]),
                           params.get("r"))
        if detail is not None:  # the report the per-point runner built for a Fail
            report = CongruenceReport(report.statement_id, params, "Fail", detail)
        records.append(report.to_json_dict())
    assert sum(record["verdict"] == "Fail" for record in records) == (
        1 if name == "identity" else 4)
    status, out, err = run_cli(capsys, *argv.split(), "--format", fmt, "--jobs", "1")
    assert (status, err) == (1, "")
    assert text_lines(out) == text_lines(emit_oracle(records, fmt))


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_early_gets_no_traceback(tmp_path, unbuffered):
    # Closing before the first write makes the child's first write fail, and
    # a 1.2 MB box cannot fit a pipe, so reading 10 bytes first does too.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("EISCONG_BERNOULLI_CACHE", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    cache = tmp_path / "bernoulli.cache"
    for argv, read in (
            (["verify", "identity", "--m", "2..12", "--alpha", "0..40"], 10),
            (["scan", "eq6.4", "--p", "7", "--m", "4", "--kstar", "6", "--alpha", "0..40",
              "--format", "json", "--cache", str(cache)], 0)):
        proc = subprocess.Popen([sys.executable, "-m", "eiscong", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err, len(head)) == (1, b"", read), argv
    # The scan's Bernoulli numbers are saved although its output was lost.
    indices = [int(line.split()[0]) for line in cache.read_text().splitlines()]
    assert set(range(6, 40 * 6 + 7, 6)) <= set(indices)


def test_a_box_block_charges_its_setup_to_its_first_record(capsys, monkeypatch):
    # Each record gets its own budget warning, timed from the end of the one
    # before, so a slow block setup shows on the block's first record only.
    import time

    identity_sums = congruences._identity_sums

    def slow_setup(m, j, s, alphas):
        time.sleep(0.05)
        return identity_sums(m, j, s, alphas)

    monkeypatch.setattr(congruences, "_identity_sums", slow_setup)
    status, out, err = run_cli(capsys, "verify", "identity", "--m", "2..3", "--alpha", "0..2",
                               "--budget-seconds", "0.04", "--jobs", "1")
    records = [json.loads(line) for line in out.splitlines()]
    assert (status, err, len(records)) == (0, "", 12)
    assert [("budget-warning" in r, r["params"]["alpha"]) for r in records] == [
        (alpha == 0, alpha) for _ in range(4) for alpha in range(3)]
    assert all(r["budget-warning"]["limit"] == 0.04 and r["budget-warning"]["elapsed-seconds"]
               >= 0.05 for r in records if "budget-warning" in r)
    # With no limit, every record is the plain template.
    status, plain, _ = run_cli(capsys, "verify", "identity", "--m", "2..3", "--alpha", "0..2",
                               "--jobs", "1")
    assert [json.loads(line) for line in plain.splitlines()] == [
        {k: v for k, v in r.items() if k != "budget-warning"} for r in records]


# A skewed generator: q^3 of one term of each block's sum off by one, so from
# alpha = m on a record can fail, where the per-point oracle says it does.
SKEWED_GRIDS = {
    "thm1.1": ("verify thm1 --p 5,7 --m 2..3 --alpha 0..6 --prec 15", "g_series", (10, 12)),
    "thm1.2": ("verify thm2 --p 5 --m 2..3 --alpha 1..6 --prec 15", "e_series", (4,)),
    "prop3.1": ("verify prop3.1 --p 5,7 --m 2..3 --alpha 0..6 --prec 15", "g_series", (10, 12)),
    "prop4.2": ("verify prop4.2 --p 5 --m 2..3 --alpha 1..6 --prec 15", "e_series", (4,)),
    "eq6.1": ("scan eq6.1 --p 5 --m 2..3 --prec 15", "e_series", (8,)),
}


@pytest.mark.parametrize("name,fmt", [
    (name, fmt) for name in sorted(SKEWED_GRIDS) for fmt in ("jsonl", "json", "csv", "human")
    if fmt in ("jsonl", "json") or SKEWED_GRIDS[name][0].startswith("verify")])  # scan: json(l)
def test_a_failing_inversion_record_is_the_per_point_report(capsys, monkeypatch, name, fmt):
    argv, form, weights = SKEWED_GRIDS[name]
    original = getattr(congruences, form)

    def skewed(k, ring, precision):
        series = original(k, ring, precision)
        if k not in weights:
            return series
        coeffs = list(series.coeffs)
        coeffs[3] = (coeffs[3] + 1) % ring.modulus
        return type(series)(ring, tuple(coeffs), precision)

    monkeypatch.setattr(congruences, form, skewed)
    records = oracle_records(argv.split())
    fails = [record for record in records if record.get("verdict") == "Fail"]  # not the summary
    assert fails and all(record["failure-detail"]["first-failing-index"] == 3 for record in fails)
    status, out, err = run_cli(capsys, *argv.split(), "--format", fmt, "--jobs", "1")
    assert (status, err) == (1, "")
    assert text_lines(out) == text_lines(emit_oracle(records, fmt))


@pytest.mark.parametrize("fmt", ["jsonl", "json"])
def test_a_failing_scan_record_is_the_per_point_report(capsys, monkeypatch, fmt):
    # k/B_k off by one at weight 48, alpha = 7's own term; at m = 4 no other
    # alpha's sum reads it, so one record fails amid the block's passing ones.
    k_over_bernoulli = congruences._k_over_bernoulli
    monkeypatch.setattr(congruences, "_k_over_bernoulli",
                        lambda k: k_over_bernoulli(k) + (k == 48))
    argv = "scan eq6.4 --p 7 --m 4 --kstar 6 --alpha 0..12".split()
    records = oracle_records(argv)
    assert [r["params"]["alpha"] for r in records if r.get("verdict") == "Fail"] == [7]
    status, out, err = run_cli(capsys, *argv, "--format", fmt, "--jobs", "1")
    assert (status, err) == (1, "")
    assert text_lines(out) == text_lines(emit_oracle(records, fmt))


@pytest.mark.parametrize("fmt", ["jsonl", "json"])
@pytest.mark.parametrize("name", BLOCK_GRIDS)
def test_with_no_seconds_to_spare_every_block_record_is_written_whole(capsys, name, fmt):
    # Every record is over a limit of 0, so each carries a warning and none
    # joins a run of its block.
    argv = DIFFERENTIAL_GRIDS[name].split()
    status, out, err = run_cli(capsys, *argv, "--budget-seconds", "0", "--format", fmt,
                               "--jobs", "1")
    records = json.loads(out) if fmt == "json" else [json.loads(line) for line in out.splitlines()]
    expected = oracle_records(argv)
    passed = all(r["verdict"] == "Pass" for r in expected if "summary" not in r)
    assert (status, err) == (0 if passed else 1, "")
    assert all(r.pop("budget-warning")["limit"] == 0.0 for r in records if "summary" not in r)
    assert records == expected


def test_blocks_are_the_runs_of_one_key_within_the_budget(rng):
    # Random points in few values, so runs repeat and break on each field: the
    # blocks are the runs of consecutive in-budget points with one (p, m, k*, N,
    # certification), and a point over the budget stands alone.
    for name, budget in (("thm1.1", 60), ("thm1.2", 60), ("eq6.1", 40)):
        entry = STATEMENTS[name]
        points = []
        for _ in range(400):
            point = {"p": rng.choice((5, 7)), "m": rng.choice((1, 2)),
                     "kstar": rng.choice((6, 10)), "alpha": rng.randrange(12),
                     "prec": rng.choice((2, 40))}
            if name == "thm1.2":
                del point["kstar"]
            points.extend([point] * rng.choice((1, 3)))
        charges = [max(entry.reads(point)) for point in points]
        tasks, task_charges = cli._blocks(points, charges, budget, entry.key)
        expected, last = [], None
        for point, charge in zip(points, charges):
            weight = point["alpha"] * (point["p"] - 1) + point.get("kstar", 0)
            here = None if charge > budget else (
                point["p"], point["m"], point.get("kstar"), point["prec"],
                congruences._certification(point["prec"], weight))
            if here is not None and here == last:
                expected[-1][0][1].append(point["alpha"])
            else:
                expected.append(((point, [point["alpha"]]) if here else point, charge))
            last = here
        assert (tasks, task_charges) == ([task for task, _ in expected],
                                         [charge for _, charge in expected]), name
        assert any(isinstance(task, dict) for task in tasks)
        assert len(tasks) < len(points)
