"""Command-line entry points: bernoulli | series | verify | filtration | reproduce | scan.

Each subcommand's runner returns its records in runs (passed, count, text), each
one failing record or passing ones, and `main` writes them all through `_emit`:
in input order, in chunks as they are made, framed for the format. The exit status
is 0 exactly when every record passes. JSON-lines is the canonical machine format
for grid runs. Every input error is raised before the first record is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import lru_cache, partial
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from . import congruences as cong
from .cache import default_cache_path, load_bernoulli_cache, save_bernoulli_cache
from .congruences import DEFAULT_BERNOULLI_BUDGET, CongruenceReport
from .eisenstein import delta_series, e_factor, e_series, g_series, monomial_series
from .errors import BudgetExceededError, EiscongError
from .exact import bernoulli, int_str, padic_valuation, prefetch_bernoulli
from .filtration import filtration_of, k0m_of, probe_record
from .golden import REPRODUCTION_EXAMPLES
from .residue import ResidueRing, is_prime

__all__ = ["main"]


def parse_range(text: str) -> list[int]:
    """Accept "5", "0..10" (inclusive), or "1,3,5"."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            values.extend(range(int(lo), int(hi) + 1))
        else:
            values.append(int(part))
    return values


def smallest_kstar(p: int, m: int) -> int:
    """Smallest even k* > m with p-1 not dividing k*."""
    k = m + 1 if (m + 1) % 2 == 0 else m + 2
    while k % (p - 1) == 0:
        k += 2
    return k


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _flatten_params(params: dict) -> str:
    return ";".join(f"{key}={value}" for key, value in sorted(params.items()))


# Each format's text before the first record, between records and after the
# last. A json array of records is "[\n", each record's indent=2 dump with
# every line indented two spaces, joined by ",\n", then "\n]": the bytes of
# one indent=2 dump of the whole list.
_FRAMES = {
    "jsonl": ("", "", ""),
    "json": ("[\n", ",\n", "\n]\n"),
    "csv": ("statement-id,verdict,certification,params,failure-detail\n", "", ""),
    "human": ("", "", ""),
}


def _dict_text(record: dict, fmt: str) -> str:
    """One record's text in `fmt`, without the frame around it."""
    if fmt == "jsonl":
        return json.dumps(record, sort_keys=True) + "\n"
    if fmt == "json":
        return "  " + json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n  ")
    if fmt == "csv":
        detail = json.dumps(record.get("failure-detail")) if record.get("failure-detail") else ""
        return ",".join([
            str(record.get("statement-id", "")),
            str(record.get("verdict", "")),
            str(record.get("certification", "")),
            '"' + _flatten_params(record.get("params", {})) + '"',
            '"' + detail.replace('"', "'") + '"',
        ]) + "\n"
    params = _flatten_params(record.get("params", {}))  # human
    line = f"{record.get('statement-id', '?'):>10}  {params:<48} {record.get('verdict')}"
    if record.get("failure-detail"):
        line += f"  {record['failure-detail']}"
    return line + "\n"


# A param value's place in a template. json.dumps writes it as "\u0000", which
# no statement id, certification or param key (all package strings) holds.
_MARK = "\x00"
_MARKED = json.dumps(_MARK)


@lru_cache(maxsize=256)
def _template(statement_id: str, certification: str, keys: tuple[str, ...],
              fmt: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A passing record's text in `fmt`, cut at each of its (one or more) param
    values: the pieces around them, and the keys in that order."""
    keys = tuple(sorted(keys))  # json.dumps sorts the keys
    skeleton = CongruenceReport(statement_id, dict.fromkeys(keys, _MARK), "Pass", None,
                                certification)
    return tuple(_dict_text(skeleton.to_json_dict(), fmt).split(_MARKED)), keys


def _fill(template: tuple[tuple[str, ...], tuple[str, ...]], params: dict) -> list[str]:
    """The template's pieces with the int values of `params` in (str(n) is json's n)."""
    pieces, keys = template
    filled = [pieces[0]]
    for key, piece in zip(keys, pieces[1:]):
        if key in params:
            filled[-1] += str(params[key]) + piece
        else:
            filled.append(piece)
    return filled


def _run_text(pieces: list[str], sep: str, run: list[tuple]) -> str:
    """A run's records, each the tuple of its values left out of `pieces`, joined by `sep`."""
    head, *inner, tail = pieces
    middles = [f"{a}{inner[0]}{b}" for a, b in run] if inner else [str(a) for a, in run]
    return head + (tail + sep + head).join(middles) + tail


def _record_text(report: CongruenceReport, warning: dict | None, fmt: str) -> str:
    """The report's record, with its budget warning if any, as `_dict_text` writes it."""
    record = report.to_json_dict()
    if warning is not None:
        record["budget-warning"] = warning
    return _dict_text(record, fmt)


# Records reach the output in chunks of at most _CHUNK_RECORDS, written before a run
# that would overfill them and when the clock, read as the count passes a multiple of
# _CLOCK_RECORDS (_CHUNK_RECORDS is one), shows _CHUNK_SECONDS since the last write.
_CHUNK_RECORDS = 256
_CHUNK_SECONDS = 0.1
_CLOCK_RECORDS = 16


def _emit(runs: Iterable[tuple[bool, int, str]], fmt: str, out, summary: bool = False) -> bool:
    """Write each run of (passed, count, text) records in order, framed for `fmt`, as it comes.

    With `summary`, a {"summary": {"pass", "total"}} record goes last; it
    counts records, not runs. True when every record passed.
    """
    head, sep, tail = _FRAMES[fmt]
    chunk, lead, size, passed, total = [], head, 0, 0, 0
    written = time.monotonic()

    def write() -> None:
        nonlocal chunk, size, written
        out.write("".join(chunk))
        out.flush()
        chunk, size, written = [], 0, time.monotonic()

    for ok, count, text in runs:
        if size + count > _CHUNK_RECORDS:
            write()
        chunk.append(lead + text)
        lead = sep
        size += count
        passed += ok * count
        total += count
        if total % _CLOCK_RECORDS < count and time.monotonic() - written >= _CHUNK_SECONDS:
            write()
    if summary:
        chunk.append(lead + _dict_text({"summary": {"pass": passed, "total": total}}, fmt))
    elif not total:
        chunk.append(head)  # the head leads the first record, and there was none
    chunk.append(tail)
    out.write("".join(chunk))
    return passed == total


# ---------------------------------------------------------------------------
# Statement table for verify and scan
# ---------------------------------------------------------------------------

class Statement:
    """One statement of `verify` or `scan`.

    `run` maps a task, a grid point, to its report. It calls the check as an
    attribute of the `congruences` module, never through a stored function
    object, so a tracer that rebinds module attributes sees every call.
    `grid` yields the points for the parsed arguments, primes and exponents
    m, in output order. `reads` lists every Bernoulli index a point reads
    (its budget is charged the largest). `validate` is a cheap check run on
    the whole grid before any task runs; it rejects every point that `run`
    would reject, so every index `reads` lists is then non-negative. With a
    `shape`, a task is a block, shape(task) is the (id, certification, shared
    int params, sorted names of the one or two that vary) of its passing
    records, and `run` yields (the varying values, report or None on a pass).
    With a `key`, the grid's points are grouped into such blocks (`_blocks`).
    """

    __slots__ = ("run", "grid", "reads", "validate", "required", "scan", "shape", "key")

    def __init__(self, run: Callable, grid: Callable[[argparse.Namespace, list, list], Iterator],
                 reads: Callable[[dict], Sequence[int]] = lambda task: (),
                 validate: Callable = lambda task: None, required: tuple[str, ...] = (),
                 scan: bool = False, shape: Callable[[object], tuple] | None = None,
                 key: Callable[[dict], tuple] | None = None) -> None:
        self.run, self.grid, self.reads = run, grid, reads
        self.validate, self.required, self.scan = validate, required, scan
        self.shape, self.key = shape, key


def _alphas(args) -> list[int]:
    return parse_range(args.alpha) if args.alpha else [0]


def _gk_grid(args, ps: list[int], ms: list[int]) -> Iterator[dict]:
    for p, m in product(ps, ms):
        for kstar in parse_range(args.kstar) if args.kstar else [smallest_kstar(p, m)]:
            for alpha in _alphas(args):
                yield {"p": p, "m": m, "kstar": kstar, "alpha": alpha, "prec": args.prec}


def _ek_grid(args, ps: list[int], ms: list[int]) -> Iterator[dict]:
    for p, m, alpha in product(ps, ms, _alphas(args)):
        yield {"p": p, "m": m, "alpha": alpha, "prec": args.prec}


def _d_grid(args, ps: list[int], ms: list[int]) -> Iterator[dict]:
    for p, m, alpha, d in product(ps, ms, _alphas(args), parse_range(args.d)):
        yield {"p": p, "m": m, "alpha": alpha, "d": d}


def _box_grid(args, ps: list[int], ms: list[int]) -> Iterator[tuple]:
    """The Prop. 3.2 box in blocks (m, j, s, alphas), none without alphas or at m = 1."""
    if min(ms, default=1) < 1:
        raise EiscongError("m must be at least 1")
    alphas = _alphas(args)
    return ((m, j, s, alphas) for m in ms for j in range(1, m) for s in range(m - j) if alphas)


def _conjecture_grid(args, ps: list[int], ms: list[int]) -> Iterator[dict]:
    for p, m in product(ps, ms):
        kstar = int(args.kstar) if args.kstar else k0m_of(0, p, m)
        for alpha in parse_range(args.alpha) if args.alpha else range(m, m + p + 1):
            yield {"p": p, "m": m, "kstar": kstar, "alpha": alpha}


def _identity_block(block: tuple) -> Iterator[tuple[tuple, CongruenceReport | None]]:
    m, j, s, alphas = block
    for alpha, value in zip(alphas, cong._identity_sums(m, j, s, alphas)):
        yield (alpha,), None if not value else CongruenceReport(
            "Prop3.2", {"m": m, "j": j, "s": s, "alpha": alpha}, "Fail", {"sum": str(value)})


def _telescoping_block(block: tuple) -> Iterator[tuple[tuple, CongruenceReport | None]]:
    m, j, s, alphas = block
    for alpha in alphas:
        recurrence, sides = cong._certificate(m, j, s, alpha)
        for r, (left, right) in enumerate(sides, s):
            yield (alpha, r), None if recurrence and left == right else CongruenceReport(
                "Eq3.3", {"m": m, "j": j, "s": s, "alpha": alpha, "r": r}, "Fail",
                {"identity": "telescoping"})


def _conjecture_block(block: tuple) -> Iterator[tuple[tuple, CongruenceReport | None]]:
    point, alphas = block
    for alpha in alphas:
        [report] = cong.scan_conjecture_bernoulli(point["p"], point["m"], [alpha],
                                                  point["kstar"], budget=None)
        yield (alpha,), None if report.passed else report


def _inversion(statement_id: str, form: str, with_e_powers: bool, grid: Callable,
               validate: Callable, scan: bool = False) -> Statement:
    """A statement `congruences.inversion_rows` checks, in blocks (first point, alphas).

    A block's points share (p, m, k*, N) and a certification, so its passing
    records share one template, filled but for alpha; `form` names the generator,
    read off `congruences` as each block runs. An E_k point has no k*, which is 0.
    """
    def certification(point: dict) -> str:
        weight = point["alpha"] * (point["p"] - 1) + point.get("kstar", 0)
        return cong._certification(point["prec"], weight if with_e_powers else None)

    def fixed(point: dict) -> dict:
        params = {name: point[name] for name in ("kstar", "m", "p") if name in point}
        params["N"] = point["prec"]
        return params

    def run(block: tuple) -> Iterator[tuple[tuple, CongruenceReport | None]]:
        point, alphas = block
        rows = cong.inversion_rows(statement_id, fixed(point), getattr(cong, form),
                                   point.get("kstar", 0), alphas, with_e_powers)
        return (((alpha,), report) for alpha, report in rows)

    def shape(block: tuple) -> tuple[str, str, dict, tuple[str, ...]]:
        point = block[0]
        return statement_id, certification(point), fixed(point), ("alpha",)

    return Statement(
        run=run, grid=grid, reads=lambda t: cong.inversion_reads(t, with_e_powers),
        validate=validate, scan=scan, shape=shape,
        key=lambda t: (t["p"], t["m"], t.get("kstar"), t["prec"], certification(t)))


# The parsers list the names in this order, each alias just before its target.
STATEMENTS = {
    "thm1.1": _inversion(
        "Thm1.1", "g_series", True, _gk_grid,
        lambda t: cong._validate_gk_args(t["p"], t["m"], t["kstar"], t["alpha"])),
    "thm1.2": _inversion(
        "Thm1.2", "e_series", True, _ek_grid,
        lambda t: cong._validate_ek_args(t["p"], t["m"], t["alpha"])),
    "prop3.1": _inversion(
        "Prop3.1", "g_series", False, _gk_grid,
        lambda t: cong._validate_gk_args(t["p"], t["m"], t["kstar"], t["alpha"])),
    "prop4.1": Statement(
        run=lambda t: cong.check_bernoulli_prop41(t["p"], t["m"], t["alpha"], t["d"]),
        grid=_d_grid, reads=lambda t: cong.inversion_reads(t, False),
        validate=lambda t: cong._validate_prop41_args(t["p"], t["m"], t["alpha"], t["d"])),
    "prop4.2": _inversion(
        "Prop4.2", "e_series", False, _ek_grid,
        lambda t: cong._validate_ek_args(t["p"], t["m"], t["alpha"])),
    "eq3.1": Statement(
        run=lambda t: cong.check_dpower_congruence(t["p"], t["m"], t["alpha"], t["d"]),
        grid=_d_grid,
        validate=lambda t: cong._validate_dpower_args(t["p"], t["m"], t["alpha"], t["d"])),
    # --m is not a parameter of eq1.4 or sun97, so their grids do not loop over it.
    "eq1.4": Statement(
        run=lambda t: cong.check_eq14(t["p"], t["k"], t["kprime"], t["prec"]),
        grid=lambda args, ps, ms: (
            {"p": p, "k": k, "kprime": k + alpha * (p - 1), "prec": args.prec}
            for p, k, alpha in product(ps, parse_range(args.k), _alphas(args))),
        reads=lambda t: [t["k"], t["kprime"]], required=("k",),
        validate=lambda t: cong._validate_eq14_args(t["p"], t["k"], t["kprime"])),
    "eq1.6": Statement(
        run=lambda t: cong.check_eq16(t["p"], t["m"], t["k0"], t["prec"]),
        grid=lambda args, ps, ms: (
            {"p": p, "m": m, "k0": k0, "prec": args.prec}
            for p, m, k0 in product(ps, ms, parse_range(args.k0))),
        reads=lambda t: [t["k0"], t["p"] ** (t["m"] - 1) * (t["p"] - 1) + t["k0"]],
        required=("k0",),
        validate=lambda t: cong._validate_eq16_args(t["p"], t["m"], t["k0"])),
    "kummer": Statement(
        run=lambda t: cong.check_kummer(t["p"], t["r"], t["k"], t["kprime"]),
        grid=lambda args, ps, ms: (
            {"p": p, "r": r, "k": k, "kprime": k + alpha * p ** (r - 1) * (p - 1)}
            for p, r, k, alpha in product(ps, ms, parse_range(args.k), _alphas(args))),
        reads=lambda t: [t["k"], t["kprime"]], required=("k",),
        validate=lambda t: cong._validate_kummer_args(t["p"], t["r"], t["k"], t["kprime"])),
    "sun97": Statement(
        run=lambda t: cong.check_sun97_at(t["p"], t["n"]),
        grid=lambda args, ps, ms: (
            {"p": p, "n": n} for p, n in product(ps, range(1, args.n_max + 1))),
        reads=lambda t: [j * (t["p"] - 1) for j in range(t["n"] + 1)]),
    # j and s are in range by construction, so a block's smallest alpha stands for it.
    "identity": Statement(
        run=_identity_block, grid=_box_grid,
        shape=lambda b: ("Prop3.2", "coefficient-evidence", dict(zip("mjs", b)), ("alpha",)),
        validate=lambda b: cong._validate_identity_box(b[0], b[1], b[2], min(b[3]))),
    "telescoping": Statement(
        run=_telescoping_block, grid=_box_grid,
        shape=lambda b: ("Eq3.3", "coefficient-evidence", dict(zip("mjs", b)), ("alpha", "r")),
        validate=lambda b: cong._validate_identity_box(b[0], b[1], b[2], min(b[3]))),
    "eq6.1": _inversion(
        "ConjEq6.1", "e_series", True,
        lambda args, ps, ms: (dict(point, prec=args.prec)
                              for point in _conjecture_grid(args, ps, ms)),
        lambda t: cong._validate_conjecture_args(t["p"], t["m"], t["kstar"], t["alpha"]),
        scan=True),
    # `_valuation_report` certifies every record as coefficient evidence.
    "eq6.4": Statement(
        run=_conjecture_block, grid=_conjecture_grid, scan=True,
        reads=lambda t: cong.inversion_reads(t, False), key=lambda t: (t["p"], t["m"], t["kstar"]),
        validate=lambda t: cong._validate_conjecture_args(t["p"], t["m"], t["kstar"], t["alpha"]),
        shape=lambda b: ("ConjEq6.4", "coefficient-evidence",
                         {name: b[0][name] for name in ("kstar", "m", "p")}, ("alpha",))),
}

STATEMENT_ALIASES = {"thm1": "thm1.1", "thm2": "thm1.2"}


def _statement_choices(scan: bool) -> list[str]:
    names = []
    for name, entry in STATEMENTS.items():
        if entry.scan == scan:
            names += [alias for alias, target in STATEMENT_ALIASES.items() if target == name]
            names.append(name)
    return names


def _build_tasks(name: str, args) -> list:
    """The statement's grid for the parsed arguments: its points (or blocks) in output order."""
    name = STATEMENT_ALIASES.get(name, name)
    entry = STATEMENTS[name]
    for flag in entry.required:
        if getattr(args, flag) is None:
            raise EiscongError(f"statement {name} requires --{flag}")
    ps = parse_range(args.p) if args.p else [5]
    for p in ps:
        if p < 5 or not is_prime(p):
            raise EiscongError(f"p must be a prime >= 5, got {p}")
    ms = parse_range(args.m) if args.m else [1]
    points = list(entry.grid(args, ps, ms))
    if not points:
        raise EiscongError(f"the {name} grid is empty for these ranges")
    if "prec" in points[0] and args.prec < 0:
        raise EiscongError(f"precision must be non-negative, got {args.prec}")
    return points


def _records(statement: str, entry: Statement, tasks: list, charges: list[int],
             args) -> Iterator[tuple[bool, int, str]]:
    """Each run of records as (passed, count, text in --format), in input order, as its
    task finishes.

    A task charged (its largest Bernoulli index) over --budget-bernoulli gives a
    BudgetExceeded record. In json(l) without --budget-seconds, a block's shared params
    fill its template once and a run of its passing records joins their varying values,
    cut as `_emit` writes, so a long or slow block still streams; any other record is a
    run of one. Each record is timed from the end of the one before, so a block's record
    that builds its setup pays for it; one slower than --budget-seconds carries a warning.
    """
    limit, fmt, shape = args.budget_seconds, args.format, entry.shape
    sep = _FRAMES[fmt][1]
    started = time.monotonic()
    for task, charge in zip(tasks, charges):
        pieces, run = None, []
        try:
            cong._check_budget(charge, args.budget_bernoulli)
            if shape:
                statement_id, certification, fixed, varying = shape(task)
                if fmt in ("jsonl", "json") and limit is None:
                    pieces = _fill(_template(statement_id, certification, (*fixed, *varying),
                                             fmt), fixed)
                    cut = time.monotonic()
            rows = entry.run(task) if shape else ((None, entry.run(task)),)
        except BudgetExceededError as err:
            rows = ((None, CongruenceReport(statement, dict(task), "BudgetExceeded",
                                            {"message": str(err)})),)
        for values, report in rows:
            joined = report is None and pieces
            if joined:
                run.append(values)
                if len(run) % _CLOCK_RECORDS or (
                        len(run) < _CHUNK_RECORDS and time.monotonic() - cut < _CHUNK_SECONDS):
                    continue
            if run:
                yield True, len(run), _run_text(pieces, sep, run)
                run, cut = [], time.monotonic()
            if joined:
                continue
            warning = None
            if limit is not None and (elapsed := time.monotonic() - started) > limit:
                warning = {"elapsed-seconds": round(elapsed, 3), "limit": limit}
            report = report or CongruenceReport(
                statement_id, {**fixed, **dict(zip(varying, values))}, "Pass", None,
                certification)
            yield report.passed, 1, _record_text(report, warning, fmt)
            if limit is not None:
                started = time.monotonic()
        if run:
            yield True, len(run), _run_text(pieces, sep, run)


def _blocks(points: list[dict], charges: list[int], budget: int,
            key: Callable[[dict], tuple]) -> tuple[list, list[int]]:
    """The tasks and charges of a grid grouped by `key`: each run of consecutive points
    within the budget that share a key is one block (its first point, its alphas),
    charged its first point's charge; a point over the budget stays a task of its own."""
    tasks, task_charges, last = [], [], None
    for point, charge in zip(points, charges):
        here = key(point) if charge <= budget else None
        if here is not None and here == last:
            tasks[-1][1].append(point["alpha"])
            continue
        tasks.append(point if here is None else (point, [point["alpha"]]))
        task_charges.append(charge)
        last = here
    return tasks, task_charges


def _run_tasks(args) -> Iterator[tuple[bool, int, str]]:
    """Each run of records of `verify` or `scan`, in input order, as each task finishes.

    The budgets and every point are validated and every Bernoulli number
    prefetched before this returns, so an input error is raised before any
    record exists.
    """
    if args.budget_bernoulli < 0:
        raise EiscongError(f"--budget-bernoulli must be non-negative, got {args.budget_bernoulli}")
    if args.budget_seconds is not None and not 0 <= args.budget_seconds < math.inf:
        raise EiscongError(
            f"--budget-seconds must be finite and non-negative, got {args.budget_seconds}")
    name = args.conjecture if args.command == "scan" else args.statement
    statement = STATEMENT_ALIASES.get(name, name)
    entry = STATEMENTS[statement]
    points = _build_tasks(name, args)
    # One pass memoizes every index a task within its budget reads,
    # before any task runs, so no task runs a one-index pass of its own. A
    # point is validated before its reads are listed.
    charges, reads = [], set()
    for point in points:
        entry.validate(point)
        indices = entry.reads(point)
        charge = max(indices) if indices else 0
        charges.append(charge)
        if indices and charge <= args.budget_bernoulli:
            reads.update(indices)
    prefetch_bernoulli(sorted(reads))
    if entry.key:
        points, charges = _blocks(points, charges, args.budget_bernoulli, entry.key)
    return _records(statement, entry, points, charges, args)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_bernoulli(args) -> Iterator[tuple[bool, int, str]]:
    """Each B_k's record, as `bernoulli` prints it; input errors are raised, and
    every index prefetched, before this returns."""
    ks = parse_range(args.k)
    if not ks:
        raise EiscongError(f"the Bernoulli index range {args.k} is empty")
    if any(k < 0 for k in ks):
        raise EiscongError("Bernoulli indices must be non-negative")
    primes = parse_range(args.p) if args.p else []
    if args.p and not primes:
        raise EiscongError(f"the prime range {args.p} is empty")
    for p in primes:
        if not is_prime(p):
            raise EiscongError(f"p must be a prime, got {p}")
    prefetch_bernoulli(ks)
    return ((True, 1, _bernoulli_text(k, primes, args.format)) for k in ks)


def _bernoulli_text(k: int, primes: list[int], fmt: str) -> str:
    value = bernoulli(k)
    record = {"k": k, "value": f"{int_str(value.numerator)}/{int_str(value.denominator)}"}
    for p in primes:
        record[f"nu_{p}"] = str(padic_valuation(value, p))
    if fmt == "human":
        extras = "".join(f"  nu_{p}={record[f'nu_{p}']}" for p in primes)
        return f"{k} {record['value']}{extras}\n"
    return _dict_text(record, fmt)


def _cmd_series(args) -> list[tuple[bool, int, str]]:
    build = {"g": partial(g_series, args.k), "e": partial(e_series, args.k),
             "delta": delta_series, "efactor": e_factor,
             "monomial": partial(monomial_series, args.a, args.b, args.c)}[args.kind]
    series = build(ResidueRing(args.p, args.m), args.prec)
    return [(True, 1, json.dumps(series.to_json_dict()) + "\n")]


def _cmd_filtration(args) -> list[tuple[bool, int, str]]:
    f, report = filtration_of(args.form, args.k, args.p, args.m, args.prec)
    payload = report.to_json_dict()
    if args.probe is not None:
        payload["probe"] = probe_record(f, report, args.probe, args.prec)
    return [(True, 1, json.dumps(payload, sort_keys=True) + "\n")]


def _cmd_reproduce(args) -> list[tuple[bool, int, str]]:
    """The example's report and its comparison with the bundled values; it passes on a match."""
    target = REPRODUCTION_EXAMPLES[args.example]
    k = target["weight"]
    f, report = filtration_of(target["kind"], k, target["p"], target["m"])
    probe = probe_record(f, report, target["sharpness-weight"])
    mismatches = []
    if report.bound_found != target["bound"]:
        mismatches.append(f"bound {report.bound_found} != {target['bound']}")
    if report.witness_exponent != target["witness-exponent"]:
        mismatches.append(
            f"witness exponent {report.witness_exponent} != {target['witness-exponent']}"
        )
    if list(report.witness_monomials) != [tuple(t) for t in target["monomials"]]:
        mismatches.append(f"monomials {report.witness_monomials} != {target['monomials']}")
    mismatches += [f"coefficient[{i}] {got} != {want}" for i, (got, want)
                   in enumerate(zip(report.witness_coeffs, target["coefficients"])) if got != want]
    if report.certified_coefficients != target["certified-coefficients"]:
        mismatches.append(
            f"certified {report.certified_coefficients} != {target['certified-coefficients']}"
        )
    if probe["result"] == "Solvable":
        mismatches.append(f"sharpness probe at {target['sharpness-weight']} was solvable")
    payload = report.to_json_dict()
    payload["sharpness-probe"] = probe
    payload["match"] = not mismatches
    payload["mismatches"] = mismatches
    return [(not mismatches, 1, json.dumps(payload, sort_keys=True) + "\n")]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, default_format: str,
                formats: tuple[str, ...] = ("json", "jsonl")) -> None:
    """Flags every subcommand takes; `formats` are the values its --format accepts."""
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--format", choices=formats, default=default_format)
    parser.add_argument("--cache", help="Bernoulli cache file (load before, append after)")
    # Grids run serially; --jobs is still accepted, as 1 only, for argvs that pass it.
    parser.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)


def _bernoulli_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("k", help="index or range, e.g. 12 or 0..30")
    p.add_argument("--p", help="prime(s): add p-adic valuation columns")
    _add_common(p, "human", ("json", "jsonl", "human"))


def _series_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=("g", "e", "delta", "efactor", "monomial"))
    p.add_argument("--k", type=int, default=0, help="weight for g/e")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--c", type=int, default=0)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--prec", type=int, default=20)
    _add_common(p, "json")


def _add_budget(p: argparse.ArgumentParser) -> None:
    """Flags of the subcommands whose tasks a budget limits."""
    p.add_argument("--budget-bernoulli", type=int, default=DEFAULT_BERNOULLI_BUDGET,
                   help="largest Bernoulli index a task may demand")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="soft per-record wall-time limit (annotates records)")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("statement", choices=_statement_choices(scan=False))
    p.add_argument("--p", help="prime or range")
    p.add_argument("--m", help="modulus exponent(s); for kummer this is r")
    p.add_argument("--kstar", help="base weight(s); default: smallest valid")
    p.add_argument("--alpha", help="alpha range; for eq1.4/kummer the nonzero shift count")
    p.add_argument("--k", help="weight(s) for eq1.4/kummer")
    p.add_argument("--k0", help="base weight(s) for eq1.6")
    p.add_argument("--d", default="2,3,6", help="d values for prop4.1/eq3.1")
    p.add_argument("--n-max", type=int, default=8, help="max n for sun97")
    p.add_argument("--prec", type=int, default=50)
    _add_common(p, "jsonl", ("json", "jsonl", "csv", "human"))
    _add_budget(p)


def _filtration_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--form", choices=("G", "E"), default="G")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--prec", type=int, default=None,
                   help="evidence-only precision (default: certify at the Sturm index)")
    p.add_argument("--probe", type=int, default=None,
                   help="additionally probe this candidate weight")
    _add_common(p, "json")


def _reproduce_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("example", choices=sorted(REPRODUCTION_EXAMPLES))
    _add_common(p, "json")


def _scan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("conjecture", choices=_statement_choices(scan=True))
    p.add_argument("--p", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--kstar", help="multiple of p-1 above m; default: smallest")
    p.add_argument("--alpha", help="alpha range; default m..m+p")
    p.add_argument("--prec", type=int, default=40)
    _add_common(p, "jsonl")
    _add_budget(p)


# Each subcommand: its help line, the function adding its arguments, its runner
# (args -> its (passed, count, text) runs of records), the frame `main` writes the records in
# (None: --format's), and whether a summary record goes last. series, filtration
# and reproduce each print one JSON line, framed as jsonl for json and jsonl alike.
_COMMANDS = {
    "bernoulli": ("exact Bernoulli numbers", _bernoulli_args, _cmd_bernoulli, None, False),
    "series": ("q-expansions over Z/p^m", _series_args, _cmd_series, "jsonl", False),
    "verify": ("congruence statement grids", _verify_args, _run_tasks, None, False),
    "filtration": ("factor filtration bound of G_k or E_k", _filtration_args, _cmd_filtration,
                   "jsonl", False),
    "reproduce": ("run a bundled reproduction example", _reproduce_args, _cmd_reproduce,
                  "jsonl", False),
    "scan": ("conjecture evidence scans", _scan_args, _run_tasks, None, True),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given a command, only that subcommand gets its arguments.

    Every subcommand is registered with its help line either way, so
    `eiscong --help` and an unknown subcommand print the same text, and a run
    builds the arguments of the one subcommand it parses.
    """
    parser = argparse.ArgumentParser(
        prog="eiscong",
        description="Eisenstein series congruences modulo prime powers: "
                    "exact verification grids and factor-filtration bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, *_) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_arguments(subparser)
    return parser


def _error(err: Exception | str) -> int:
    print(f"error: {err}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Its status is 0 exactly when every record passes, 1 when
    one fails or the reader leaves early, and 2 after an error line on stderr."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    _, _, run, frame, summary = _COMMANDS[args.command]
    cache_path = args.cache or default_cache_path()
    if cache_path:
        try:
            load_bernoulli_cache(cache_path)
        except (EiscongError, OSError, ValueError) as err:
            return _error(err)
        except MemoryError:
            return _error(f"{cache_path}: out of memory loading the cache")
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as err:
        return _error(err)
    try:
        status = 0 if _emit(run(args), frame or args.format, out, summary) else 1
        out.flush()
    except BrokenPipeError:  # the reader left; stdout to devnull, as in Python's SIGPIPE recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    except EiscongError as err:
        status = _error(err)
    except (ValueError, KeyError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        status = 2
    except MemoryError:
        status = _error("out of memory; ask for a smaller range or precision")
    finally:
        if args.out:
            out.close()
    if cache_path:
        try:
            save_bernoulli_cache(cache_path)
        except OSError as err:
            status = _error(err)
    return status


if __name__ == "__main__":
    sys.exit(main())
