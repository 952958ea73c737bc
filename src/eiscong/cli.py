"""Command-line entry points: bernoulli | series | verify | filtration | reproduce | scan.

JSON-lines is the canonical machine format for grid runs; records appear in
input order regardless of worker count, and the exit status is 0 exactly
when every emitted record passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import congruences as cong
from .cache import default_cache_path, load_bernoulli_cache, save_bernoulli_cache
from .congruences import DEFAULT_BERNOULLI_BUDGET
from .eisenstein import delta_series, e_factor, e_series, g_series, monomial_series
from .errors import BudgetExceededError, EiscongError
from .exact import bernoulli, int_str, padic_valuation
from .filtration import factor_filtration_bound, sharpness_probe, sturm_bound
from .golden import REPRODUCTION_EXAMPLES
from .residue import ResidueRing

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


def smallest_kstar_multiple(p: int, m: int) -> int:
    """Smallest multiple of p-1 greater than m."""
    return (m // (p - 1) + 1) * (p - 1)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _flatten_params(params: dict) -> str:
    return ";".join(f"{key}={value}" for key, value in sorted(params.items()))


def _emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "jsonl":
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    elif fmt == "json":
        out.write(json.dumps(records, indent=2, sort_keys=True) + "\n")
    elif fmt == "csv":
        out.write("statement-id,verdict,certification,params,failure-detail\n")
        for record in records:
            detail = json.dumps(record.get("failure-detail")) if record.get("failure-detail") else ""
            out.write(",".join([
                str(record.get("statement-id", "")),
                str(record.get("verdict", "")),
                str(record.get("certification", "")),
                '"' + _flatten_params(record.get("params", {})) + '"',
                '"' + detail.replace('"', "'") + '"',
            ]) + "\n")
    else:  # human
        for record in records:
            params = _flatten_params(record.get("params", {}))
            line = f"{record.get('statement-id', '?'):>10}  {params:<48} {record.get('verdict')}"
            if record.get("failure-detail"):
                line += f"  {record['failure-detail']}"
            out.write(line + "\n")


# ---------------------------------------------------------------------------
# verify / scan task machinery
# ---------------------------------------------------------------------------

_RUNNERS = {
    "thm1.1": lambda t: cong.check_thm_gk(t["p"], t["m"], t["kstar"], t["alpha"], t["prec"]),
    "thm1.2": lambda t: cong.check_thm_ek(t["p"], t["m"], t["alpha"], t["prec"]),
    "prop3.1": lambda t: cong.check_prop_gk_fixed(t["p"], t["m"], t["kstar"], t["alpha"], t["prec"]),
    "prop4.2": lambda t: cong.check_prop_ek_fixed(t["p"], t["m"], t["alpha"], t["prec"]),
    "prop4.1": lambda t: cong.check_bernoulli_prop41(t["p"], t["m"], t["alpha"], t["d"]),
    "eq3.1": lambda t: cong.check_dpower_congruence(t["p"], t["m"], t["alpha"], t["d"]),
    "eq1.4": lambda t: cong.check_eq14(t["p"], t["k"], t["kprime"], t["prec"]),
    "eq1.6": lambda t: cong.check_eq16(t["p"], t["m"], t["k0"], t["prec"]),
    "kummer": lambda t: cong.check_kummer(t["p"], t["r"], t["k"], t["kprime"]),
    "eq6.4": lambda t: cong.scan_conjecture_bernoulli(
        t["p"], t["m"], [t["alpha"]], t["kstar"], t["budget"])[0],
    "eq6.1": lambda t: cong.scan_conjecture_ek_series(
        t["p"], t["m"], t["kstar"], t["alpha"], t["prec"], t["budget"]),
}

STATEMENT_ALIASES = {"thm1": "thm1.1", "thm2": "thm1.2"}


def _bernoulli_demand(task: dict) -> int:
    statement = task["statement"]
    p = task.get("p", 0)
    if statement in ("thm1.1", "prop3.1"):
        return task["alpha"] * (p - 1) + task["kstar"]
    if statement in ("thm1.2", "prop4.2", "prop4.1"):
        return task["alpha"] * (p - 1)
    if statement in ("eq6.4", "eq6.1"):
        return task["alpha"] * (p - 1) + task["kstar"]
    if statement in ("eq1.4", "kummer"):
        return max(task["k"], task["kprime"])
    if statement == "eq1.6":
        return p ** (task["m"] - 1) * (p - 1) + task["k0"]
    if statement == "sun97":
        return task["n"] * (p - 1)
    return 0


def _run_task(task: dict) -> dict:
    statement = task["statement"]
    budget = task.get("budget", DEFAULT_BERNOULLI_BUDGET)
    started = time.monotonic()
    try:
        if _bernoulli_demand(task) > budget:
            raise BudgetExceededError(
                f"Bernoulli index {_bernoulli_demand(task)} exceeds budget {budget}"
            )
        if statement == "sun97":
            report = cong.check_sun97(task["p"], task["n"])[-1]
        elif statement == "identity":
            value = cong.combin_identity_sum(task["m"], task["j"], task["s"], task["alpha"])
            record = {
                "statement-id": "Prop3.2",
                "params": {key: task[key] for key in ("m", "j", "s", "alpha")},
                "verdict": "Pass" if value == 0 else "Fail",
                "failure-detail": None if value == 0 else {"sum": str(value)},
                "certification": "coefficient-evidence",
            }
            return _annotate(record, started, task)
        elif statement == "telescoping":
            ok = (cong.check_telescoping(task["m"], task["j"], task["s"], task["alpha"], task["r"])
                  and cong.check_sum_recurrence(task["m"], task["j"], task["s"], task["alpha"]))
            record = {
                "statement-id": "Eq3.3",
                "params": {key: task[key] for key in ("m", "j", "s", "alpha", "r")},
                "verdict": "Pass" if ok else "Fail",
                "failure-detail": None if ok else {"identity": "telescoping"},
                "certification": "coefficient-evidence",
            }
            return _annotate(record, started, task)
        else:
            report = _RUNNERS[statement](task)
    except BudgetExceededError as err:
        record = {
            "statement-id": statement,
            "params": {k: v for k, v in task.items() if k not in ("statement", "budget", "budget_seconds")},
            "verdict": "BudgetExceeded",
            "failure-detail": {"message": str(err)},
            "certification": "coefficient-evidence",
        }
        return _annotate(record, started, task)
    return _annotate(report.to_json_dict(), started, task)


def _annotate(record: dict, started: float, task: dict) -> dict:
    limit = task.get("budget_seconds")
    if limit is not None:
        elapsed = time.monotonic() - started
        if elapsed > limit:
            record["budget-warning"] = {"elapsed-seconds": round(elapsed, 3), "limit": limit}
    return record


def _validate_task(task: dict) -> None:
    """Cheap precondition checks, run for the whole grid before any computation."""
    statement = task["statement"]
    if statement in ("thm1.1", "prop3.1"):
        cong._validate_gk_args(task["p"], task["m"], task["kstar"], task["alpha"])
    elif statement in ("thm1.2", "prop4.2"):
        cong._validate_ek_args(task["p"], task["m"], task["alpha"])
    elif statement == "prop4.1":
        cong._validate_ek_args(task["p"], task["m"], task["alpha"])
        if task["d"] % task["p"] == 0:
            raise EiscongError(f"d = {task['d']} must be coprime to p = {task['p']}")
    elif statement in ("eq6.4", "eq6.1"):
        cong._validate_kstar_multiple(task["p"], task["m"], task["kstar"])
    elif statement in ("identity", "telescoping"):
        cong._validate_identity_box(task["m"], task["j"], task["s"])


def _run_tasks(tasks: list[dict], jobs: int) -> list[dict]:
    for task in tasks:
        _validate_task(task)
    if jobs <= 1 or len(tasks) <= 1:
        return [_run_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_task, tasks, chunksize=max(1, len(tasks) // (4 * jobs) or 1)))


def _identity_box_tasks(ms: list[int], alphas: list[int], base: dict,
                        telescoping: bool) -> list[dict]:
    tasks = []
    for m in ms:
        for j in range(1, m):
            for s in range(0, m - j):
                for alpha in alphas:
                    if telescoping:
                        for r in range(s, m):
                            tasks.append(dict(base, statement="telescoping",
                                              m=m, j=j, s=s, alpha=alpha, r=r))
                    else:
                        tasks.append(dict(base, statement="identity",
                                          m=m, j=j, s=s, alpha=alpha))
    return tasks


_REQUIRED_FLAGS = {"eq1.4": ("k",), "kummer": ("k",), "eq1.6": ("k0",)}


def _build_verify_tasks(args) -> list[dict]:
    statement = STATEMENT_ALIASES.get(args.statement, args.statement)
    for flag in _REQUIRED_FLAGS.get(statement, ()):
        if getattr(args, flag) is None:
            raise EiscongError(f"statement {statement} requires --{flag}")
    base = {"budget": args.budget_bernoulli, "budget_seconds": args.budget_seconds}
    ps = parse_range(args.p) if args.p else [5]
    ms = parse_range(args.m) if args.m else [1]
    alphas = parse_range(args.alpha) if args.alpha else [0]
    tasks: list[dict] = []
    if statement in ("identity", "telescoping"):
        return _identity_box_tasks(ms, alphas, base, statement == "telescoping")
    for p in ps:
        for m in ms:
            if statement in ("thm1.1", "prop3.1"):
                kstars = parse_range(args.kstar) if args.kstar else [smallest_kstar(p, m)]
                for kstar in kstars:
                    for alpha in alphas:
                        tasks.append(dict(base, statement=statement, p=p, m=m,
                                          kstar=kstar, alpha=alpha, prec=args.prec))
            elif statement in ("thm1.2", "prop4.2"):
                for alpha in alphas:
                    tasks.append(dict(base, statement=statement, p=p, m=m,
                                      alpha=alpha, prec=args.prec))
            elif statement == "prop4.1":
                for alpha in alphas:
                    for d in parse_range(args.d):
                        tasks.append(dict(base, statement=statement, p=p, m=m,
                                          alpha=alpha, d=d))
            elif statement == "eq3.1":
                for alpha in alphas:
                    for d in parse_range(args.d):
                        tasks.append(dict(base, statement=statement, p=p, m=m,
                                          alpha=alpha, d=d))
            elif statement == "eq1.4":
                for k in parse_range(args.k):
                    for alpha in alphas:
                        tasks.append(dict(base, statement=statement, p=p, k=k,
                                          kprime=k + alpha * (p - 1), prec=args.prec))
            elif statement == "eq1.6":
                for k0 in parse_range(args.k0):
                    tasks.append(dict(base, statement=statement, p=p, m=m,
                                      k0=k0, prec=args.prec))
            elif statement == "kummer":
                for k in parse_range(args.k):
                    for alpha in alphas:
                        shift = alpha * p ** (m - 1) * (p - 1)
                        tasks.append(dict(base, statement=statement, p=p, r=m,
                                          k=k, kprime=k + shift))
            elif statement == "sun97":
                for n in range(1, args.n_max + 1):
                    tasks.append(dict(base, statement=statement, p=p, n=n))
            else:
                raise EiscongError(f"unknown statement {statement}")
    return tasks


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_bernoulli(args, out) -> int:
    ks = parse_range(args.k)
    if any(k < 0 for k in ks):
        raise EiscongError("Bernoulli indices must be non-negative")
    primes = parse_range(args.p) if args.p else []
    records = []
    for k in ks:
        value = bernoulli(k)
        record = {"k": k, "value": f"{int_str(value.numerator)}/{int_str(value.denominator)}"}
        for p in primes:
            record[f"nu_{p}"] = str(padic_valuation(value, p))
        records.append(record)
    if args.format in ("json", "jsonl"):
        _emit_raw(records, args.format, out)
    else:
        for record in records:
            extras = "".join(
                f"  nu_{p}={record[f'nu_{p}']}" for p in primes
            )
            out.write(f"{record['k']} {record['value']}{extras}\n")
    return 0


def _emit_raw(records: list[dict], fmt: str, out) -> None:
    if fmt == "jsonl":
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        out.write(json.dumps(records, indent=2, sort_keys=True) + "\n")


def _cmd_series(args, out) -> int:
    ring = ResidueRing(args.p, args.m)
    if args.kind == "g":
        series = g_series(args.k, ring, args.prec)
    elif args.kind == "e":
        series = e_series(args.k, ring, args.prec)
    elif args.kind == "delta":
        series = delta_series(ring, args.prec)
    elif args.kind == "efactor":
        series = e_factor(ring, args.prec).series
    else:  # monomial
        series = monomial_series(args.a, args.b, args.c, ring, args.prec)
    out.write(json.dumps(series.to_json_dict()) + "\n")
    return 0


def _cmd_verify(args, out) -> int:
    tasks = _build_verify_tasks(args)
    records = _run_tasks(tasks, args.jobs)
    _emit(records, args.format, out)
    return 0 if all(r.get("verdict") == "Pass" for r in records) else 1


def _cmd_scan(args, out) -> int:
    statement = {"eq6.4": "eq6.4", "eq6.1": "eq6.1"}[args.conjecture]
    base = {"budget": args.budget_bernoulli, "budget_seconds": args.budget_seconds}
    tasks = []
    for p in parse_range(args.p):
        for m in parse_range(args.m):
            kstar = int(args.kstar) if args.kstar else smallest_kstar_multiple(p, m)
            alphas = parse_range(args.alpha) if args.alpha else list(range(m, m + p + 1))
            for alpha in alphas:
                task = dict(base, statement=statement, p=p, m=m, kstar=kstar, alpha=alpha)
                if statement == "eq6.1":
                    task["prec"] = args.prec
                tasks.append(task)
    records = _run_tasks(tasks, args.jobs)
    passed = sum(1 for r in records if r.get("verdict") == "Pass")
    records.append({"summary": {"pass": passed, "total": len(records)}})
    _emit_raw(records, "jsonl" if args.format == "human" else args.format, out)
    return 0 if passed == len(records) - 1 else 1


def _cmd_filtration(args, out) -> int:
    ring = ResidueRing(args.p, args.m)
    upto = args.prec if args.prec is not None else sturm_bound(args.k)
    if args.form == "G":
        f = g_series(args.k, ring, upto)
    else:
        f = e_series(args.k, ring, upto)
    report = factor_filtration_bound(
        f, args.k, input_id=f"{args.form}_{args.k}",
        upto=args.prec,  # None means certify at the Sturm index
    )
    payload = report.to_json_dict()
    if args.probe is not None:
        outcome = sharpness_probe(f, args.k, args.probe, upto=args.prec)
        payload["probe"] = {
            "weight": args.probe,
            "result": "Solvable" if outcome else "NoSolution",
        }
    out.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_reproduce(args, out) -> int:
    target = REPRODUCTION_EXAMPLES[args.example]
    ring = ResidueRing(target["p"], target["m"])
    k = target["weight"]
    upto = sturm_bound(k)
    f = g_series(k, ring, upto) if target["kind"] == "G" else e_series(k, ring, upto)
    report = factor_filtration_bound(f, k, input_id=f"{target['kind']}_{k}")
    probe = sharpness_probe(f, k, target["sharpness-weight"])
    mismatches = []
    if report.bound_found != target["bound"]:
        mismatches.append(f"bound {report.bound_found} != {target['bound']}")
    if report.witness_exponent != target["witness-exponent"]:
        mismatches.append(
            f"witness exponent {report.witness_exponent} != {target['witness-exponent']}"
        )
    if list(report.witness_monomials) != [tuple(t) for t in target["monomials"]]:
        mismatches.append(f"monomials {report.witness_monomials} != {target['monomials']}")
    if list(report.witness_coeffs) != list(target["coefficients"]):
        for i, (got, want) in enumerate(zip(report.witness_coeffs, target["coefficients"])):
            if got != want:
                mismatches.append(f"coefficient[{i}] {got} != {want}")
    if report.certified_coefficients != target["certified-coefficients"]:
        mismatches.append(
            f"certified {report.certified_coefficients} != {target['certified-coefficients']}"
        )
    if probe:
        mismatches.append(f"sharpness probe at {target['sharpness-weight']} was solvable")
    payload = report.to_json_dict()
    payload["sharpness-probe"] = {
        "weight": target["sharpness-weight"],
        "result": "Solvable" if probe else "NoSolution",
    }
    payload["match"] = not mismatches
    payload["mismatches"] = mismatches
    out.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0 if not mismatches else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--format", choices=("json", "jsonl", "csv", "human"),
                        default=default_format)
    parser.add_argument("--cache", help="Bernoulli cache file (load before, append after)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes for grid runs")
    parser.add_argument("--budget-bernoulli", type=int, default=DEFAULT_BERNOULLI_BUDGET,
                        help="largest Bernoulli index a task may demand")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="soft per-record wall-time limit (annotates records)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eiscong",
        description="Eisenstein series congruences modulo prime powers: "
                    "exact verification grids and factor-filtration bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bern = sub.add_parser("bernoulli", help="exact Bernoulli numbers")
    p_bern.add_argument("k", help="index or range, e.g. 12 or 0..30")
    p_bern.add_argument("--p", help="prime(s): add p-adic valuation columns")
    _add_common(p_bern, "human")

    p_series = sub.add_parser("series", help="q-expansions over Z/p^m")
    p_series.add_argument("kind", choices=("g", "e", "delta", "efactor", "monomial"))
    p_series.add_argument("--k", type=int, default=0, help="weight for g/e")
    p_series.add_argument("--a", type=int, default=0)
    p_series.add_argument("--b", type=int, default=0)
    p_series.add_argument("--c", type=int, default=0)
    p_series.add_argument("--p", type=int, required=True)
    p_series.add_argument("--m", type=int, default=1)
    p_series.add_argument("--prec", type=int, default=20)
    _add_common(p_series, "json")

    p_verify = sub.add_parser("verify", help="congruence statement grids")
    p_verify.add_argument("statement", choices=(
        "thm1", "thm1.1", "thm2", "thm1.2", "prop3.1", "prop4.1", "prop4.2",
        "eq3.1", "eq1.4", "eq1.6", "kummer", "sun97", "identity", "telescoping"))
    p_verify.add_argument("--p", help="prime or range")
    p_verify.add_argument("--m", help="modulus exponent(s); for kummer this is r")
    p_verify.add_argument("--kstar", help="base weight(s); default: smallest valid")
    p_verify.add_argument("--alpha", help="alpha range; for eq1.4/kummer the shift count")
    p_verify.add_argument("--k", help="weight(s) for eq1.4/kummer")
    p_verify.add_argument("--k0", help="base weight(s) for eq1.6")
    p_verify.add_argument("--d", default="2,3,6", help="d values for prop4.1/eq3.1")
    p_verify.add_argument("--n-max", type=int, default=8, help="max n for sun97")
    p_verify.add_argument("--prec", type=int, default=50)
    _add_common(p_verify, "jsonl")

    p_filt = sub.add_parser("filtration", help="factor filtration bound of G_k or E_k")
    p_filt.add_argument("--form", choices=("G", "E"), default="G")
    p_filt.add_argument("--k", type=int, required=True)
    p_filt.add_argument("--p", type=int, required=True)
    p_filt.add_argument("--m", type=int, required=True)
    p_filt.add_argument("--prec", type=int, default=None,
                        help="evidence-only precision (default: certify at the Sturm index)")
    p_filt.add_argument("--probe", type=int, default=None,
                        help="additionally probe this candidate weight")
    _add_common(p_filt, "json")

    p_repro = sub.add_parser("reproduce", help="run a bundled reproduction example")
    p_repro.add_argument("example", choices=sorted(REPRODUCTION_EXAMPLES))
    _add_common(p_repro, "json")

    p_scan = sub.add_parser("scan", help="conjecture evidence scans")
    p_scan.add_argument("conjecture", choices=("eq6.1", "eq6.4"))
    p_scan.add_argument("--p", required=True)
    p_scan.add_argument("--m", required=True)
    p_scan.add_argument("--kstar", help="multiple of p-1 above m; default: smallest")
    p_scan.add_argument("--alpha", help="alpha range; default m..m+p")
    p_scan.add_argument("--prec", type=int, default=40)
    _add_common(p_scan, "jsonl")

    return parser


_COMMANDS = {
    "bernoulli": _cmd_bernoulli,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "filtration": _cmd_filtration,
    "reproduce": _cmd_reproduce,
    "scan": _cmd_scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_path = args.cache or default_cache_path()
    if cache_path:
        try:
            load_bernoulli_cache(cache_path)
        except (EiscongError, OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        status = _COMMANDS[args.command](args, out)
    except EiscongError as err:
        print(f"error: {err}", file=sys.stderr)
        status = 2
    except (ValueError, KeyError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        status = 2
    finally:
        if args.out:
            out.close()
    if cache_path:
        save_bernoulli_cache(cache_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
