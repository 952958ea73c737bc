"""eiscong benchmark: cold CLI operations, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --record-references

One operation is one `eiscong.cli.main(argv)` call in a fresh interpreter
(`child.py`), with `--jobs 1` and without `EISCONG_BERNOULLI_CACHE`. One
closed-loop client runs one operation at a time. A workload is a cycle of
argvs; the seed shuffles the order inside each cycle. A run repeats whole
cycles until `--seconds` have passed and at least the workload's `min_ops`
operations are done, so that `op_tail_s` (the highest percentile with at
least ten samples above it) always exists and sits at the same rank.

Every operation must pass the correctness gate: exit status 0, every
record's verdict "Pass", `"match": true` for reproduce, and output bytes
whose SHA-256 equals the reference recorded in `reference.json`.

Timings are scaled to a reference machine speed measured between
operations (see REFERENCE_KERNEL_S); the unscaled values stay in the report.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` each argv runs once untraced and once traced per cycle, and the
last line carries the per-layer metrics of the traced operations (counts
per cycle, self times as the median over cycles).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCES = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"

# No new cycle starts after this many seconds, and no operation may run past
# OP_DEADLINE_S, so a run ends well inside 180 s even if the program slows.
LOOP_CAP_S = 120
OP_DEADLINE_S = 150
TAIL_ABOVE = 10

# On a shared virtual machine the speed of the same code drifts by up to
# ±30% over seconds to minutes (other tenants share its cores), more than a
# half-minute run averages out. So every timing is scaled to a reference
# speed: the harness times a fixed kernel (calibrate) on the same pinned CPU
# between operations, and a time t measured next to kernel time k is
# reported as t * REFERENCE_KERNEL_S / k. Raw wall times stay in the report.
KERNEL_REPS = 20
REFERENCE_KERNEL_S = 0.020

SCAN = ["scan", "eq6.4", "--p", "7", "--m", "4", "--kstar", "6"]

WORKLOADS = {
    "filtration-cold": {
        "why": "headline computation: one large Bernoulli index, then large series products "
               "and the only filtration searches; exact, series and filtration all move it",
        "cycle": [
            ["reproduce", "paper-7-8"],
            ["reproduce", "paper-17-6"],
            ["filtration", "--form", "G", "--k", "2402", "--p", "13", "--m", "6"],
        ],
        "min_ops": 24,
    },
    "thm-grid": {
        "why": "many small series products (precision 60, moduli up to 15 bits) and divisor "
               "sums; where a packing overhead in series.mul would show",
        "cycle": [
            ["verify", "thm1", "--p", "5,7,11,13", "--m", "1..4", "--alpha", "0..30",
             "--prec", "60"],
            ["verify", "thm2", "--p", "5,7,11,13", "--m", "1..4", "--alpha", "1..30",
             "--prec", "60"],
        ],
        "min_ops": 20,
    },
    "bernoulli-scan": {
        "why": "about 200 ascending Bernoulli misses after a cache read, then a cache append; "
               "a per-index Bernoulli method must not lose here; series does not run",
        "cycle": [SCAN + ["--alpha", "0..300", "--format", "jsonl"],
                  SCAN + ["--alpha", "0..300", "--format", "json"]],
        "template": SCAN + ["--alpha", "0..100"],
        "min_ops": 18,
    },
    "identity-box": {
        "why": "integer binomials plus CLI dispatch and JSON output, no Bernoulli, series or "
               "filtration: kernel changes should not move it, CLI changes should",
        "cycle": [
            ["verify", "identity", "--m", "2..12", "--alpha", "0..40"],
            ["verify", "telescoping", "--m", "2..8", "--alpha", "0..20"],
        ],
        "min_ops": 40,
    },
}

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
]


def _per_layer() -> list[tuple[str, str]]:
    out = []

    def add(prefix, *quantities):
        for quantity in quantities:
            unit = {"self_s": "s", "max_index": "index", "max_precision": "index",
                    "useful_ratio": "ratio"}.get(quantity, "count")
            out.append((f"{prefix}.{quantity}", unit))

    add("exact.bernoulli", "calls", "misses", "max_index", "self_s")
    add("exact.sigma_power_mod", "calls", "self_s")
    add("exact.binomial", "calls", "self_s")
    add("residue.reduce_rational", "calls", "self_s")
    add("series.mul", "calls", "coeff_products", "max_precision", "self_s")
    add("series.pow", "calls", "self_s")
    add("series.linear", "calls", "self_s")
    add("series.equal_mod", "calls", "self_s")
    add("eisenstein.series", "calls", "misses", "self_s")
    add("eisenstein.monomial", "calls", "misses", "self_s")
    add("filtration.bound", "calls", "self_s")
    add("filtration.basis", "calls", "self_s")
    add("filtration.probe", "calls", "self_s")
    add("filtration.solve", "calls", "solved", "self_s", "useful_ratio")
    add("congruences.check", "calls", "self_s")
    add("congruences.identity", "self_s")
    add("cache.load", "entries", "self_s")
    add("cache.save", "appended", "self_s")
    add("cli.main", "self_s")
    out.append(("cli.records", "count"))
    out.append(("trace.overhead_s", "s"))
    return out


PER_LAYER = _per_layer()
# Per-cycle values that are a maximum, not a sum, over the cycle's operations.
PEAK_KEYS = {"exact.bernoulli.max_index", "series.mul.max_precision"}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def count_checked_records(argv: list[str], data: bytes) -> int:
    """Parse an operation's output and check every verdict; returns records.

    Raises ValueError naming the first violation.
    """
    text = data.decode()
    if argv[0] in ("reproduce", "filtration"):
        payload = json.loads(text)
        if argv[0] == "reproduce" and payload.get("match") is not True:
            raise ValueError(f"reproduce mismatch: {payload.get('mismatches')}")
        return 1
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        objects = json.loads(text)
    else:
        objects = [json.loads(line) for line in text.splitlines()]
    records = [obj for obj in objects if "summary" not in obj]
    for record in records:
        if record.get("verdict") != "Pass":
            raise ValueError(f"verdict {record.get('verdict')!r} for {record.get('params')}")
    for obj in objects:
        if "summary" in obj and obj["summary"] != {"pass": len(records), "total": len(records)}:
            raise ValueError(f"summary {obj['summary']} over {len(records)} records")
    if not records:
        raise ValueError("no records")
    return len(records)


def gate(argv: list[str], status: int, data: bytes, references: dict | None) -> tuple[int, str | None]:
    """(records, None) when the operation passes, else (0, reason)."""
    if status != 0:
        return 0, f"exit status {status}"
    try:
        records = count_checked_records(argv, data)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        return 0, f"output check: {err}"
    if references is not None:
        expected = references.get(argv_key(argv))
        if expected is None:
            return 0, "no reference output recorded"
        if hashlib.sha256(data).hexdigest() != expected["sha256"]:
            return 0, "output differs from the reference"
    return records, None


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _kernel() -> int:
    """Fixed work like eiscong's: a small-int series product and big-int updates."""
    modulus = 7 ** 8
    coeffs = list(range(1, 122))
    product = [0] * 121
    for i, a in enumerate(coeffs):
        for j in range(121 - i):
            product[i + j] += a * coeffs[j]
    x = 3 ** 20000
    for k in range(60):
        x = x * (k + 7) + x
    return sum(c % modulus for c in product) + x % modulus


def calibrate() -> float:
    """Seconds the kernel takes KERNEL_REPS times, on this process's CPU."""
    started = time.perf_counter()
    for _ in range(KERNEL_REPS):
        _kernel()
    return time.perf_counter() - started


def pin_to_one_cpu() -> int | None:
    """Run this process and its children on one CPU, so the kernel and the
    operations it calibrates share it; returns the CPU, or None."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Runner:
    """Spawns one child per operation inside a private work directory."""

    def __init__(self, work: Path, references: dict | None):
        self.work = work
        self.references = references
        self.cache_template: Path | None = None
        self.cache_file = work / "bernoulli-cache.txt"
        self.env = dict(os.environ)
        self.env.pop("EISCONG_BERNOULLI_CACHE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.deadline = time.monotonic() + OP_DEADLINE_S
        self.kernel_s = calibrate()

    def run(self, argv: list[str], trace_id: int | None = None, cache: Path | None = None) -> dict:
        """One cold operation; returns its timings, records and gate verdict."""
        full = list(argv) + ["--jobs", "1"]
        if self.cache_template is not None and cache is None:
            shutil.copyfile(self.cache_template, self.cache_file)
            cache = self.cache_file
        if cache is not None:
            full += ["--cache", str(cache)]
        out_path = self.work / "stdout"
        report_path = self.work / "report.json"
        report_path.unlink(missing_ok=True)
        spec = json.dumps({"argv": full, "report": str(report_path), "trace": trace_id})
        timeout = max(1.0, self.deadline - time.monotonic())
        with out_path.open("wb") as out:
            spawned_ns = time.monotonic_ns()
            proc = subprocess.Popen([sys.executable, str(CHILD), spec], stdout=out,
                                    stderr=subprocess.PIPE, env=self.env, cwd=self.work)
            try:
                _, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return {"ok": False, "reason": "timed out", "argv": argv, "timed_out": True}
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            reason = err.decode(errors="replace").strip().splitlines()[-1:] or ["no report"]
            return {"ok": False, "reason": f"child failed: {reason[0]}", "argv": argv}
        data = out_path.read_bytes()
        records, reason = gate(argv, report["status"], data, self.references)
        if reason is not None and err.strip():
            reason += f" ({err.decode(errors='replace').strip().splitlines()[-1]})"
        kernel_before, self.kernel_s = self.kernel_s, calibrate()
        kernel_s = (kernel_before + self.kernel_s) / 2
        return {
            "ok": reason is None,
            "reason": reason,
            "argv": argv,
            "setup_s": (report["imported_ns"] - spawned_ns) / 1e9,
            "op_s": (report["end_ns"] - report["start_ns"]) / 1e9,
            "scale": REFERENCE_KERNEL_S / kernel_s,
            "kernel_s": kernel_s,
            "records": records,
            "peak_rss_kib": report["peak_rss_kib"],
            "layers": report.get("layers"),
            "sha256": hashlib.sha256(data).hexdigest(),
        }


def prepare(runner: Runner, workload: dict) -> None:
    """Untimed set-up: compile bytecode, and write the scan's cache template."""
    runner.run(["bernoulli", "12"])
    if "template" in workload:
        template = runner.work / "cache-template.txt"
        result = runner.run(workload["template"], cache=template)
        if not result["ok"]:
            raise SystemExit(f"cache template: {result['reason']}")
        runner.cache_template = template


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> float:
    """Highest order statistic with TAIL_ABOVE samples above it (the maximum
    when there are too few samples)."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_ABOVE:
        return ordered[-1]
    return ordered[len(ordered) - TAIL_ABOVE - 1]


def tail_percentile(n: int) -> float:
    """The percentile `tail` picks out of n samples."""
    return 100.0 if n <= TAIL_ABOVE else 100.0 * (n - TAIL_ABOVE) / n


def _timings(ops: list[dict], scaled: bool) -> dict:
    setups = [op["setup_s"] * (op["scale"] if scaled else 1) for op in ops]
    times = [op["op_s"] * (op["scale"] if scaled else 1) for op in ops]
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times),
        "records_per_s": sum(op["records"] for op in ops) / sum(times),
    }


def end_to_end(ops: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over passing operations, and their sample counts.

    Times are scaled to the reference speed; the raw wall-clock values and
    the kernel times behind the scaling are returned with the samples.
    """
    good = [op for op in ops if op["ok"]]
    if not good:
        return {}, {}
    values = _timings(good, scaled=True)
    values["peak_rss_mib"] = max(op["peak_rss_kib"] for op in good) / 1024
    by_argv: dict = {}
    for op in good:
        by_argv.setdefault(argv_key(op["argv"]), []).append(op["op_s"] * op["scale"])
    n = len(good)
    samples = {
        "setup_s": {"median_of": n},
        "op_p50_s": {"median_of": n},
        "op_tail_s": {"samples": n, "above": min(TAIL_ABOVE, n - 1),
                      "percentile": round(tail_percentile(n), 1)},
        "records_per_s": {"records": sum(op["records"] for op in good), "operations": n},
        "peak_rss_mib": {"max_of": n},
        "op_s_by_argv": {key: {"median": statistics.median(group), "n": len(group)}
                         for key, group in by_argv.items()},
        "unscaled": _timings(good, scaled=False),
        "kernel_s": {"median": statistics.median(op["kernel_s"] for op in good),
                     "reference": REFERENCE_KERNEL_S},
    }
    return values, samples


def per_layer(cycles: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from per-cycle sums; counts must repeat exactly."""
    values, samples = {}, {}
    for name, unit in PER_LAYER:
        if name == "filtration.solve.useful_ratio":
            continue
        series = [cycle.get(name, 0) for cycle in cycles]
        if unit == "s":
            values[name] = statistics.median(series)
            samples[name] = {"median_of_cycles": len(series)}
        else:
            values[name] = series[0]
            samples[name] = {"cycles": len(series), "identical": len(set(series)) == 1}
    solves = values["filtration.solve.calls"]
    found = cycles[0].get("filtration.bound.found", 0)
    values["filtration.solve.useful_ratio"] = found / solves if solves else 0.0
    samples["filtration.solve.useful_ratio"] = {"bounds_found": found, "solve_calls": solves}
    return values, samples


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    revision = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                      capture_output=True, text=True, timeout=10,
                                      check=True).stdout.strip()
        except (subprocess.SubprocessError, OSError):
            revision = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "eiscong").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
    }


def traced_cycle(runner: Runner, order: list, rng: random.Random, first_id: int) -> tuple[list, dict | None]:
    """Each argv once untraced and once traced, in seeded order.

    Returns the operations and the cycle's per-layer sums, or None for the
    sums when an operation failed.
    """
    ops, cycle = [], {}
    for argv in order:
        pair = [None, first_id + len(ops)]
        rng.shuffle(pair)
        by_mode = {}
        for trace_id in pair:
            result = runner.run(argv, trace_id=trace_id)
            ops.append(result)
            by_mode[trace_id is not None] = result
        traced, plain = by_mode[True], by_mode[False]
        if not (traced["ok"] and plain["ok"]):
            return ops, None
        for key, value in traced["layers"].items():
            if key.endswith("_s"):
                value *= traced["scale"]
            merge = max if key in PEAK_KEYS else (lambda a, b: a + b)
            cycle[key] = merge(cycle.get(key, 0), value)
        cycle["cli.records"] = cycle.get("cli.records", 0) + traced["records"]
        overhead = traced["op_s"] * traced["scale"] - plain["op_s"] * plain["scale"]
        cycle["trace.overhead_s"] = cycle.get("trace.overhead_s", 0) + overhead
    return ops, cycle


def run_workload(name: str, seed: int, seconds: int, trace: bool, references: dict) -> dict:
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    info = provenance(seed)
    info["loadavg_before"] = list(os.getloadavg())
    info["cpu"] = pin_to_one_cpu()
    ops, cycles, completed = [], [], 0
    try:
        runner = Runner(work, references)
        prepare(runner, workload)
        started = time.monotonic()
        while True:
            elapsed = time.monotonic() - started
            enough = completed >= 2 if trace else len(ops) >= workload["min_ops"]
            if ((elapsed >= seconds and enough) or elapsed >= LOOP_CAP_S
                    or any(op.get("timed_out") for op in ops)):
                break
            order = list(workload["cycle"])
            rng.shuffle(order)
            if trace:
                cycle_ops, cycle = traced_cycle(runner, order, rng, len(ops) + 1)
                if cycle is not None:
                    cycles.append(cycle)
            else:
                cycle_ops = [runner.run(argv) for argv in order]
            ops += cycle_ops
            completed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["loadavg_after"] = list(os.getloadavg())
    failed = [op for op in ops if not op["ok"]]
    if trace:
        values, samples = per_layer(cycles) if cycles else ({}, {})
        units = dict(PER_LAYER)
    else:
        values, samples = end_to_end(ops)
        units = dict(END_TO_END)
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units if key in values}
    return {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": info,
        "cycles": completed,
        "attempted": len(ops),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(ops) if ops else 1.0,
        "failures": sorted({f"{argv_key(op['argv'])}: {op['reason']}" for op in failed})[:10],
        "samples": samples,
        "metrics": metrics,
        "correct": bool(ops) and not failed and len(metrics) == len(units),
    }


def print_table(result: dict) -> None:
    info = result["provenance"]
    print(f"# {result['workload']}  trace={result['trace']}  seed={info['seed']}  "
          f"operations={result['attempted']}  cycles={result['cycles']}  "
          f"nproc={info['nproc']}  python={info['python']}  "
          f"rev={(info['git_revision'] or info['src_sha256'])[:12]}  "
          f"load={info['loadavg_before'][0]:.2f}->{info['loadavg_after'][0]:.2f}")
    for name, metric in result["metrics"].items():
        detail = ", ".join(f"{k}={v}" for k, v in result["samples"].get(name, {}).items())
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']:<6} {detail}")
    print(f"  {'fail_ratio':<36} {result['fail_ratio']:>14.6g} {'ratio':<6} "
          f"failed={result['failed']}, attempted={result['attempted']}")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")


def record_references() -> None:
    """Write reference.json: the output digest of every argv the workloads run."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=WORK))
    references = {}
    try:
        for workload in WORKLOADS.values():
            runner = Runner(work, None)
            prepare(runner, workload)
            argvs = list(workload["cycle"]) + ([workload["template"]] if "template" in workload else [])
            for argv in argvs:
                cache = work / "scratch-cache.txt" if argv is workload.get("template") else None
                if cache is not None:
                    cache.unlink(missing_ok=True)
                result = runner.run(argv, cache=cache)
                if not result["ok"]:
                    raise SystemExit(f"{argv_key(argv)}: {result['reason']}")
                references[argv_key(argv)] = {"sha256": result["sha256"], "records": result["records"]}
                print(f"{result['records']:>6} records  {result['sha256'][:16]}  {argv_key(argv)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="record the output digests of this commit and exit")
    args = parser.parse_args(argv)
    if not (SRC / "eiscong" / "cli.py").is_file():
        print(f"error: no eiscong source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.record_references:
        record_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        references = json.loads(REFERENCES.read_text())
    except (OSError, ValueError) as err:
        print(f"error: cannot read {REFERENCES.name}: {err}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), references)
        print_table(result)
        print(json.dumps({"report": result}, sort_keys=True))
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{key}": value for r in results for key, value in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
