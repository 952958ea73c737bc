"""Run one eiscong CLI operation in this (fresh) interpreter and time it.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds "argv" (the CLI arguments), "report" (a file for the timing
report) and "trace" (null, or the operation id to record spans under). The
CLI writes to this process's stdout; the caller captures it.
"""

import sys
import time

import eiscong.cli

IMPORTED_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kib() -> int:
    """High-water resident set size of this process image, in KiB.

    Linux carries ru_maxrss across exec, so it would also count the RSS the
    parent had when it forked this child; VmHWM belongs to this image only.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.loads(sys.argv[1])
    recorder = None
    if spec["trace"] is not None:
        import spans

        recorder = spans.Recorder(spec["trace"])
        spans.install(recorder)
    start_ns = time.monotonic_ns()
    try:
        status = eiscong.cli.main(spec["argv"])
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        status = 70
    sys.stdout.flush()
    end_ns = time.monotonic_ns()
    report = {
        "imported_ns": IMPORTED_NS,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "status": status,
        "peak_rss_kib": peak_rss_kib(),
    }
    if recorder is not None:
        report["layers"] = recorder.summary()
    with open(spec["report"], "w") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
