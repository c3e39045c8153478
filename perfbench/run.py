"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload verify-hilbert --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository: the package is
imported from the checkout's ``src`` directory, never from an installed
copy.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics, times in reference seconds (see workloads.py); with
``--trace 1`` it holds the per-layer metrics of a traced replay.  The
line before it stamps the machine, its load and the raw, unscaled
end-to-end figures.
Exit status 2 means the checkout holds no ``src/zeroreg`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

NOISE = ("shared machine: no CPU pinning, no cache dropping, no frequency control; "
         "other tenants may run, see the load averages")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _stamp(args, load_before, wall):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "loadavg_before": load_before, "loadavg_after": list(os.getloadavg()),
        "wall_s": wall, "noise": NOISE,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-hilbert", "verify-projection", "verify-fp", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zeroreg" / "__init__.py").is_file():
        print("error: no zeroreg package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    started = time.perf_counter()
    load_before = list(os.getloadavg())
    expected = workloads.load_expected(Path(__file__).with_name("expected.json"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if args.workload == "cli":
        workdir = WORK / ("perfbench-%d" % os.getpid())
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            metrics, raw, attempted, failed, ok = workloads.run_cli(
                args.seed, args.seconds, args.trace, expected, str(workdir), env)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        metrics, raw, attempted, failed, ok = workloads.run_verify(
            args.workload, args.seed, args.seconds, args.trace, expected)
    if not args.trace:
        setup_s, raw_setup_s = workloads.measure_setup(env)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        raw["setup_s"] = {"value": raw_setup_s, "unit": "s"}
    stamp = _stamp(args, load_before, time.perf_counter() - started)
    stamp["raw_metrics"] = raw
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
