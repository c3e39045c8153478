"""Record the digests the correctness gate expects for the default seed.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: for every verify workload, the
digest of the reports of each of its first ``CYCLES`` call cycles with
seed 0, and for the CLI mix the exit code and stdout digest of every
call.  F_p workloads record the reports of the same calls run over Q,
since the two must be byte-identical.  Re-record only for a
change that is meant to alter reports or CLI output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import SRC, WORK

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from zeroreg import harness  # noqa: E402

# at least three times the cycles a 25-second run reaches
CYCLES = 80


def main() -> int:
    seed = workloads.DEFAULT_SEED
    out = {"verify": {}, "cli": {}}
    for workload, (_, mix) in workloads.VERIFY_MIXES.items():
        out["verify"][workload] = [
            workloads.cycle_digest([harness.run_suite(*call)
                                    for call in workloads.cycle_calls(mix, seed, cycle)])
            for cycle in range(CYCLES)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workdir = WORK / ("record-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for i, call in enumerate(workloads.build_cli_mix(seed, str(workdir))):
            proc = subprocess.run([sys.executable, "-m", "zeroreg"] + call.argv, env=env,
                                  capture_output=True, text=True, timeout=170)
            if (proc.returncode, proc.stdout) != (call.code, call.stdout):
                raise SystemExit("subprocess and in-process runs of %s disagree" % call.argv)
            out["cli"][workloads.mix_key(i, call)] = [call.code, workloads.digest(call.stdout)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = Path(__file__).with_name("expected.json")
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
