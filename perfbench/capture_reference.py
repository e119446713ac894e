"""Capture the seed-0 reference outputs that check.py compares against.

    python3 perfbench/capture_reference.py

Runs one untraced pass of every workload at seed 0 and writes each job's
argv, exit code and stdout to ``reference/seed0.json``.  Run it only on a
commit whose outputs are known good: later runs are judged against it.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCE, RUN_LIMIT_S, run_client
from workloads import WORKLOADS


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        spec = {"workload": workload, "seed": 0, "seconds": 1, "traced": False, "max_passes": 1}
        client = run_client(spec, time.monotonic() + RUN_LIMIT_S)
        for job in client["passes"][0]["jobs"]:
            if job["error"] or job["exit_code"] != job["expected_exit"]:
                print(f"{job['key']}: unexpected outcome, reference not written", file=sys.stderr)
                return 1
            reference[job["key"]] = {k: job[k] for k in ("argv", "exit_code", "stdout")}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} reference outputs to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
