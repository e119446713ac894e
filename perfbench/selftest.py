"""Self-test of the benchmark harness on a tiny job list.

    python3 perfbench/selftest.py

Checks that

1. every metric BENCHMARK.json names is emitted, with its unit, untraced and
   traced, and that the traced run's outputs match the untraced run's;
2. span self-times, ``cli.self_s`` included, account for the traced pass's
   wall time to within ACCOUNTED_TOLERANCE;
3. a corrupted reference value, an unexpected exit code, a mutated job
   that passes and a traced output one byte off are each reported as a
   failed op (the checker's own mutation control).

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import sys
import time

from check import check_pass
from run import REFERENCE, ROOT, RUN_LIMIT_S, benchmark, identical_outputs, run_client

ACCOUNTED_TOLERANCE = 0.03
WORKLOAD = "selftest"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    verdicts: list[tuple[str, bool, str]] = []

    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        out = benchmark(WORKLOAD, 0, 2, trace, reference)
        metrics = out["result"]["metrics"]
        want = {m["name"]: m["unit"] for m in listed}
        got = {name: m["unit"] for name, m in metrics.items()}
        verdicts.append((f"trace {int(trace)} metric names and units", got == want,
                         f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                         f"unit mismatch {sorted(n for n in want if n in got and got[n] != want[n])}"))
        verdicts.append((f"trace {int(trace)} outputs correct", out["result"]["correct"],
                         "; ".join(out["failures"]) or "no failures"))
        if trace:
            share = metrics["trace.accounted_frac"]["value"]
            verdicts.append(("span self-times account for the traced wall time",
                             abs(1.0 - share) <= ACCOUNTED_TOLERANCE, f"accounted share {share:.4f}"))

    client = run_client({"workload": WORKLOAD, "seed": 0, "seconds": 1, "traced": False, "max_passes": 1},
                        time.monotonic() + RUN_LIMIT_S)
    jobs = client["passes"][0]["jobs"]

    bad_ref = copy.deepcopy(reference)
    green = json.loads(bad_ref["green-boundary"]["stdout"])
    green["value_re"] += 1e-6
    bad_ref["green-boundary"]["stdout"] = json.dumps(green, indent=2, sort_keys=True) + "\n"
    flagged = [jobs[i]["key"] for i, p in check_pass(jobs, 0, bad_ref).items() if p]
    verdicts.append(("corrupted reference value is a failed op", flagged == ["green-boundary"],
                     f"flagged {flagged}"))

    bad_jobs = copy.deepcopy(jobs)
    bad_jobs[0].update(exit_code=1, expected_exit=1)  # verify-n1 posing as a mutated suite
    bad_jobs[1]["exit_code"] = 2
    flagged = [bad_jobs[i]["key"] for i, p in check_pass(bad_jobs, 0, reference).items() if p]
    verdicts.append(("a passing mutated suite and a wrong exit code are failed ops",
                     flagged == [jobs[0]["key"], jobs[1]["key"]], f"flagged {flagged}"))

    altered = copy.deepcopy(client)
    altered["passes"][0]["jobs"][2]["stdout"] += " "
    flagged = sorted(identical_outputs(client, altered))
    verdicts.append(("a traced output that differs by one byte is a failed op", flagged == [2],
                     f"flagged job indexes {flagged}"))

    for name, ok, detail in verdicts:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
