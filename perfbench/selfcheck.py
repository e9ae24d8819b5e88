"""The benchmark's own tests, on the smoke profile (a few seconds).

    python3 perfbench/selfcheck.py

For each workload, untraced and traced, runs run.py at toy sizes and checks
that the result line has the contract's keys, that the correctness gate and
the call-count identities pass, and that the metric names and units are
exactly those BENCHMARK.json declares.  Then checks that run.py fails,
printing no result, in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_result(proc, declared) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != KEYS:
        problems.append(f"result keys {sorted(res)}")
    if not (res["correct"] is True and res["failed"] == 0
            and isinstance(res["attempted"], int) and res["attempted"] >= 1):
        problems.append(f"gate: {res['correct']=} {res['attempted']=} "
                        f"{res['failed']=}\n{proc.stderr.strip()}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"extra {sorted(set(got) - set(want))}, missing "
                        f"{sorted(set(want) - set(got))}, units "
                        f"{sorted(k for k in got.keys() & want.keys() if got[k] != want[k])}")
    for k, v in res["metrics"].items():
        if set(v) != {"value", "unit"} or isinstance(v["value"], bool) or \
                not isinstance(v["value"], (int, float)):
            problems.append(f"{k}: {v}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = run(ROOT, "--profile", "smoke", "--workload", name,
                       "--seconds", "1", "--trace", str(trace))
            problems = check_result(
                proc, bench["per_layer" if trace else "end_to_end"])
            print(f"{name} trace={trace}: "
                  + ("ok" if not problems else "FAILED"))
            failures += [f"{name} trace={trace}: {p}" for p in problems]

    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", workloads.NAMES[0], "--seconds", "1")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without src/ run.py exited {proc.returncode} "
                        f"printing {proc.stdout.strip()!r}")
    print("bare benchmark directory: "
          + ("fails as required" if proc.returncode else "FAILED"))

    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
