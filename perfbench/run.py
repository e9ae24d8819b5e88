"""Benchmark entry point: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload factored --seed 1 --seconds 24 --trace 0

Run from the root of a checkout that holds `src/eqattn`.  Each rep is a
fresh single process (perfbench/worker.py): one closed-loop client that
runs the workload's commands one after another through `eqattn.cli.main`
with `--jobs 1`.  Reps start until --seconds have passed, so the last one
may end after it.  The last line of stdout is one JSON object:

  --trace 0  end-to-end metrics from untraced reps: wall_s, setup_s,
             pairs_per_s, peak_rss_mb (medians over the reps; setup_s over
             extra set-up-only processes too; times at reference speed,
             see REF_NOMINAL_S);
  --trace 1  per-layer metrics from traced reps, each paired with an
             untraced rep to give trace_overhead.

Every command's exit code and output are checked against pinned verdicts
(workloads.py).  `attempted` counts the commands run and `failed` those whose
exit code, digest or verdicts differ; the share failed is the error rate.
Traced runs also check exact call-count identities.  Spans of the last
traced rep go to .bench_build/perfbench/.  `--profile smoke` runs the same
four paths at toy sizes in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 5   # set-up-only processes per untraced run
# The CPU speed of a shared machine drifts by a third over minutes.  So
# untraced time metrics are reported at a fixed reference speed: scaled by
# REF_NOMINAL_S / the median time of the worker's reference loop, timed in
# a fresh process before every set-up sample and rep of the same run.
REF_NOMINAL_S = 0.18
RUN_LIMIT_S = 170   # a hung rep fails the run before 180 s have passed


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong answer)."""


def run_worker(job, mode, limit, spans=None):
    """(wall seconds from process start to exit, the worker's report).

    job is (profile, workload, seed); the rep is killed at time limit."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, job), mode]
    if spans is not None:
        cmd.append(str(spans))
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=limit - start)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} rep ran past the {RUN_LIMIT_S}s "
                         "limit") from exc
    wall = time.perf_counter() - start
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit {proc.returncode}")
        return wall, json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchError(f"{mode} rep failed ({exc}):\n"
                         f"{proc.stderr.strip()}") from exc


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setups, reps, speed):
    """reps: (wall, report) per untraced rep; times are multiplied by
    speed, the run's reference-speed factor."""
    pps = [sum(c["pairs"] for c in r["commands"])
           / sum(c["seconds"] for c in r["commands"]) for _, r in reps]
    return {
        "wall_s": _metric(median([w for w, _ in reps]) * speed, "s"),
        "setup_s": _metric(median(setups) * speed, "s"),
        "pairs_per_s": _metric(median(pps) / speed, "pairs/s"),
        "peak_rss_mb": _metric(
            median([r["peak_rss_kb"] / 1024 for _, r in reps]), "MB"),
    }


def _layer_rep(report):
    """Per-layer figures of one traced rep, as {name: (value, unit)}."""
    trace = report["trace"]
    stats = trace["stats"]
    out = {}

    def fn(key, *fields):
        calls, _, self_s, _ = stats[key]
        if "calls" in fields:
            out[f"{key}.calls"] = (calls, "count")
        if "self_s" in fields:
            out[f"{key}.self_s"] = (self_s, "s")

    for op in LAYERS["bitnum"]:
        fn(f"bitnum.{op}", "calls", "self_s")
    fn("attn.forward", "calls", "self_s")
    for key in ("token_logits", "encode", "finish_softmax", "mlp_eval"):
        fn(f"attn.{key}", "calls", "self_s")
    fn("commsim.run_protocol", "calls", "self_s")
    for key in ("attn.forward", "commsim.run_protocol"):
        p50, p99 = trace["us"][key]
        out[f"{key}.us_p50"] = (p50, "us")
        out[f"{key}.us_p99"] = (p99, "us")
    fn("quantlab.quantize_spec", "calls", "self_s")
    fn("quantlab.gen_dataset", "self_s")
    fn("quantlab.eval_accuracy", "calls")
    fn("constructs.make", "calls", "self_s")
    fn("constructs.check", "calls")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(s[2] for k, s in stats.items()
                                      if k.split(".")[0] == layer), "s")
    pairs = sum(c["pairs"] for c in report["commands"])
    sequences = stats["attn.token_logits"][0]
    out["oracle.pairs_per_sequence"] = (
        pairs / sequences if sequences else 0.0, "pairs/seq")
    checks, accepts = stats["constructs.check"][0], stats["constructs.check"][3]
    out["constructs.promise_accept_ratio"] = (
        accepts / checks if checks else 0.0, "ratio")
    return out


def per_layer(pairs):
    """pairs: ((untraced wall, report), (traced wall, report)) per rep."""
    reps = [_layer_rep(traced) for _, (_, traced) in pairs]
    metrics = {}
    for name, (value, unit) in reps[0].items():
        if unit == "count":   # exact: every rep must make the same calls
            if any(r[name][0] != value for r in reps):
                raise BenchError(f"{name} differs between traced reps")
        else:
            value = median([r[name][0] for r in reps])
        metrics[name] = _metric(value, unit)
    overhead = median([w for (_, _), (w, _) in pairs]) / \
        median([w for (w, _), _ in pairs])
    metrics["trace_overhead"] = _metric(overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=tuple(workloads.PROFILES),
                    default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "eqattn" / "__init__.py").is_file():
        print(f"error: no eqattn package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    wl = workloads.get(args.profile, args.workload)
    job = (args.profile, args.workload, args.seed)
    limit = time.perf_counter() + RUN_LIMIT_S
    try:
        run_worker(job, "setup", limit)   # warm-up: byte-compiles eqattn
        deadline = time.perf_counter() + args.seconds
        setups, reps, pairs, refs = [], [], [], []
        if args.trace:
            SPAN_DIR.mkdir(parents=True, exist_ok=True)
            spans = SPAN_DIR / f"spans-{'-'.join(map(str, job))}.jsonl"
            while not pairs or time.perf_counter() < deadline:
                pairs.append((run_worker(job, "run", limit),
                              run_worker(job, "trace", limit, spans)))
            reps = [rep for pair in pairs for rep in pair]
            metrics = per_layer(pairs)
        else:
            def ref():
                refs.append(run_worker(job, "ref", limit)[1]["ref_s"])

            for _ in range(SETUP_SAMPLES):
                ref()
                setups.append(run_worker(job, "setup", limit)[1]["setup_s"])
            while not reps or time.perf_counter() < deadline:
                ref()
                reps.append(run_worker(job, "run", limit))
            ref()
            setups += [r["setup_s"] for _, r in reps]
            metrics = end_to_end(setups, reps, REF_NOMINAL_S / median(refs))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [f"{c['argv']}: {p}" for _, r in reps
                for c in r["commands"] for p in c["problems"]]
    problems += [p for _, r in reps for p in r.get("trace", {})
                 .get("identity_problems", ())]
    attempted = sum(len(r["commands"]) for _, r in reps)
    failed = sum(bool(c["problems"]) for _, r in reps for c in r["commands"])
    for p in sorted(set(problems)):
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{wl.name} ({args.profile}) seed={args.seed}: {len(reps)} reps"
          + (" (untraced, traced alternating)" if args.trace else "")
          + (f" and {len(setups)} set-ups" if setups else "")
          + ": wall_s " + " ".join(f"{w:.3f}" for w, _ in reps))
    if refs:
        print(f"  reference loop median {median(refs):.4f} s over "
              f"{len(refs)} passes; raw medians: wall_s "
              f"{median([w for w, _ in reps]):.4f} s, setup_s "
              f"{median(setups):.4f} s")
    untraced = [plain for plain, _ in pairs] if args.trace else reps
    for i, cmd in enumerate(wl.commands):
        seconds = median([r["commands"][i]["seconds"] for _, r in untraced])
        print(f"  {seconds:8.3f} s median  eqattn {' '.join(cmd.argv)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
