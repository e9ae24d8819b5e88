"""One benchmark rep in a fresh process.

    python3 perfbench/worker.py PROFILE WORKLOAD SEED MODE [SPANS_PATH]

MODE is `ref` (time the reference loop only), `setup` (import eqattn and
build the workload's specs, then stop), `run` (set up, then run every
command through `eqattn.cli.main`) or `trace` (as run, with the outside-in
tracer installed after set-up; its spans go to SPANS_PATH).  Prints one
JSON object on stdout.  The commands' own output is
captured, digested and checked against the pinned verdicts here.
"""

import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def reference_loop() -> float:
    """Seconds for a fixed stdlib-only loop shaped like eqattn's work (exact
    Fraction arithmetic, small calls): a gauge of the machine's current
    speed that no change to the program can move."""
    from fractions import Fraction

    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(12000):
        acc = (acc + Fraction(i % 7 + 1, 1 << (i % 9))) / 2
    return time.perf_counter() - start


def build_specs(argv) -> list:
    """Every spec one command evaluates, built through the public builders:
    constructs.make, oracle.precision_delta_spec, quantlab.quantize_spec."""
    from eqattn import constructs, oracle, quantlab
    from eqattn.bitnum import FxFormat

    def quant_format(spec, token):
        """A --formats entry: a preset, or native[+-k] bits relative to the
        spec's own numerator format."""
        if not token.startswith("native"):
            return quantlab.parse_quant_format(token)
        delta = int(token[len("native"):] or 0)
        fmt = spec.num_fmt
        if isinstance(fmt, FxFormat):
            return quantlab.int_format(fmt.p + delta)
        return quantlab.float_format(fmt.e, fmt.t - 1 + delta)

    opts = dict(zip(argv[1::2], argv[2::2]))
    if "--ms" in opts:
        sizes = [{"m": int(m)} for m in opts["--ms"].split(",")]
    elif "--m" in opts:
        sizes = [{"m": int(opts["--m"])}]
    else:
        sizes = [{"t": int(opts["--t"]), "e": int(opts["--e"])}]
    specs = []
    for size in sizes:
        spec, _ = constructs.make(opts["--construction"], **size)
        if argv[0] == "quantize":
            specs += [quantlab.quantize_spec(spec, quant_format(spec, tok))
                      for tok in opts["--formats"].split(",")]
        else:
            specs.append(oracle.precision_delta_spec(
                spec, int(opts.get("--precision-delta", 0))))
    return specs


def main(argv) -> int:
    profile, name, seed, mode = argv[1], argv[2], int(argv[3]), argv[4]
    if mode == "ref":
        print(f'{{"ref_s": {reference_loop()!r}}}')
        return 0
    import workloads
    wl = workloads.get(profile, name)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import eqattn.cli
    n_specs = sum(len(build_specs(cmd.argv)) for cmd in wl.commands)
    setup_s = time.perf_counter() - start

    import contextlib
    import hashlib
    import io
    import json
    import resource
    result = {"setup_s": setup_s, "specs": n_specs}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    commands = []
    for cmd in wl.commands:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = eqattn.cli.main([*cmd.argv, "--seed", str(seed),
                                    "--jobs", "1"])
        seconds = time.perf_counter() - t0
        stdout = out.getvalue()
        pairs, failures, problems = workloads.check_verdict(cmd, stdout)
        if code != cmd.exit_code:
            problems.append(f"exit {code}, pinned {cmd.exit_code}")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if (not cmd.seeded or seed == workloads.DEFAULT_SEED) and \
                digest != cmd.sha256:
            problems.append(f"stdout sha256 {digest}, pinned {cmd.sha256}")
        commands.append({"argv": " ".join(cmd.argv), "seconds": seconds,
                         "pairs": pairs, "failures": failures,
                         "problems": problems})
    result["commands"] = commands
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        want = workloads.expected_forward_calls(
            wl, [(c["pairs"], c["failures"]) for c in commands])
        result["trace"] = summarize(tracer, wl, want, n_specs)
        if len(argv) > 5:
            tracer.write_spans(argv[5], f"{profile}-{name}-seed{seed}")
    print(json.dumps(result))
    return 0


def percentiles(values) -> list:
    """[p50, p99] by nearest rank; [0, 0] when nothing was recorded."""
    if not values:
        return [0.0, 0.0]
    values = sorted(values)
    return [values[math.ceil(q * len(values)) - 1] for q in (0.50, 0.99)]


def summarize(tracer, wl, forward_calls: int, n_specs: int) -> dict:
    """Per-function figures plus the exact call-count identities."""
    stats = tracer.stats
    calls = {k: s.calls for k, s in stats.items()}
    out = {"stats": {k: [s.calls, s.total_s, s.self_s, s.accepts]
                     for k, s in stats.items()},
           "us": {k: percentiles(tracer.durations_us(k))
                  for k in ("attn.forward", "commsim.run_protocol")}}
    identities = [("attn.forward.calls", calls["attn.forward"],
                   forward_calls)]
    if wl.name == "protocol":
        identities.append(("commsim.run_protocol.calls",
                           calls["commsim.run_protocol"], forward_calls))
    if wl.name == "quantize":
        identities.append(("quantlab.quantize_spec.calls",
                           calls["quantlab.quantize_spec"], n_specs))
    out["identity_problems"] = [f"{name} = {got}, expected {want}"
                                for name, got, want in identities
                                if got != want]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv))
