"""Command-line front end for the equality attention toolkit.

Subcommands drive the library modules: verify and sweep run the exact
verifier over a construction, protocol simulates the one-way two-party
evaluation, fooling enumerates the lower-bound set, quantize measures
post-training quantization accuracy, arith-demo prints the pinned
order-of-operations walkthroughs, and build / import-check round-trip the
weights file format.

The report commands (verify, sweep, quantize, fooling) pass their rows to
_report, which writes each row's text lines or, with --format csv, the rows
through the one CSV writer, oracle.to_csv.  Commands read the argparse
namespace, which _config checks and normalises in place.  Each command
offers only the flags it reads (build_parser), so argparse refuses any
other; protocol's --jobs is the one exception, kept so that one flag set
runs every command.

Exit codes are a stable contract: 0 success, 1 verified failure (expected
in precision-cliff runs and rejected weights files), 2 usage error, 3
internal invariant breach.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from . import commsim, oracle, quantlab
from .attn import forward
from .bitnum import (NEAREST, TRUNC, FxFormat, InvalidFormat,
                     LogitOutOfRange, encode_scalar, fx_add, fx_mul,
                     fx_round)
from .commsim import run_protocol
from .constructs import CONSTRUCTIONS, UnsupportedM, make, native_precision
from .oracle import BudgetExceeded
from .quantlab import SchemaError, import_weights


class UsageError(Exception):
    """A request the command line cannot honor; maps to exit code 2."""


def _jobs(flag) -> int:
    """--jobs, else EQATTN_JOBS, else 1; at least 1 and at most the CPU
    count."""
    name, text = ("EQATTN_JOBS", os.environ.get("EQATTN_JOBS", "1")) \
        if flag is None else ("--jobs", str(flag))
    if not text.isdecimal() or int(text) < 1:
        raise UsageError(f"{name} must be a positive integer, got {text!r}")
    return min(int(text), os.cpu_count() or 1)


def _config(args):
    """Check the parsed flags and normalise them in place: the job count,
    positive counts, and the comma-separated lists as tuples (ms is () for
    commands without --ms)."""
    if hasattr(args, "jobs"):
        args.jobs = _jobs(args.jobs)
    if getattr(args, "count", None) is not None and args.count < 1:
        raise UsageError(f"--count must be positive, got {args.count}")
    if getattr(args, "samples", 0) < 0:
        raise UsageError("--samples must be 0 (exhaustive) or positive, "
                         f"got {args.samples}")
    args.ms = _int_list(getattr(args, "ms", ""))
    if hasattr(args, "formats"):
        args.formats = tuple(tok for tok in args.formats.split(",") if tok)
    return args


def _emit(args, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    path = Path(args.out)
    base = os.environ.get("EQATTN_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated integer list, "
                         f"got {text!r}") from exc


def _check_odd_m(args):
    """Refuse an even m, --m or --ms, unless the construction takes (t, e),
    when make refuses any m."""
    family = CONSTRUCTIONS.get(args.construction)
    if family is not None and "m" not in family[1]:
        return
    for m in (getattr(args, "m", None), *args.ms):
        if m is not None and m % 2 == 0:
            raise UsageError("m must be odd")


def _build_subject(args):
    if args.construction is None:
        raise UsageError("--construction is required")
    return make(args.construction, m=args.m, t=args.t, e=args.e, n=args.n)


def _failure_traces(report) -> list[str]:
    """The traces the first three listed failures were found with."""
    lines = []
    for f in report.failures[:3]:
        lines.append(f"trace y={f.y} z={f.z}:")
        lines.extend("  " + ln for ln in f.trace.render_lines())
    return lines


def _report(args, rows, notes=()):
    """Write report rows: with --format csv through the one CSV writer,
    otherwise as each row's text lines followed by notes."""
    if args.format == "csv":
        text = oracle.to_csv(rows)
    else:
        text = "\n".join([ln for r in rows for ln in r.render_lines()]
                         + list(notes))
    _emit(args, text)


def _verify(args, samples: int = 0, **size) -> oracle.VerifyReport:
    """Verify the named construction at one size: sampled when samples is
    positive, exhaustive otherwise."""
    if samples:
        return oracle.verify_sampled(
            args.construction, **size, n=args.n, samples=samples,
            seed=args.seed, precision_delta=args.precision_delta,
            jobs=args.jobs)
    return oracle.verify_exhaustive(
        args.construction, **size, n=args.n,
        precision_delta=args.precision_delta, jobs=args.jobs)


def cmd_verify(args) -> int:
    _check_odd_m(args)
    report = _verify(args, args.samples, m=args.m, t=args.t, e=args.e)
    _report(args, [report], _failure_traces(report) if args.trace else ())
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    _check_odd_m(args)
    reports = [_verify(args, m=m) for m in args.ms]
    if args.t is not None or args.e is not None:
        reports.append(_verify(args, args.samples, t=args.t, e=args.e))
    if not reports:
        raise UsageError("nothing to sweep: pass --ms and/or --t/--e")
    _report(args, reports)
    return 0 if all(r.passed for r in reports) else 1


def _check_exhaustive(args):
    """--exhaustive runs every promise pair: it takes no --count or --seed,
    which default to None so that a given one is seen."""
    if args.exhaustive and (args.count, args.seed) != (None, None):
        raise UsageError("--exhaustive runs every promise pair; drop "
                         "--count and --seed")


def _protocol_pairs(args, spec, promises):
    m = spec.m
    if args.y is not None or args.z is not None:
        if args.y is None or args.z is None:
            raise UsageError("--y and --z must be given together")
        if args.exhaustive or (args.count, args.seed) != (None, None):
            raise UsageError("--y/--z name the one pair to run; drop "
                             "--exhaustive, --count and --seed")
        if len(args.y) != m or len(args.z) != m:
            raise UsageError(f"--y/--z must be {m} bits long")
        if (args.y + args.z).strip("01"):
            raise UsageError(f"--y/--z must be bit strings, got {args.y!r}, "
                             f"{args.z!r}")
        y, z = (args.y, args.z) if args.y <= args.z else (args.z, args.y)
        broken = promises.check(y, z)
        if broken:
            raise UsageError(f"pair violates the promise: {', '.join(broken)}")
        return [(y, z)]
    _check_exhaustive(args)
    if args.exhaustive:
        return oracle.promise_pairs(promises, m)
    return oracle.promise_pairs(promises, m, args.count or 128,
                                random.Random(args.seed or 0))


def cmd_protocol(args) -> int:
    _check_odd_m(args)
    spec, promises = _build_subject(args)
    pairs = _protocol_pairs(args, spec, promises)
    expect_cost = commsim.bit_cost(spec)

    def enc(v):
        return "." if v is None else encode_scalar(v)

    lines = []
    total = listed = matches = 0
    costs = set()
    for y, z in pairs:
        total += 1
        run = run_protocol(spec, y, z)
        ref = forward(spec, y, z)
        ok = run.bob_bit == ref.bit
        matches += ok
        costs.add(run.bit_cost)
        if listed < 32 or not ok:
            lines.append(
                f"y={y} z={z} prefix={run.prefix} l1={enc(run.l1)} "
                f"l2={enc(run.l2)} cost={run.bit_cost} bob={run.bob_bit} "
                f"model={ref.bit} {'ok' if ok else 'MISMATCH'}")
            listed += 1
        if args.trace and listed <= 4:
            lines.extend("  " + ln for ln in ref.render_lines())
    if total > listed:
        lines.append(f"... ({total} transcripts, {listed} listed)")
    cost_txt = ",".join(str(c) for c in sorted(costs))
    lines.append(
        f"{matches}/{total} transcripts agree with the forward pass; "
        f"bit cost {cost_txt} (expected {expect_cost})")
    _emit(args, "\n".join(lines))
    return 0 if matches == total and costs == {expect_cost} else 1


def cmd_fooling(args) -> int:
    try:
        rep = commsim.enumerate_fooling(args.m, args.e)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _report(args, [rep])
    return 0


def cmd_quantize(args) -> int:
    _check_odd_m(args)
    if not args.formats:
        raise UsageError("quantize needs --formats")
    _check_exhaustive(args)
    if args.weights is not None:
        source, keys = import_weights(args.weights), None
        if args.exhaustive:
            raise UsageError("--exhaustive needs a named construction "
                             "(imported weights carry no promise set)")
        if args.construction or args.ms or \
                (args.m, args.t, args.e) != (None, None, None):
            raise UsageError("--weights is the subject; drop --construction, "
                             "--m, --t, --e and --ms")
    else:
        source, keys = args.construction, list(args.ms)
        if args.m is not None:
            keys.append(args.m)
        if args.t is not None and args.e is not None:
            keys.append((args.t, args.e))
        if not keys:
            raise UsageError("quantize needs --m, --ms or --t/--e")
    _report(args, quantlab.sweep(source, args.formats, keys,
                                 count=args.count or 5120,
                                 seed=args.seed or 0,
                                 exhaustive=args.exhaustive, jobs=args.jobs))
    return 0


def _binary(fr: Fraction) -> str:
    """A dyadic rational in positional binary, e.g. -100.101."""
    if fr == 0:
        return "0"
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    whole, rest = divmod(fr.numerator, fr.denominator)
    digits = bin(whole)[2:] if whole else "0"
    if rest == 0:
        return sign + digits
    frac = []
    while rest:
        rest *= 2
        bit, rest = divmod(rest, fr.denominator)
        frac.append(str(bit))
    return sign + digits + "." + "".join(frac)


def _decimal(fr: Fraction) -> str:
    return f"{float(fr):g}"


def cmd_arith_demo(args) -> int:
    lines = []
    a, b = Fraction(13, 8), Fraction(11, 4)  # 1.101 and 10.11
    for rounding, label in ((NEAREST, "nearest-ties-truncate"),
                            (TRUNC, "truncate")):
        fmt = FxFormat(5, rounding=rounding)
        prod = fx_mul(fx_round(a, fmt), fx_round(b, fmt), fmt).as_fraction()
        lines.append(f"multiply {_binary(a)} * {_binary(b)} "
                     f"(4 significant bits, {label}): "
                     f"{_binary(prod)} ({_decimal(prod)})")
    xs = (Fraction(2), Fraction(5, 4), Fraction(7, 4))  # 10.0, 1.01, 1.11
    for rounding, label in ((TRUNC, "truncate"),
                            (NEAREST, "nearest-ties-truncate")):
        fmt = FxFormat(4, rounding=rounding)
        va, vb, vc = (fx_round(x, fmt) for x in xs)
        left = fx_add(fx_add(va, vb, fmt), vc, fmt).as_fraction()
        right = fx_add(va, fx_add(vb, vc, fmt), fmt).as_fraction()
        lines.append(f"fold {' + '.join(_binary(x) for x in xs)} "
                     f"(3 significant bits, {label}):")
        lines.append(f"  left: {_binary(left)} ({_decimal(left)})")
        lines.append(f"  right: {_binary(right)} ({_decimal(right)})")
    _emit(args, "\n".join(lines))
    return 0


def cmd_build(args) -> int:
    _check_odd_m(args)
    spec, _ = _build_subject(args)
    _emit(args, quantlab.export_weights(spec))
    return 0


def cmd_import_check(args) -> int:
    spec = import_weights(args.weights)
    fmts = ", ".join(f"{k}={f.descriptor()}"
                     for k, f in spec.formats.items())
    lines = [
        f"ok: m={spec.m} n={spec.n} kind={spec.attention_kind} "
        f"p={native_precision(spec)}",
        f"formats: {fmts}",
    ]
    _emit(args, "\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqattn",
        description="Exact bounded-precision attention heads for equality: "
                    "build, verify, simulate, and quantize them.")
    subs = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--seed": dict(type=int, default=0,
                       help="seed for any sampled work (default 0)"),
        "--out": dict(metavar="PATH",
                      help="write the report to this file instead of "
                           "stdout; relative paths go under EQATTN_OUT_DIR "
                           "when that is set"),
        "--format": dict(choices=("text", "csv"), default="text",
                         help="report style: text lines, or CSV rows with "
                              "any seconds column at 0.000 (default "
                              "%(default)s)"),
        "--jobs": dict(type=int,
                       help="worker processes, at most the CPU count "
                            "(default EQATTN_JOBS or 1); protocol runs in "
                            "one process and takes --jobs only so that a "
                            "caller such as perfbench can pass it to every "
                            "command it runs"),
        "--trace": dict(action="store_true",
                        help="print the per-stage forward traces of the "
                             "first failures or transcripts"),
        "--construction": dict(choices=tuple(CONSTRUCTIONS),
                               help="which analytic head to build"),
        "--m": dict(type=int,
                    help="input length in bits (fixed-point families)"),
        "--t": dict(type=int,
                    help="significand bits (floating-point families)"),
        "--e": dict(type=int,
                    help="exponent bits (floating-point families)"),
        "--n": dict(type=int,
                    help="token count override (defaults per family)"),
        "--precision-delta": dict(
            type=int, default=0,
            help="shift every stage precision by this many bits; the fx "
                 "heads are exact-precision heads, so a positive shift "
                 "measures detuning, not expressivity"),
    }

    def command(name, func, help, *flags):
        """A subcommand offering the named shared flags, which it reads.
        No flag is abbreviated: sweep would read --m as --ms."""
        p = subs.add_parser(name, help=help, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func)
        return p

    report = ("--seed", "--out", "--format", "--jobs")
    subject = ("--construction", "--m", "--t", "--e", "--n")

    p = command("verify", cmd_verify,
                "check a construction over its promise pairs",
                *report, "--trace", *subject, "--precision-delta")
    p.add_argument("--samples", type=int, default=0,
                   help="sample this many pairs instead of exhausting "
                        "(0 = exhaustive)")

    p = command("sweep", cmd_sweep,
                "verify a construction across a grid of sizes",
                *report, "--construction", "--t", "--e", "--n",
                "--precision-delta")
    p.add_argument("--ms", type=str, default="",
                   help="comma-separated m values, e.g. 5,7,9")
    p.add_argument("--samples", type=int, default=0,
                   help="sampled verification for the (t, e) subject")

    p = command("protocol", cmd_protocol,
                "run the one-way protocol against the model",
                "--seed", "--out", "--jobs", "--trace", *subject)
    p.set_defaults(seed=None)   # None until given, so it can be refused
    p.add_argument("--count", type=int,
                   help="sampled instance count (default 128)")
    p.add_argument("--exhaustive", action="store_true",
                   help="run every promise pair")
    p.add_argument("--y", type=str, help="explicit first input")
    p.add_argument("--z", type=str, help="explicit second input")

    p = command("fooling", cmd_fooling,
                "enumerate the fooling set and its bound",
                "--out", "--format")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--e", type=int, required=True)

    p = command("quantize", cmd_quantize,
                "quantize a head and measure accuracy",
                *report, "--construction", "--m", "--t", "--e")
    p.set_defaults(format="csv", seed=None)   # None until given, as above
    p.add_argument("--formats", type=str, required=True,
                   help="comma-separated targets, e.g. int8,int6,int4 or "
                        "native,native-1,native-2")
    p.add_argument("--ms", type=str, default="",
                   help="comma-separated m values")
    p.add_argument("--count", type=int,
                   help="dataset size per subject (default 5120)")
    p.add_argument("--exhaustive", action="store_true",
                   help="score every promise pair instead of a dataset")
    p.add_argument("--weights", metavar="PATH",
                   help="quantize an imported weights file instead of a "
                        "named construction")

    command("arith-demo", cmd_arith_demo,
            "print the order-of-operations walkthroughs", "--out")
    command("build", cmd_build, "emit a construction as a weights file",
            "--out", *subject)
    p = command("import-check", cmd_import_check, "validate a weights file",
                "--out")
    p.add_argument("weights", metavar="PATH")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():     # one line, with no source location
        warnings.showwarning = lambda message, category, *_: print(
            f"warning: {category.__name__}: {message}", file=sys.stderr)
        try:
            return args.func(_config(args))
        except (UsageError, UnsupportedM, InvalidFormat, LogitOutOfRange,
                BudgetExceeded) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except SchemaError as exc:
            print(f"weights file rejected: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # noqa: BLE001 - stable exit-code contract
            print(f"internal invariant breach: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
