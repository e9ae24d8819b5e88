"""Command-line front end for the equality attention toolkit.

Subcommands drive the library modules: verify and sweep run the exact
verifier over a construction, protocol simulates the one-way two-party
evaluation, fooling enumerates the lower-bound set, quantize measures
post-training quantization accuracy, arith-demo prints the pinned
order-of-operations walkthroughs, and build / import-check round-trip the
weights file format.

Exit codes are a stable contract: 0 success, 1 verified failure (expected
in precision-cliff runs and rejected weights files), 2 usage error, 3
internal invariant breach.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import commsim, oracle, quantlab
from .attn import forward
from .bitnum import (NEAREST, TRUNC, FxFormat, InvalidFormat,
                     LogitOutOfRange, encode_scalar, fx_add, fx_mul,
                     fx_round)
from .commsim import SplitNotPrefix, run_protocol
from .constructs import (CONSTRUCTIONS, EqInstance, UnsupportedM, make,
                         native_precision)
from .oracle import BudgetExceeded, precision_delta_spec
from .quantlab import SchemaError, import_weights


class UsageError(Exception):
    """A request the command line cannot honor; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, assembled from parsed flags."""

    command: str
    construction: str | None = None
    m: int | None = None
    t: int | None = None
    e: int | None = None
    n: int | None = None
    precision_delta: int = 0
    samples: int = 0
    count: int = 5120
    ms: tuple = ()
    formats: tuple = ()
    weights: str | None = None
    y: str | None = None
    z: str | None = None
    exhaustive: bool = False
    seed: int = 0
    out: str | None = None
    format: str = "text"
    jobs: int = 1
    trace: bool = False


def _jobs(flag) -> int:
    """--jobs, else EQATTN_JOBS, else 1; at least 1 and at most the CPU
    count."""
    name, text = ("EQATTN_JOBS", os.environ.get("EQATTN_JOBS", "1")) \
        if flag is None else ("--jobs", str(flag))
    if not text.isdecimal() or int(text) < 1:
        raise UsageError(f"{name} must be a positive integer, got {text!r}")
    return min(int(text), os.cpu_count() or 1)


def _config(args) -> RunConfig:
    fields = RunConfig.__dataclass_fields__
    picked = {name: getattr(args, name) for name in fields
              if hasattr(args, name)}
    picked["jobs"] = _jobs(picked.get("jobs"))
    if picked.get("format") is None:
        picked["format"] = "csv" if args.command == "quantize" else "text"
    if isinstance(picked.get("ms"), str):
        picked["ms"] = _int_list(picked["ms"])
    if isinstance(picked.get("formats"), str):
        picked["formats"] = tuple(
            tok for tok in picked["formats"].split(",") if tok)
    return RunConfig(**picked)


def _emit(cfg: RunConfig, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if cfg.out is None:
        sys.stdout.write(text)
        return
    path = Path(cfg.out)
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


def _check_odd_m(cfg: RunConfig):
    for m in (cfg.m, *cfg.ms):
        if m is not None and m % 2 == 0:
            raise UsageError("m must be odd")


def _build_subject(cfg: RunConfig):
    if cfg.construction is None:
        raise UsageError("--construction is required")
    return make(cfg.construction, m=cfg.m, t=cfg.t, e=cfg.e, n=cfg.n)


def _failure_traces(cfg: RunConfig, report, limit: int = 3) -> list[str]:
    spec, _ = _build_subject(cfg)
    spec = precision_delta_spec(spec, cfg.precision_delta)
    lines = []
    for f in report.failures[:limit]:
        lines.append(f"trace y={f.y} z={f.z}:")
        trace = forward(spec, spec.encode(f.y, f.z))
        lines.extend("  " + ln for ln in trace.render_lines())
    return lines


def cmd_verify(cfg: RunConfig) -> int:
    _check_odd_m(cfg)
    if cfg.samples:
        report = oracle.verify_sampled(
            cfg.construction, m=cfg.m, t=cfg.t, e=cfg.e, n=cfg.n,
            samples=cfg.samples, seed=cfg.seed,
            precision_delta=cfg.precision_delta, jobs=cfg.jobs)
    else:
        report = oracle.verify_exhaustive(
            cfg.construction, m=cfg.m, t=cfg.t, e=cfg.e, n=cfg.n,
            precision_delta=cfg.precision_delta, jobs=cfg.jobs)
    if cfg.format == "csv":
        text = oracle.to_csv([report])
    else:
        lines = report.render_lines()
        if cfg.trace and report.failures:
            lines += _failure_traces(cfg, report)
        text = "\n".join(lines)
    _emit(cfg, text)
    return 0 if report.passed else 1


def cmd_sweep(cfg: RunConfig) -> int:
    _check_odd_m(cfg)
    reports = []
    if cfg.ms:
        for m in cfg.ms:
            reports.append(oracle.verify_exhaustive(
                cfg.construction, m=m, n=cfg.n,
                precision_delta=cfg.precision_delta, jobs=cfg.jobs))
    if cfg.t is not None or cfg.e is not None:
        if cfg.samples:
            reports.append(oracle.verify_sampled(
                cfg.construction, t=cfg.t, e=cfg.e, n=cfg.n,
                samples=cfg.samples, seed=cfg.seed,
                precision_delta=cfg.precision_delta, jobs=cfg.jobs))
        else:
            reports.append(oracle.verify_exhaustive(
                cfg.construction, t=cfg.t, e=cfg.e, n=cfg.n,
                precision_delta=cfg.precision_delta, jobs=cfg.jobs))
    if not reports:
        raise UsageError("nothing to sweep: pass --ms and/or --t/--e")
    if cfg.format == "csv":
        text = oracle.to_csv(reports)
    else:
        lines = []
        for r in reports:
            lines += r.render_lines()
        text = "\n".join(lines)
    _emit(cfg, text)
    return 0 if all(r.passed for r in reports) else 1


def _protocol_pairs(cfg: RunConfig, spec, promises):
    m = spec.m
    if cfg.y is not None or cfg.z is not None:
        if cfg.y is None or cfg.z is None:
            raise UsageError("--y and --z must be given together")
        if len(cfg.y) != m or len(cfg.z) != m:
            raise UsageError(f"--y/--z must be {m} bits long")
        y, z = (cfg.y, cfg.z) if cfg.y <= cfg.z else (cfg.z, cfg.y)
        broken = promises.check(EqInstance(y, z))
        if broken:
            raise UsageError(f"pair violates the promise: {', '.join(broken)}")
        return [(y, z)]
    if cfg.exhaustive:
        return oracle.promise_pairs(promises, m)
    return oracle.promise_pairs(promises, m, cfg.count,
                                random.Random(cfg.seed))


def cmd_protocol(cfg: RunConfig) -> int:
    _check_odd_m(cfg)
    spec, promises = _build_subject(cfg)
    pairs = _protocol_pairs(cfg, spec, promises)
    expect_cost = commsim.bit_cost(spec)

    def enc(v):
        return "." if v is None else encode_scalar(v)

    lines = []
    listed = 0
    matches = 0
    costs = set()
    for y, z in pairs:
        run = run_protocol(spec, EqInstance(y, z))
        ref = forward(spec, spec.encode(y, z))
        ok = run.bob_bit == ref.bit
        matches += ok
        costs.add(run.bit_cost)
        if listed < 32 or not ok:
            lines.append(
                f"y={y} z={z} prefix={len(run.split)} l1={enc(run.l1)} "
                f"l2={enc(run.l2)} cost={run.bit_cost} bob={run.bob_bit} "
                f"model={ref.bit} {'ok' if ok else 'MISMATCH'}")
            listed += 1
        if cfg.trace and listed <= 4:
            lines.extend("  " + ln for ln in ref.render_lines())
    if len(pairs) > listed:
        lines.append(f"... ({len(pairs)} transcripts, {listed} listed)")
    cost_txt = ",".join(str(c) for c in sorted(costs))
    lines.append(
        f"{matches}/{len(pairs)} transcripts agree with the forward pass; "
        f"bit cost {cost_txt} (expected {expect_cost})")
    _emit(cfg, "\n".join(lines))
    return 0 if matches == len(pairs) and costs == {expect_cost} else 1


FOOLING_CSV_HEADER = "m,e,enumerated,formula,bound"


def cmd_fooling(cfg: RunConfig) -> int:
    if cfg.m is None or cfg.e is None:
        raise UsageError("fooling needs --m and --e")
    try:
        rep = commsim.enumerate_fooling(cfg.m, cfg.e)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    formula = (str(int(rep.formula)) if rep.formula.denominator == 1
               else f"{rep.formula.numerator}/{rep.formula.denominator}")
    row = f"{rep.m},{rep.e},{rep.enumerated},{formula},{rep.formula_bound}"
    if cfg.format == "csv":
        text = f"{FOOLING_CSV_HEADER}\n{row}"
    else:
        note = ("" if rep.formula_exact
                else " (closed form differs from the enumeration here)")
        text = (f"fooling m={rep.m} e={rep.e}: closed form {formula}, "
                f"enumerated {rep.enumerated}, implied bound "
                f"{rep.formula_bound} bits{note}\nrow: {row}")
    _emit(cfg, text)
    return 0


_NATIVE_RE = re.compile(r"native([+-]\d+)?")


def _resolve_formats(tokens, spec) -> list:
    out = []
    for tok in tokens:
        hit = _NATIVE_RE.fullmatch(tok)
        if not hit:
            out.append(quantlab.parse_quant_format(tok))
            continue
        delta = int(hit.group(1) or 0)
        fmt = spec.num_fmt
        if isinstance(fmt, FxFormat):
            out.append(quantlab.int_format(fmt.p + delta))
        else:
            out.append(quantlab.float_format(fmt.e, fmt.t - 1 + delta))
    return out


def cmd_quantize(cfg: RunConfig) -> int:
    _check_odd_m(cfg)
    if not cfg.formats:
        raise UsageError("quantize needs --formats")
    rows = []
    if cfg.weights is not None:
        spec = import_weights(cfg.weights)
        fmts = _resolve_formats(cfg.formats, spec)
        if cfg.exhaustive:
            raise UsageError("--exhaustive needs a named construction "
                             "(imported weights carry no promise set)")
        rep = quantlab.sweep(spec, fmts, count=cfg.count, seed=cfg.seed)
        rows += rep.rows
    else:
        keys = list(cfg.ms)
        if cfg.m is not None:
            keys.append(cfg.m)
        if cfg.t is not None and cfg.e is not None:
            keys.append((cfg.t, cfg.e))
        if not keys:
            raise UsageError("quantize needs --m, --ms or --t/--e")
        for key in keys:
            kwargs = {"m": key} if isinstance(key, int) else \
                {"t": key[0], "e": key[1]}
            spec, _ = make(cfg.construction, **kwargs)
            fmts = _resolve_formats(cfg.formats, spec)
            rep = quantlab.sweep(cfg.construction, fmts, ms=[key],
                                 count=cfg.count, seed=cfg.seed,
                                 exhaustive=cfg.exhaustive, jobs=cfg.jobs)
            rows += rep.rows
    report = quantlab.QuantReport(rows=tuple(rows))
    if cfg.format == "csv":
        text = report.to_csv()
    else:
        text = "\n".join(report.render_lines())
    _emit(cfg, text)
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


def cmd_arith_demo(cfg: RunConfig) -> int:
    lines = []
    a, b = Fraction(13, 8), Fraction(11, 4)  # 1.101 and 10.11
    for rounding, label in ((NEAREST, "nearest-ties-truncate"),
                            (TRUNC, "truncate")):
        fmt = FxFormat(4, rounding=rounding, significand_override=4)
        prod = fx_mul(fx_round(a, fmt), fx_round(b, fmt), fmt).as_fraction()
        lines.append(f"multiply {_binary(a)} * {_binary(b)} "
                     f"(4 significant bits, {label}): "
                     f"{_binary(prod)} ({_decimal(prod)})")
    xs = (Fraction(2), Fraction(5, 4), Fraction(7, 4))  # 10.0, 1.01, 1.11
    for rounding, label in ((TRUNC, "truncate"),
                            (NEAREST, "nearest-ties-truncate")):
        fmt = FxFormat(3, rounding=rounding, significand_override=3)
        va, vb, vc = (fx_round(x, fmt) for x in xs)
        left = fx_add(fx_add(va, vb, fmt), vc, fmt).as_fraction()
        right = fx_add(va, fx_add(vb, vc, fmt), fmt).as_fraction()
        lines.append(f"fold {' + '.join(_binary(x) for x in xs)} "
                     f"(3 significant bits, {label}):")
        lines.append(f"  left: {_binary(left)} ({_decimal(left)})")
        lines.append(f"  right: {_binary(right)} ({_decimal(right)})")
    _emit(cfg, "\n".join(lines))
    return 0


def cmd_build(cfg: RunConfig) -> int:
    _check_odd_m(cfg)
    spec, _ = _build_subject(cfg)
    _emit(cfg, quantlab.export_weights(spec))
    return 0


def cmd_import_check(cfg: RunConfig) -> int:
    spec = import_weights(cfg.weights)
    fmts = ", ".join(f"{k}={f.descriptor()}"
                     for k, f in spec.formats.items())
    lines = [
        f"ok: m={spec.m} n={spec.n} kind={spec.attention_kind} "
        f"p={native_precision(spec)}",
        f"formats: {fmts}",
    ]
    _emit(cfg, "\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for any sampled work (default 0)")
    common.add_argument("--out", metavar="PATH",
                        help="write the report to this file instead of "
                             "stdout; relative paths go under "
                             "EQATTN_OUT_DIR when that is set")
    common.add_argument("--format", choices=("text", "csv"), default=None,
                        help="report style (default text; quantize "
                             "defaults to csv)")
    common.add_argument("--jobs", type=int,
                        help="worker processes for heavy runs, at most the "
                             "CPU count (default EQATTN_JOBS or 1)")
    common.add_argument("--trace", action="store_true",
                        help="dump per-stage evaluation traces where "
                             "they apply")

    subject = argparse.ArgumentParser(add_help=False)
    subject.add_argument("--construction", choices=tuple(CONSTRUCTIONS),
                         help="which analytic head to build")
    subject.add_argument("--m", type=int, help="input length in bits")
    subject.add_argument("--t", type=int,
                         help="significand bits (floating-point families)")
    subject.add_argument("--e", type=int,
                         help="exponent bits (floating-point families)")
    subject.add_argument("--n", type=int,
                         help="token count override (defaults per family)")

    parser = argparse.ArgumentParser(
        prog="eqattn",
        description="Exact bounded-precision attention heads for equality: "
                    "build, verify, simulate, and quantize them.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", parents=[common, subject],
                        help="check a construction over its promise pairs")
    p.add_argument("--precision-delta", type=int, default=0,
                   help="shift every stage precision by this many bits")
    p.add_argument("--samples", type=int, default=0,
                   help="sample this many pairs instead of exhausting "
                        "(0 = exhaustive)")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("sweep", parents=[common, subject],
                        help="verify a construction across a grid of sizes")
    p.add_argument("--ms", type=str, default="",
                   help="comma-separated m values, e.g. 5,7,9")
    p.add_argument("--precision-delta", type=int, default=0)
    p.add_argument("--samples", type=int, default=0,
                   help="sampled verification for the (t, e) subject")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("protocol", parents=[common, subject],
                        help="run the one-way protocol against the model")
    p.add_argument("--count", type=int, default=128,
                   help="sampled instance count (default 128)")
    p.add_argument("--exhaustive", action="store_true",
                   help="run every promise pair")
    p.add_argument("--y", type=str, help="explicit first input")
    p.add_argument("--z", type=str, help="explicit second input")
    p.set_defaults(func=cmd_protocol)

    p = subs.add_parser("fooling", parents=[common],
                        help="enumerate the fooling set and its bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(func=cmd_fooling)

    p = subs.add_parser("quantize", parents=[common, subject],
                        help="quantize a head and measure accuracy")
    p.add_argument("--formats", type=str, required=True,
                   help="comma-separated targets, e.g. int8,int6,int4 or "
                        "native,native-1,native-2")
    p.add_argument("--ms", type=str, default="",
                   help="comma-separated m values")
    p.add_argument("--count", type=int, default=5120,
                   help="dataset size per subject (default 5120)")
    p.add_argument("--exhaustive", action="store_true",
                   help="score every promise pair instead of a dataset")
    p.add_argument("--weights", metavar="PATH",
                   help="quantize an imported weights file instead of a "
                        "named construction")
    p.set_defaults(func=cmd_quantize)

    p = subs.add_parser("arith-demo", parents=[common],
                        help="print the order-of-operations walkthroughs")
    p.set_defaults(func=cmd_arith_demo)

    p = subs.add_parser("build", parents=[common, subject],
                        help="emit a construction as a weights file")
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("import-check", parents=[common],
                        help="validate a weights file")
    p.add_argument("weights", metavar="PATH")
    p.set_defaults(func=cmd_import_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_config(args))
    except (UsageError, UnsupportedM, InvalidFormat, LogitOutOfRange,
            BudgetExceeded, SplitNotPrefix) as exc:
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
