"""Post-training quantization of equality heads, accuracy sweeps, and the
weights file format.

A quantization target is a stage format: FxFormat(k) for INTk
(int_format), FpFormat(mant + 1, exp) for a float with exp exponent and
mant mantissa bits (float_format); the presets are such formats, and
parse_quant_format reads their names.  quantize_spec re-rounds every
weight of a TransformerSpec onto the target's grid and swaps the stage
formats to the target's width, so activations are quantized implicitly the
next time the head runs.  On the exact-precision fx heads (constructs), a
target wider than native measures detuning, not expressivity.  gen_dataset
draws the randomized equality benchmark (half equal pairs, half pairs
differing in exactly floor(0.75 m) positions) from a counter-based
generator, and eval_accuracy / sweep measure how the accept bit degrades
format by format.  sweep resolves "native" and "native+-k" against each
subject it builds.  Scoring goes through the verifier's pair tally
(oracle.Tally), sampled datasets over --jobs processes too; saturated and
indeterminate traces are tallied separately.  Each measurement is a
QuantRow, which gives its own CSV and text lines; the CLI writes them like
every other report, CSV through oracle.to_csv.

Weights that overflow the target grid become the infinity code, stored as
the exact dyadic +-2**INF_CODE_LOG2.  That magnitude is beyond the top of
every practical stage format, so each use of such a weight rounds to the
format's +-Inf, which is exactly how a dedicated infinity code would
behave without the evaluation pipeline needing a special case.  The one
use it cannot stand is as a key a sequence reaches: its attention weight,
2 to an infinity-coded power, is refused with bitnum.LogitOutOfRange.

This module owns the weights format, reading and writing.  export_weights
writes a spec as a JSON document, each scalar in bitnum's exact textual
encoding and the key sentinel as "neglarge".  import_weights_text checks
the document in one pass, decoding each field straight into the spec and
naming the field of the first error in a SchemaError; import_weights also
refuses a head whose logits are not integer coefficients of ln 2.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from pathlib import Path

from .attn import (LINEAR, SOFTMAX, MlpSpec, TokenRule, TransformerSpec,
                   token_logits, with_stage_widths)
from .bitnum import (INF_CODE_LOG2, FpFormat, FxFormat, InvalidFormat,
                     ceil_log2, decode_scalar, encode_scalar, fp_round,
                     fx_round, parse_format)
from .constructs import float_fields, make, native_precision
from .oracle import Tally, tally_pairs, verify_exhaustive_spec


class DegenerateTensor(UserWarning):
    """An all-zero tensor was calibrated; its scale defaults to 1."""


class SchemaError(ValueError):
    """A weights document that does not match the expected layout."""


_INF_CODE = Fraction(1 << INF_CODE_LOG2)


def int_format(bits: int) -> FxFormat:
    """INT<bits>: a fixed-point format of that width, whose scale
    quantize_spec calibrates per tensor."""
    return FxFormat(bits)


def float_format(exp: int, mant: int) -> FpFormat:
    """A float with exp exponent bits and mant stored mantissa bits after
    the implicit leading one: t = mant + 1 significand bits."""
    if mant < 1:
        raise InvalidFormat(
            f"float formats need at least 1 mantissa bit, got {mant}")
    return FpFormat(mant + 1, exp)


INT12 = int_format(12)
INT8 = int_format(8)
INT6 = int_format(6)
INT4 = int_format(4)
FP16 = float_format(5, 10)
FP8_E5M2 = float_format(5, 2)
FP8_E4M3 = float_format(4, 3)

PRESETS = {
    "int12": INT12,
    "int8": INT8,
    "int6": INT6,
    "int4": INT4,
    "fp16": FP16,
    "fp8_e5m2": FP8_E5M2,
    "fp8_e4m3": FP8_E4M3,
}
_PRESET_NAMES = {fmt: name for name, fmt in PRESETS.items()}


def _format_name(fmt: FxFormat | FpFormat) -> str:
    """A target's name: the preset's, else int<p> or fp_e<e>m<t-1>."""
    if isinstance(fmt, FxFormat):
        return _PRESET_NAMES.get(fmt, f"int{fmt.p}")
    return _PRESET_NAMES.get(fmt, f"fp_e{fmt.e}m{fmt.t - 1}")


def parse_quant_format(text: str) -> FxFormat | FpFormat:
    """Resolve a format name: a preset, int<k>, or fp_e<exp>m<mant>."""
    key = text.strip().lower()
    if key in PRESETS:
        return PRESETS[key]
    hit = re.fullmatch(r"int(\d+)", key)
    if hit:
        return int_format(int(hit.group(1)))
    hit = re.fullmatch(r"fp_e(\d+)m(\d+)", key)
    if hit:
        return float_format(int(hit.group(1)), int(hit.group(2)))
    hit = re.fullmatch(r"fp(\d+)_e(\d+)m(\d+)", key)
    if hit:
        total, exp, mant = map(int, hit.groups())
        if exp + mant + 1 != total:
            raise InvalidFormat(
                f"sign + {exp} exponent + {mant} mantissa bits is "
                f"{exp + mant + 1}, not {total}")
        return float_format(exp, mant)
    raise InvalidFormat("unknown quantization format; try int<k>, fp16, "
                        "fp8_e5m2, fp8_e4m3 or fp_e<exp>m<mant>")


def is_inf_code(value) -> bool:
    """Whether a stored weight is the infinity code (either sign)."""
    return value is not None and abs(Fraction(value)) >= _INF_CODE


def _inf_code(sign: int) -> Fraction:
    return _INF_CODE if sign > 0 else -_INF_CODE


def _spec_tensors(spec: TransformerSpec):
    """(label, flat values) per weight tensor; key sentinels are skipped."""
    emb = [v for rule in spec.embedding for row in rule.rows for v in row
           if v is not None]
    return [
        ("embedding", emb),
        ("wq", list(spec.wq)),
        ("wk", list(spec.wk)),
        ("wv", list(spec.wv)),
        ("mlp.w1", list(spec.mlp.w1)),
        ("mlp.b1", list(spec.mlp.b1)),
        ("mlp.w2", list(spec.mlp.w2)),
        ("mlp.b2", [spec.mlp.b2]),
    ]


def _int_rounder(label: str, values, bits: int):
    """Per-tensor INTk rounding: max-abs calibration onto a power-of-two
    scale that covers the largest magnitude, then rounding into the
    (bits, scale) fixed-point grid.  The covering choice (rather than the
    closest power of two) keeps the largest weight finite and makes
    requantization at the same width the identity."""
    finite = [abs(Fraction(v)) for v in values if not is_inf_code(v)]
    maxabs = max(finite, default=Fraction(0))
    if maxabs == 0:
        warnings.warn(DegenerateTensor(
            f"tensor {label} has no nonzero weight; scale defaults to 1"))
        scale_log2 = 0
    else:
        scale_log2 = ceil_log2(maxabs / ((1 << (bits - 1)) - 1))
    return _grid_rounder(fx_round, FxFormat(bits, scale_log2))


def _float_rounder(fmt: FpFormat):
    """Absolute-grid float rounding; exponent overflow is the Inf code."""
    return _grid_rounder(fp_round, FpFormat(fmt.t, fmt.e))


def _grid_rounder(round_, grid):
    """Round a weight onto grid: infinity codes pass through, overflow
    becomes the infinity code."""

    def rnd(v: Fraction) -> Fraction:
        if is_inf_code(v):
            return _inf_code(1 if v > 0 else -1)
        x = round_(v, grid)
        if x.is_inf:
            return _inf_code(x.sign)
        return x.as_fraction()

    return rnd


def quantize_spec(spec: TransformerSpec,
                  fmt: FxFormat | FpFormat) -> TransformerSpec:
    """Round every weight onto the target grid and swap stage formats.

    Only the target's width is read: p for a fixed-point target, t and e
    for a floating-point one.  Integer targets calibrate a power-of-two
    scale per tensor from its largest magnitude; float targets round each
    value on the absolute (t, e) grid.  Values past the top of the grid
    become the infinity code (see module docstring); existing infinity
    codes pass through, and they are excluded from calibration.  Stage
    formats take the target's width (attn.with_stage_widths), so the
    quantized head also accumulates and divides at the target precision.

    Each distinct (tensor, value) is rounded once, integer scales are
    calibrated over the distinct values, and each distinct (tensor, row)
    is quantized once.
    """
    rounders = {}
    for label, values in _spec_tensors(spec):
        if isinstance(fmt, FxFormat):
            rounders[label] = _int_rounder(label, dict.fromkeys(values),
                                           fmt.p)
        else:
            rounders[label] = _float_rounder(fmt)

    @cache
    def q(label, v):
        return None if v is None else rounders[label](Fraction(v))

    @cache
    def q_row(label, row):
        return tuple(q(label, v) for v in row)

    embedding = [
        TokenRule(source=rule.source,
                  rows=tuple(q_row("embedding", row) for row in rule.rows))
        for rule in spec.embedding
    ]
    mlp = MlpSpec(w1=q_row("mlp.w1", spec.mlp.w1),
                  b1=q_row("mlp.b1", spec.mlp.b1),
                  w2=q_row("mlp.w2", spec.mlp.w2),
                  b2=q("mlp.b2", spec.mlp.b2))
    out = replace(
        with_stage_widths(spec, dict.fromkeys(spec.formats, fmt)),
        embedding=embedding,
        wq=q_row("wq", spec.wq),
        wk=q_row("wk", spec.wk),
        wv=q_row("wv", spec.wv),
        mlp=mlp,
    )
    return out.validate()


_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class _SplitMix64:
    """splitmix64 stream; fixed here so datasets are bit-identical across
    platforms and Python versions."""

    def __init__(self, state: int):
        self.state = state & _MASK64

    def next_word(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def gen_dataset(m: int, count: int, seed: int = 0) -> tuple:
    """Draw count labeled pairs (y, z, y == z); deterministic for a fixed
    (m, count, seed).  Each pair is equal with probability 1/2; unequal
    pairs differ in exactly floor(0.75 m) positions, chosen uniformly.

    Pair i uses its own splitmix64 stream keyed by seed ^ (GOLDEN * i), so
    any prefix of a larger dataset equals the smaller dataset.  The first
    word's top bit decides equal vs unequal; the next ceil(m/64) words
    spell y; unequal pairs then flip the first floor(0.75 m) entries of a
    partial Fisher-Yates shuffle of the positions.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    flips = (3 * m) // 4
    words = (m + 63) // 64
    pairs = []
    for i in range(count):
        stream = _SplitMix64(seed ^ ((_GOLDEN * i) & _MASK64))
        head = stream.next_word()
        y = "".join(format(stream.next_word(), "064b")
                    for _ in range(words))[:m]
        if head >> 63:
            z = y
        else:
            order = list(range(m))
            for j in range(flips):
                r = j + stream.next_word() % (m - j)
                order[j], order[r] = order[r], order[j]
            zb = list(y)
            for pos in order[:flips]:
                zb[pos] = "1" if zb[pos] == "0" else "0"
            z = "".join(zb)
        pairs.append((y, z, int(y == z)))
    return tuple(pairs)


@dataclass(frozen=True)
class QuantRow:
    """One accuracy measurement: a subject at one storage format.

    t and e are the subject's float fields, or for a fixed-point subject
    the quantized head's (none at an integer target).  capacity is the
    storage budget H * (d_v + 1) * p the head carries, at one head (H = 1)
    and one value column (d_v = 1): 2 p, with p the quantized head's
    native_precision."""

    CSV_HEADER = ("construction,m,t,e,format,capacity,total,correct,"
                  "accuracy,inf_count,seconds")

    construction: str
    m: int
    t: int | None
    e: int | None
    fmt: str
    capacity: int
    total: int
    correct: int
    inf_count: int

    @property
    def accuracy(self) -> Fraction:
        if self.total == 0:
            return Fraction(0)
        return Fraction(self.correct, self.total)

    def csv_row(self) -> str:
        return ",".join([
            self.construction, str(self.m),
            "" if self.t is None else str(self.t),
            "" if self.e is None else str(self.e),
            self.fmt, str(self.capacity), str(self.total), str(self.correct),
            f"{float(self.accuracy):.6f}", str(self.inf_count), "0.000"])

    def render_lines(self) -> list[str]:
        label = self.construction + (f" t={self.t} e={self.e}"
                                     if self.t else "")
        return [f"{label} m={self.m} {self.fmt} (capacity {self.capacity}): "
                f"{self.correct}/{self.total} = {float(self.accuracy):.6f}, "
                f"{self.inf_count} saturated"]


def _quant_row(label: str, subject: TransformerSpec,
               target: FxFormat | FpFormat, qspec: TransformerSpec,
               tally: Tally) -> QuantRow:
    """The row of subject quantized to target (qspec), from the verifier's
    tally: what it does not count as a failure is correct."""
    t, e = float_fields(subject)
    if t is None:
        t, e = float_fields(qspec)
    return QuantRow(
        construction=label, m=subject.m, t=t, e=e, fmt=_format_name(target),
        capacity=2 * native_precision(qspec),
        total=tally.total, correct=tally.total - tally.failure_count,
        inf_count=tally.saturated)


def eval_accuracy(spec: TransformerSpec, pairs, promises=None,
                  jobs: int = 1) -> Tally:
    """Score the accept bit against labeled pairs (gen_dataset).

    With a promise set, pairs are reordered so y <= z and pairs that still
    violate a promise are skipped, mirroring how the head is specified.
    The verifier's tally scores the rest over jobs processes: every label
    is y == z, so a pair is correct unless it is a failure.  Saturated or
    indeterminate traces score like any other; Tally.saturated counts them.
    """
    pairs = [(y, z) if promises is None else (min(y, z), max(y, z))
             for y, z, _ in pairs]
    if promises is not None:
        pairs = [p for p in pairs if not promises.check(*p)]
    return tally_pairs(spec, pairs, jobs)


_NATIVE = re.compile(r"native([+-]\d+)?")


def _resolve_format(token, spec: TransformerSpec) -> FxFormat | FpFormat:
    """A sweep format for one subject: a format as given, a name
    parse_quant_format reads, or "native" / "native+-k", the subject's
    numerator width plus k bits as an integer or float format.  A refusal
    names the token."""
    if not isinstance(token, str):
        return token
    hit = _NATIVE.fullmatch(token)
    try:
        if not hit:
            return parse_quant_format(token)
        delta = int(hit.group(1) or 0)
        fmt = spec.num_fmt
        if isinstance(fmt, FxFormat):
            return int_format(fmt.p + delta)
        return float_format(fmt.e, fmt.t - 1 + delta)
    except InvalidFormat as exc:
        raise InvalidFormat(f"{token}: {exc}") from None


def sweep(source, formats, ms=None, count: int = 5120, seed: int = 0, *,
          exhaustive: bool = False, jobs: int = 1) -> tuple:
    """Quantize a subject to each format and measure accuracy; returns the
    QuantRows in subject-major, format-minor order.

    source is a construction name (swept over ms, whose entries are m for
    fixed-point families or (t, e) for floating-point ones) or an already
    built TransformerSpec, which carries no promise set.
    Subjects are built, their formats resolved (_resolve_format) and
    their rows measured one at a time.  exhaustive runs every promise pair
    through the verifier instead of a sampled dataset; jobs spreads either
    over processes.  Both give a Tally, and _quant_row makes each row.
    """
    if isinstance(source, TransformerSpec):
        subjects = [(source, None, "imported")]
    else:
        subjects = (make(source, **({"m": key} if isinstance(key, int) else
                                    {"t": key[0], "e": key[1]})) + (source,)
                    for key in ms or ())
    rows = []
    for spec0, pr, label in subjects:
        fmts = [_resolve_format(f, spec0) for f in formats]
        if exhaustive and pr is None:
            raise ValueError("an exhaustive sweep needs the subject's "
                             "promise set")
        pairs = None if exhaustive else gen_dataset(spec0.m, count, seed)
        for f in fmts:
            qspec = quantize_spec(spec0, f)
            if exhaustive:
                rep = verify_exhaustive_spec(qspec, pr, label, jobs=jobs)
                tally = Tally(rep.total, rep.failure_count, (), rep.inf_count)
            else:
                tally = eval_accuracy(qspec, pairs, pr, jobs)
            rows.append(_quant_row(label, spec0, f, qspec, tally))
    return tuple(rows)


_STAGES = ("fold", "num", "den", "out")


def _schema(cond: bool, where: str, msg: str):
    if not cond:
        raise SchemaError(f"{where}: {msg}")


def _scalar(v, where: str) -> Fraction | None:
    """A scalar cell as an exact dyadic, None for the "neglarge" sentinel;
    JSON numbers convert exactly through their binary representation."""
    if v is None or v == "neglarge":
        return None
    if isinstance(v, bool):
        raise SchemaError(f"{where}: booleans are not scalars")
    if isinstance(v, str):
        try:
            v = decode_scalar(v)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    elif not isinstance(v, (int, float)):
        raise SchemaError(f"{where}: expected a number or scalar string, "
                          f"got {type(v).__name__}")
    if isinstance(v, float) and not math.isfinite(v):
        raise SchemaError(f"{where}: {v!r} is not finite")
    return Fraction(v)


def _row(row, where: str, width: int) -> tuple:
    _schema(isinstance(row, list), where, "expected an array")
    _schema(len(row) == width, where,
            f"expected {width} entries, got {len(row)}")
    return tuple(_scalar(v, f"{where}[{i}]") for i, v in enumerate(row))


def _fields(obj: dict, prefix: str, known, optional=()):
    """Refuse a missing known field, and any field the schema lacks."""
    for key in known:
        _schema(key in obj, prefix + key, "missing")
    for key in obj:
        _schema(key in (*known, *optional), prefix + key, "unknown field")


def _format(fmts: dict, stage: str):
    where = f"formats.{stage}"
    _schema(isinstance(fmts[stage], str), where,
            "expected a format descriptor string")
    try:
        return parse_format(fmts[stage])
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _rule(rule, where: str) -> TokenRule:
    _schema(isinstance(rule, dict), where, "expected an object")
    _fields(rule, f"{where}.", ("source", "rows"))
    source = rule["source"]
    _schema(isinstance(source, list), f"{where}.source",
            "expected an array of [side, index] pairs")
    for j, ref in enumerate(source):
        _schema(isinstance(ref, list) and len(ref) == 2
                and ref[0] in ("y", "z")
                and isinstance(ref[1], int), f"{where}.source[{j}]",
                f"expected [\"y\"|\"z\", index], got {ref!r}")
    rows = rule["rows"]
    _schema(isinstance(rows, list) and len(rows) == (1 << len(source)),
            f"{where}.rows",
            f"{len(source)} source bits need {1 << len(source)} rows, "
            f"got {len(rows) if isinstance(rows, list) else rows!r}")
    return TokenRule(source=tuple(map(tuple, source)),
                     rows=tuple(_row(r, f"{where}.rows[{j}]", 3)
                                for j, r in enumerate(rows)))


def _decode_document(payload) -> TransformerSpec:
    """Check a weights document field by field, decoding each into the
    spec; a field error names the field."""
    _schema(isinstance(payload, dict), "document", "expected an object")
    _fields(payload, "", ("version", "m", "n", "attention_kind", "formats",
                          "embedding", "wq", "wk", "wv", "mlp"),
            optional=("index_base",))
    _schema(payload["version"] == 1, "version",
            f"expected 1, got {payload['version']!r}")
    for field in ("m", "n"):
        v = payload[field]
        _schema(isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                field, f"expected a positive integer, got {v!r}")
    _schema(payload["attention_kind"] in (SOFTMAX, LINEAR),
            "attention_kind",
            f"expected {SOFTMAX!r} or {LINEAR!r}, "
            f"got {payload['attention_kind']!r}")
    fmts = payload["formats"]
    _schema(isinstance(fmts, dict), "formats", "expected an object")
    _fields(fmts, "formats.", _STAGES)
    formats = {stage: _format(fmts, stage) for stage in _STAGES}
    emb = payload["embedding"]
    _schema(isinstance(emb, list) and emb, "embedding",
            "expected a non-empty array of position rules")
    embedding = [_rule(rule, f"embedding[{i}]") for i, rule in enumerate(emb)]
    proj = {}
    for field in ("wq", "wk", "wv"):
        proj[field] = _row(payload[field], field, 3)
        _schema(None not in proj[field], field,
                "projection weights must be finite scalars")
    mlp = payload["mlp"]
    _schema(isinstance(mlp, dict), "mlp", "expected an object")
    _fields(mlp, "mlp.", ("w1", "b1", "w2", "b2"))
    w1, b1, w2 = (_row(mlp[f], f"mlp.{f}", 2) for f in ("w1", "b1", "w2"))
    b2 = _scalar(mlp["b2"], "mlp.b2")
    for field, row in zip(("w1", "b1", "w2", "b2"), (w1, b1, w2, (b2,))):
        _schema(None not in row, f"mlp.{field}",
                "mlp weights must be finite scalars")
    index_base = payload.get("index_base", 0)
    _schema(isinstance(index_base, int) and not isinstance(index_base, bool),
            "index_base", "expected an integer")
    spec = TransformerSpec(
        m=payload["m"], n=payload["n"],
        attention_kind=payload["attention_kind"],
        fold_fmt=formats["fold"], num_fmt=formats["num"],
        den_fmt=formats["den"], out_fmt=formats["out"],
        embedding=embedding, **proj, index_base=index_base,
        mlp=MlpSpec(w1=w1, b1=b1, w2=w2, b2=b2))
    try:
        return spec.validate()
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _check_logits(spec: TransformerSpec) -> TransformerSpec:
    """Every query row times every key row must give an integer coefficient
    of ln 2: only those exponentiate to exact attention weights."""
    for query in spec.embedding[-1].rows:
        for pos, rule in enumerate(spec.embedding):
            try:
                logits = token_logits(spec, [*rule.rows, query])
            except ValueError as exc:   # a sentinel in the query row
                raise SchemaError(f"embedding: {exc}") from exc
            for coeff in logits:
                if coeff is not None and coeff.denominator != 1:
                    raise SchemaError(
                        f"embedding[{pos}]: logit {coeff} is not an "
                        "integer coefficient of ln 2")
    return spec


def export_weights(spec: TransformerSpec) -> str:
    """The spec as a weights document (JSON), exact scalars in their
    textual encoding and the key sentinel as "neglarge"."""
    def enc(v):
        return "neglarge" if v is None else encode_scalar(v)

    def row(values):
        return [enc(v) for v in values]

    doc = {
        "version": 1,
        "m": spec.m,
        "n": spec.n,
        "attention_kind": spec.attention_kind,
        "index_base": spec.index_base,
        "formats": {k: f.descriptor() for k, f in spec.formats.items()},
        "embedding": [
            {"source": [[name, idx] for name, idx in rule.source],
             "rows": [row(r) for r in rule.rows]}
            for rule in spec.embedding
        ],
        "wq": row(spec.wq),
        "wk": row(spec.wk),
        "wv": row(spec.wv),
        "mlp": {
            "w1": row(spec.mlp.w1),
            "b1": row(spec.mlp.b1),
            "w2": row(spec.mlp.w2),
            "b2": enc(spec.mlp.b2),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def import_weights(path) -> TransformerSpec:
    """Read and validate a weights file for running; exact round trip of
    export_weights, with decimal numbers converted exactly through their
    binary representation.  Beyond the document shape that
    import_weights_text checks, every logit the head can form must be an
    integer coefficient of ln 2, so no attention weight of a loaded head
    is refused as non-dyadic when it runs."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read weights file: {exc}") from exc
    return _check_logits(import_weights_text(text))


def import_weights_text(text: str) -> TransformerSpec:
    """import_weights for an in-memory document."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: line {exc.lineno} column "
                          f"{exc.colno}: {exc.msg}") from exc
    return _decode_document(payload)
