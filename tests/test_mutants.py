"""A standing mutation check: each entry of MUTANTS is a one-line fault in
src/eqattn/ that the tests it names must kill.

By default only the table is checked: each old line occurs exactly once in
src/eqattn/, in the file the entry names, so a refactor that rewrites a
mutated line must update its entry; and each killer names a test that
exists.  Setting the environment variable EQATTN_MUTANTS to a non-empty
value also applies every mutant to its own copy of src/ and runs only its
killers on it, in a subprocess; each run must fail, e.g.

    EQATTN_MUTANTS=1 PYTHONPATH=src python -m pytest tests/test_mutants.py

Mutation testing: DeMillo, Lipton & Sayward, "Hints on Test Data
Selection", IEEE Computer, 1978.
"""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import eqattn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.dirname(eqattn.__file__)

# (file under src/eqattn/, the exact old line, the new line, killers)
MUTANTS = [
    # scalar rounding, one entry per rounding body that holds the line: the
    # nearest tie broken away from zero in both dyadic bodies, a float
    # flushed to zero one octave early in both float bodies, an inexact
    # quotient flagged exact, the fixed-point carry past the top octave
    # checked one bit early, and a negative sum added as a positive one
    ("bitnum.py",
     "        if rounding == NEAREST and rem > 1 << (drop - 1):",
     "        if rounding == NEAREST and rem >= 1 << (drop - 1):",
     ["tests/test_bitnum.py::TestRoundingDifferential::"
      "test_nearest_ties_go_toward_zero"]),
    ("bitnum.py",
     "        if rounding == NEAREST and rem > 1 << (extra - 1):",
     "        if rounding == NEAREST and rem >= 1 << (extra - 1):",
     ["tests/test_bitnum.py::TestRoundingDifferential::"
      "test_nearest_ties_go_toward_zero"]),
    ("bitnum.py",
     "    if msb < -q:",
     "    if msb <= -q:",
     ["tests/test_acceptance.py::test_criterion_03_floating_point_families"]),
    ("bitnum.py",
     "    if msb < -emax:",
     "    if msb <= -emax:",
     ["tests/test_bitnum.py::TestExhaustiveOps::"
      "test_ops_give_the_reference_representation"]),
    ("bitnum.py",
     "    return FxNum(fmt, _FINITE, sign, q >> low, exp2 + low, r != 0)",
     "    return FxNum(fmt, _FINITE, sign, q >> low, exp2 + low, False)",
     ["tests/test_bitnum.py::TestExhaustiveOps::"
      "test_ops_give_the_reference_representation"]),
    ("bitnum.py",
     "            if sig.bit_length() + lsb > budget:     # carried past the top",
     "            if sig.bit_length() + lsb >= budget:",
     ["tests/test_bitnum.py::TestRoundingDifferential::"
      "test_fx_round_matches_reference"]),
    ("bitnum.py",
     "            return round_dyadic(-1, -total, e, fmt)",
     "            return round_dyadic(1, -total, e, fmt)",
     ["tests/test_bitnum.py::TestArithmetic::"
      "test_fx_ops_round_the_exact_result_once"]),
    # the formats told apart by type
    ("bitnum.py",
     "        return type(self) is type(other) and tuple.__eq__(self, other)",
     "        return tuple.__eq__(self, other)",
     ["tests/test_records.py::test_formats_of_equal_fields_are_distinct"]),
    # the fold-step tables cleared 64 times too often
    ("attn.py",
     "        if len(self.steps) >= STEP_LIMIT:",
     "        if len(self.steps) >= STEP_LIMIT // 64:",
     ["tests/test_steps.py::test_wide_format_tables_stay_bounded"]),
    # the denominator folded with the numerator's terms and stage
    ("attn.py",
     "    table, (stage, t, f, k) = (comp.num, comp.den)[which], "
     "_FOLDS[which]",
     "    table, (stage, t, f, k) = (comp.num, comp.den)[which], _FOLDS[0]",
     ["tests/test_kernel.py::test_native_and_cliff_specs_match_the_"
      "reference"]),
    # value keys that tell too little apart: a constant run keyed without
    # its end, so a prefix that cuts the run reads the whole run's entry,
    # and the denominator's steps keyed on the numerator's term
    ("attn.py",
     "                run_key = (entry[1], a, b)",
     "                run_key = (entry[1], a)",
     ["tests/test_kernel.py::test_protocol_gives_the_forward_bit_at_every_"
      "prefix"]),
    ("attn.py",
     '_FOLDS = (("numerator", 2, 2, 5), ("denominator", 4, 3, 6))',
     '_FOLDS = (("numerator", 2, 2, 5), ("denominator", 4, 3, 5))',
     ["tests/test_kernel.py::test_native_and_cliff_specs_match_the_"
      "reference"]),
    # forward's indeterminate trace dropping a finished denominator
    ("attn.py",
     "        return EvalTrace(num, den, sa, (), None, 0, True, spec, cells)",
     "        return EvalTrace(num, None, sa, (), None, 0, True, spec, cells)",
     ["tests/test_kernel.py::test_saturating_quantized_specs_match_the_"
      "reference"]),
    # head_class certifying output bounds on both sides of 1
    ("attn.py",
     "    if high.is_inf or (low.as_fraction() - 1) * (high.as_fraction() - 1)"
     " <= 0:",
     "    if high.is_inf:",
     ["tests/test_head_class.py", "tests/test_combine.py"]),
    # a failure equal to another only with the same trace
    ("oracle.py",
     "        return type(other) is Failure and self[:4] == other[:4]",
     "        return tuple.__eq__(self, other)",
     ["tests/test_records.py::test_a_failure_is_its_pair_and_bits_not_its_"
      "trace"]),
    # the pair-by-pair tally listing every failure, not the first 32
    ("oracle.py",
     "            if len(listed) < FAILURE_LIST_CAP:",
     "            if True:",
     ["tests/test_jobs.py::test_a_failing_run_lists_its_first_failures"]),
    # a split with the numerator's last bit on the denominator's first
    ("oracle.py",
     "    return s if s < min(den, default=spec.m) else None",
     "    return s if s <= min(den, default=spec.m) else None",
     ["tests/test_oracle.py::TestFoldSplit::"
      "test_no_split_without_two_ordered_folds"]),
    # the bucket pass: bits compared once b's are read, though a's are not;
    # the order decided on bits not yet compared; a compared bit dropped
    # though a later position reads it; a merged state keeping its first
    # paths, not its smallest; the buckets made and an error raised in
    # reverse order of their first pairs; and the denominator's pass
    # dropping a > b as the numerator's does
    ("oracle.py",
     "        was, c = c, width - (~(known & known >> width) & low)"
     ".bit_length()",
     "        was, c = c, width - (~known & low).bit_length()",
     ["tests/test_buckets.py::test_hand_built_buckets_match_one_fold_per_"
      "pair"]),
    ("oracle.py",
     "        compare = low >> was & ~(low >> c)      # b's bits was..c-1",
     "        compare = low >> was",
     ["tests/test_buckets.py::test_hand_built_buckets_match_one_fold_per_"
      "pair"]),
    ("oracle.py",
     "        keep_open = after[j + 1] | known & (low >> c) * (low + 2)",
     "        keep_open = known & (low >> c) * (low + 2)",
     ["tests/test_buckets.py::test_resumed_buckets_match_one_fold_per_pair"]),
    ("oracle.py",
     "                entry[4] = sorted(entry[4] + moved)[:FAILURE_LIST_CAP]",
     "                entry[4] = (entry[4] + moved)[:FAILURE_LIST_CAP]",
     ["tests/test_buckets.py::test_resumed_buckets_match_one_fold_per_pair"]),
    ("oracle.py",
     "                                        key=lambda e: e[4][0]):",
     "                                        key=lambda e: -e[4][0]):",
     ["tests/test_buckets.py::test_a_stage_error_surfaces_at_the_same_pair_"
      "and_token"]),
    ("oracle.py",
     "                if which == 0 and o == 1:     # the numerator's a <= b",
     "                if o == 1:     # the numerator's a <= b",
     ["tests/test_buckets.py::test_resumed_buckets_match_one_fold_per_pair"]),
    # the pass merging fold states by ==, blind to the inexact flag and the
    # sign of zero
    ("oracle.py",
     "                key = f[1] if type(f) is tuple else f",
     "                key = f[0] if type(f) is tuple else f",
     ["tests/test_buckets.py::test_states_merge_by_value_across_table_"
      "clears"]),
    # the run counts off by one column, and every pair counted saturated
    ("oracle.py",
     "                n = cnt1 * (cum[j + 1] - cum[i])",
     "                n = cnt1 * (cum[j] - cum[i])",
     ["tests/test_combine.py"]),
    ("oracle.py",
     "                saturated += n * sat",
     "                saturated += n",
     ["tests/test_oracle.py::TestExhaustive::"
      "test_native_precision_has_zero_failures"]),
    # the spot check of the factored pass drawing no pair
    ("oracle.py",
     "                 for _ in range(64))",
     "                 for _ in range(0))",
     ["tests/test_oracle.py::TestExhaustive::"
      "test_spot_check_catches_a_miss_of_the_factored_pass"]),
    # a private name of another module imported
    ("oracle.py",
     "from .constructs import PromiseSet, float_fields, make, "
     "native_precision",
     "from .constructs import _FLAGS, PromiseSet, float_fields, make, "
     "native_precision",
     ["tests/test_package.py::"
      "test_no_module_imports_a_private_name_of_another"]),
    # a prefix length past the sequence accepted
    ("commsim.py",
     "    elif not 1 <= k <= spec.n + 1:",
     "    elif not 1 <= k <= spec.n + 2:",
     ["tests/test_commsim.py::TestProtocol::"
      "test_prefix_lengths_past_the_sequence_are_rejected"]),
    # the command line: --jobs 0 accepted, and sweep's --samples ignored
    # without a (t, e) subject
    ("cli.py",
     '    if getattr(args, "jobs", 1) < 1:',
     '    if getattr(args, "jobs", 1) < 0:',
     ["tests/test_jobs.py::test_jobs_below_one_is_a_usage_error"]),
    ("cli.py",
     "    if args.samples and args.t is None and args.e is None:",
     "    if False:",
     ["tests/test_cli_fuzz.py::test_pinned_usage_errors"]),
    # weights files: a row not checked to be an array, a float not checked
    # to be finite, and a spec error escaping as a bare ValueError
    ("quantlab.py",
     '    _schema(isinstance(row, list), where, "expected an array")',
     '    _schema(True, where, "expected an array")',
     ["tests/test_weights_fuzz.py"]),
    ("quantlab.py",
     "    if isinstance(v, float) and not math.isfinite(v):",
     "    if False:",
     ["tests/test_weights_fuzz.py"]),
    ("quantlab.py",
     "        raise SchemaError(str(exc)) from exc",
     "        raise",
     ["tests/test_weights_fuzz.py"]),
]


def _test_names(path):
    """Node ids below path: test functions, and Class::method."""
    tree = ast.parse(Path(ROOT, path).read_text(), path)
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{n.name}" for n in node.body
                         if isinstance(n, ast.FunctionDef))
    return names


def test_every_mutant_names_one_line_and_existing_killers():
    sources = {name: Path(PKG, name).read_text().split("\n")
               for name in os.listdir(PKG) if name.endswith(".py")}
    for name, old, new, killers in MUTANTS:
        assert old != new and killers
        places = {f: lines.count(old) for f, lines in sources.items()
                  if old in lines}
        assert places == {name: 1}, (name, old)
        for killer in killers:
            path, _, test = killer.partition("::")
            assert os.path.isfile(os.path.join(ROOT, path)), killer
            assert not test or test in _test_names(path), killer


@pytest.mark.skipif(not os.environ.get("EQATTN_MUTANTS"),
                    reason="set EQATTN_MUTANTS to run the mutants")
def test_no_mutant_survives_its_killers(tmp_path):
    survivors = []
    for i, (name, old, new, killers) in enumerate(MUTANTS):
        src = tmp_path / str(i)
        shutil.copytree(PKG, src / "eqattn",
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "eqattn" / name
        lines = target.read_text().split("\n")
        lines[lines.index(old)] = new
        target.write_text("\n".join(lines))
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *killers], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=600)
        if run.returncode != 1:   # 1: tests ran and one failed
            survivors.append((name, new, run.returncode,
                              run.stdout[-400:] + run.stderr[-400:]))
    assert survivors == []
