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
    # the formats told apart by type, and a size past its bound accepted
    ("bitnum.py",
     "        return type(self) is type(other) and tuple.__eq__(self, other)",
     "        return tuple.__eq__(self, other)",
     ["tests/test_records.py::test_formats_of_equal_fields_are_distinct"]),
    ("bitnum.py",
     "            if size > most:",
     "            if False:",
     ["tests/test_cli_fuzz.py::test_a_width_past_its_bound_is_refused_"
      "where_the_format_is_made"]),
    # a fixed-point top octave past the infinity code accepted, and a
    # weight finer than any format decoded
    ("bitnum.py",
     '              "top_octave": (-INF_CODE_LOG2, INF_CODE_LOG2)}',
     '              "top_octave": (-INF_CODE_LOG2, 2 * INF_CODE_LOG2)}',
     ["tests/test_cli_fuzz.py::test_a_width_past_its_bound_is_refused_"
      "where_the_format_is_made"]),
    ("bitnum.py",
     "    if k > 2 * INF_CODE_LOG2:     # no format holds a finer value",
     "    if False:",
     ["tests/test_cli_fuzz.py::test_a_width_past_its_bound_is_refused_"
      "where_the_format_is_made"]),
    # a weights scalar read by int(), which takes a second sign, separators,
    # spaces and non-ASCII digits
    ("bitnum.py",
     "    if not (sign and n.isdigit() and k.isdigit() and (n + k).isascii()):",
     "    if not sign:",
     ["tests/test_cli_fuzz.py::test_a_width_past_its_bound_is_refused_"
      "where_the_format_is_made"]),
    # the fold-step tables cleared 64 times too often
    ("attn.py",
     "        if self.size >= STEP_LIMIT:",
     "        if self.size >= STEP_LIMIT // 64:",
     ["tests/test_steps.py::test_wide_format_tables_stay_bounded"]),
    # the denominator folded with the numerator's terms
    ("attn.py",
     "    t, f, k = _FOLDS[which]",
     "    t, f, k = _FOLDS[0]",
     ["tests/test_kernel.py::test_native_and_cliff_specs_match_the_"
      "reference"]),
    # value keys that tell too little apart: a value code blind to the
    # inexact flag, an edge stored under the state's code instead of the
    # term's, and the denominator's steps keyed on the numerator's term
    ("attn.py",
     "        (v.sign < 0) << 1 | v.inexact",
     "        (v.sign < 0) << 1",
     ["tests/test_steps.py::test_value_codes_are_equal_exactly_when_"
      "representations_are"]),
    ("attn.py",
     "        node[2][term_code] = nxt = self.node(nxt)",
     "        node[2][node[1]] = nxt = self.node(nxt)",
     ["tests/test_steps.py::test_table_keys_are_value_keys"]),
    ("attn.py",
     "_FOLDS = ((2, 2, 5), (4, 3, 6))",
     "_FOLDS = ((2, 2, 5), (4, 3, 5))",
     ["tests/test_kernel.py::test_native_and_cliff_specs_match_the_"
      "reference"]),
    # the masked lookups: a z reference masked at y's bit, and a string
    # that int(s, 2) reads but that is no bit string let through, by
    # encode and by token_cells
    ("attn.py",
     '        bit = 1 << (2 * m - i if name == "y" else m - i)',
     '        bit = 1 << (2 * m - i if name == "y" else 2 * m - i)',
     ["tests/test_kernel.py::test_compiled_encode_returns_the_rules_own_"
      "rows"]),
    # the index maps: a bit read twice weighted by its last reference only,
    # a position's cells read from the distinct rows by its own row
    # indices, and a node made on a miss left out of the table
    ("attn.py",
     "        weight[bit] = weight.get(bit, 0) | 1 << k",
     "        weight[bit] = 1 << k",
     ["tests/test_cells.py::test_row_lookup_indexes_each_submask_by_the_"
      "per_bit_formula"]),
    ("attn.py",
     "                                if isinstance(c := cells[mine[i]], Cell)})",
     "                                if isinstance(c := cells[i], Cell)})",
     ["tests/test_cells.py::test_every_table_cell_equals_a_fresh_build"]),
    ("attn.py",
     "            self.nodes.setdefault(code, (state, code, {}))",
     "            (state, code, {})",
     ["tests/test_steps.py::test_table_keys_are_value_keys"]),
    ("attn.py",
     '        if bits.strip("01"):',
     "        if False:",
     ["tests/test_kernel.py::test_encode_rejects_characters_that_are_not_"
      "bits"]),
    ("attn.py",
     '    if len(y) == spec.m == len(z) and not bits.strip("01"):',
     "    if len(y) == spec.m == len(z):",
     ["tests/test_kernel.py::test_encode_rejects_characters_that_are_not_"
      "bits"]),
    # resume's indeterminate trace dropping a finished denominator, or
    # answering 1
    ("attn.py",
     "        return EvalTrace(numer, denom, sa, (), None, 0, True, spec, y, "
     "z)",
     "        return EvalTrace(numer, None, sa, (), None, 0, True, spec, y, "
     "z)",
     ["tests/test_kernel.py::test_saturating_quantized_specs_match_the_"
      "reference"]),
    ("attn.py",
     "        return EvalTrace(numer, denom, sa, (), None, 0, True, spec, y, "
     "z)",
     "        return EvalTrace(numer, denom, sa, (), None, 1, True, spec, y, "
     "z)",
     ["tests/test_kernel.py::test_saturating_quantized_specs_match_the_"
      "reference"]),
    # a fold that ignores its incoming state and opens at the root, a
    # segment fold that does, and Bob resuming from fresh folds instead of
    # Alice's partials
    ("attn.py",
     "    return _walk(table, table.node(state), cells, which)",
     "    return _walk(table, table.root, cells, which)",
     ["tests/test_kernel.py::test_native_and_cliff_specs_match_the_"
      "reference"]),
    ("attn.py",
     "        node = nodes[which] or table.root",
     "        node = table.root",
     ["tests/test_commsim.py::TestProtocol::"
      "test_any_prefix_length_gives_the_same_bit"]),
    ("commsim.py",
     "                       bob_bit=resume(spec, num, den, y, z, k).bit)",
     "                       bob_bit=resume(spec, None, None, y, z, k).bit)",
     ["tests/test_commsim.py::TestProtocol::"
      "test_bob_resumes_the_forward_pipeline_from_alices_partials"]),
    # segments: one cut off by one at the protocol cut (alice_len by
    # default), so a segment straddles it or Alice takes one too many, two
    # segments sharing a key, and a segment edge not counted in size; and
    # the tail keyed on the numerator's end alone
    ("attn.py",
     "        starts = [j for j, (_, cs) in enumerate(comp.lookups) if j in "
     "(0, cut)",
     "        starts = [j for j, (_, cs) in enumerate(comp.lookups) if j in "
     "(0, cut + 1)",
     ["tests/test_segments.py::test_the_protocol_matches_the_per_cell_"
      "pipeline_at_every_cut"]),
    ("attn.py",
     "        j = sum(start < cut for start in starts)",
     "        j = sum(start <= cut for start in starts)",
     ["tests/test_segments.py::test_the_protocol_matches_the_per_cell_"
      "pipeline_at_every_cut"]),
    ("attn.py",
     "            keys = {c[k]: next(comp.keys) if rest else c[k]",
     "            keys = {c[k]: -1 - a if rest else c[k]",
     ["tests/test_segments.py::test_segment_folds_match_the_per_cell_"
      "pipeline"]),
    ("attn.py",
     "            self.size += 1      # dropped at STEP_LIMIT like a term's "
     "edge",
     "            pass",
     ["tests/test_package.py::test_memo_tables_key_on_values_not_identity"]),
    ("attn.py",
     "        key = ends[0][1], ends[-1][1]",
     "        key = ends[0][1], None",
     ["tests/test_segments.py::test_segment_folds_match_the_per_cell_"
      "pipeline"]),
    # a stage width refused without its stage, or without its token
    ("attn.py",
     '            raise InvalidFormat(f"{name}: {exc}") from None',
     "            raise",
     ["tests/test_cli_fuzz.py::test_a_width_past_its_bound_is_refused_"
      "where_the_format_is_made"]),
    ("quantlab.py",
     '                raise InvalidFormat(f"{token}: {exc}") from None',
     "                raise",
     ["tests/test_cli_fuzz.py::test_a_width_past_its_bound_is_refused_"
      "where_the_format_is_made"]),
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
    # paths, not its smallest; the buckets made in reverse order of their
    # first pairs; and the denominator's pass dropping a > b as the
    # numerator's does
    ("oracle.py",
     "        was, c = c, width - (~(known & known >> m) & low).bit_length()",
     "        was, c = c, width - (~known & low).bit_length()",
     ["tests/test_buckets.py::test_hand_built_buckets_match_one_fold_per_"
      "pair"]),
    ("oracle.py",
     "        compare = low >> was & ~(low >> c)      # b's bits was..c-1",
     "        compare = low >> was",
     ["tests/test_buckets.py::test_hand_built_buckets_match_one_fold_per_"
      "pair"]),
    ("oracle.py",
     "        keep_open = after[j + 1] | known & (low >> c) * (1 << m | 1)",
     "        keep_open = known & (low >> c) * (1 << m | 1)",
     ["tests/test_buckets.py::test_resumed_buckets_match_one_fold_per_pair"]),
    ("oracle.py",
     "                    entry[4] = sorted(entry[4] + moved)"
     "[:FAILURE_LIST_CAP]",
     "                    entry[4] = (entry[4] + moved)[:FAILURE_LIST_CAP]",
     ["tests/test_buckets.py::test_resumed_buckets_match_one_fold_per_pair"]),
    ("oracle.py",
     "                                        key=lambda e: e[4][0]):",
     "                                        key=lambda e: -e[4][0]):",
     ["tests/test_buckets.py::test_resumed_buckets_match_one_fold_per_pair"]),
    ("oracle.py",
     "                if which == 0 and o == 1:     # the numerator's a <= b",
     "                if o == 1:     # the numerator's a <= b",
     ["tests/test_buckets.py::test_resumed_buckets_match_one_fold_per_pair"]),
    # the pass over the segments forward walks: a segment's key read from
    # the path's code unshifted, the segment masks not clipped to the
    # fields (the denominator's segment at the cut reads z1), and the
    # segments cut at 0, not at alice_len as forward cuts them
    ("oracle.py",
     "                        f = walk(f, seg, code << shift)",
     "                        f = walk(f, seg, code)",
     ["tests/test_buckets.py::test_resumed_buckets_match_one_fold_per_pair"]),
    ("oracle.py",
     "    masks = [mask >> shift & (low << m | low) for mask, _, _ in segs]",
     "    masks = [mask >> shift for mask, _, _ in segs]",
     ["tests/test_buckets.py::test_resumed_buckets_match_one_fold_per_pair"]),
    ("attn.py",
     "    table, cut = (comp.num, comp.den)[which], comp.alice_len",
     "    table, cut = (comp.num, comp.den)[which], 0",
     ["tests/test_segments.py::test_one_segmentation_serves_a_whole_verify_"
      "run"]),
    # the pass merging fold states by ==, blind to the inexact flag and the
    # sign of zero
    ("oracle.py",
     "                key = f[1] if type(f) is tuple else f, o, code",
     "                key = f[0] if type(f) is tuple else f, o, code",
     ["tests/test_buckets.py::test_states_merge_by_value_across_table_"
      "clears"]),
    # the seeded runs: a seed's run taken without certifying it, the gallop
    # keeping the end it failed to certify, the bisection's midpoint
    # rounded up, and every row seeded with the whole row, not the run
    # ends of the row before
    ("oracle.py",
     "        lo, hi, step = (g, npos, 1) if fits(i, g) else (i, g, 0)",
     "        lo, hi, step = (g, npos, 1) if True else (i, g, 0)",
     ["tests/test_combine.py::test_every_row_of_runs_is_certified"]),
    ("oracle.py",
     "            lo, hi, step = (k, hi, 2 * step) if fits(i, k) else "
     "(lo, k, 0)",
     "            lo, hi, step = (k, hi, 2 * step) if fits(i, k) else "
     "(k, k, 0)",
     ["tests/test_combine.py::test_every_row_of_runs_is_certified"]),
    ("oracle.py",
     "            mid = (lo + hi) // 2",
     "            mid = (lo + hi + 1) // 2",
     ["tests/test_combine.py::test_the_seeded_runs_pin_their_"
      "certifications_and_divides"]),
    ("oracle.py",
     "        seeds = [j for _, j, _, _ in runs if j < npos]",
     "        seeds = [npos - 1]",
     ["tests/test_combine.py::test_the_seeded_runs_pin_their_"
      "certifications_and_divides"]),
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
    # a weight of exactly 2**INF_CODE_LOG2 not taken for the infinity code
    ("quantlab.py",
     "    return gap > 0 or gap == 0 and n >= d << INF_CODE_LOG2",
     "    return gap > 0 or gap == 0 and n > d << INF_CODE_LOG2",
     ["tests/test_quantlab.py::TestInfCode::"
      "test_is_inf_code_at_the_boundary"]),
    # an integer target calibrated on a format of the tensor's own scale,
    # which a tensor of tiny weights takes past the bound
    ("quantlab.py",
     "    return _grid_rounder(fx_round, FxFormat(bits), scale_log2)",
     "    return _grid_rounder(fx_round, FxFormat(bits, scale_log2))",
     ["tests/test_quantlab.py::TestIntQuantization::"
      "test_a_tensor_too_small_for_a_format_scale_is_calibrated"]),
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
