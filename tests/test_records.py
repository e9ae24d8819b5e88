"""The package's records are NamedTuples, or subclasses of one, and keep
what each needs beyond tuple semantics: the two formats are never equal to
each other, validation runs on every construction path, defaults are
filled in, a failure's trace stays out of its equality and repr, and a
spec's compiled cache stays out of its copies.  A trace needs nothing
beyond them: it compares by every field and refuses an unknown one."""

import pickle

import pytest

from eqattn import quantlab
from eqattn.attn import EvalTrace, forward
from eqattn.bitnum import FpFormat, FxFormat, InvalidFormat
from eqattn.constructs import CONSTRUCTIONS, PromiseSet, make
from eqattn.oracle import Failure


def test_formats_of_equal_fields_are_distinct():
    fx, fp = FxFormat(4, 2), FpFormat(4, 2)
    assert fx != fp and not fx == fp
    assert {fx: "fx", fp: "fp"} == {FxFormat(4, 2): "fx", FpFormat(4, 2): "fp"}
    assert fx == FxFormat(4, 2) and hash(fx) == hash(FxFormat(4, 2))
    assert repr(fx) == "FxFormat(p=4, scale_log2=2, rounding='nearest')"
    assert repr(fp) == "FpFormat(t=4, e=2, rounding='nearest')"


def test_every_preset_keeps_its_name():
    assert len(quantlab._PRESET_NAMES) == len(quantlab.PRESETS)
    for name, fmt in quantlab.PRESETS.items():
        assert quantlab._format_name(fmt) == name
        if isinstance(fmt, FpFormat):
            assert quantlab._format_name(FxFormat(*fmt)) == f"int{fmt.t}"


@pytest.mark.parametrize("build, message", [
    (lambda: FxFormat(4)._replace(p=1), "p must be at least 2, got 1"),
    (lambda: FpFormat(4, 4)._replace(e=1), "e must be at least 2, got 1"),
    (lambda: FpFormat(4, 4)._replace(t=0), "t must be at least 1, got 0"),
    (lambda: FxFormat._make((4, 0, "up")), "unknown rounding policy 'up'"),
])
def test_formats_validate_every_copy(build, message):
    with pytest.raises(InvalidFormat, match=message):
        build()


def test_formats_survive_pickling():
    for fmt in (FxFormat(5, -3, "trunc"), FpFormat(4, 7)):
        copy = pickle.loads(pickle.dumps(fmt))
        assert copy == fmt and type(copy) is type(fmt)


def test_promise_sets_fill_in_and_check_their_flags():
    promises = PromiseSet("fx-tight")
    assert promises.flags == CONSTRUCTIONS["fx-tight"][2] != ()
    assert promises._replace(flags=()) == promises
    with pytest.raises(ValueError, match="unknown promise flag 'bogus'"):
        promises._replace(flags=("bogus",))
    with pytest.raises(ValueError, match="unknown construction 'bogus'"):
        promises._replace(construction="bogus")


def test_a_failure_is_its_pair_and_bits_not_its_trace():
    spec, _ = make("fx-tight", m=5)
    one = Failure("01010", "01011", 0, 1, forward(spec, "01010", "01011"))
    other = Failure("01010", "01011", 0, 1, forward(spec, "01010", "01010"))
    assert one == other and not one != other and hash(one) == hash(other)
    assert one != one._replace(got=0)
    assert repr(one) == "Failure(y='01010', z='01011', expected=0, got=1)"


def test_a_trace_compares_by_its_fields():
    spec, _ = make("fx-tight", m=5)
    trace = forward(spec, "01010", "01011")
    assert trace == forward(spec, "01010", "01011")
    assert trace != forward(spec, "01011", "01011")
    with pytest.raises(TypeError, match="bogus"):
        EvalTrace(*trace, bogus=1)


def test_spec_copies_start_without_the_compiled_cache():
    spec, _ = make("fx-tight", m=5)
    forward(spec, "01010", "01010")
    assert "_compiled" in vars(spec)
    for copy in (spec._replace(index_base=1),
                 pickle.loads(pickle.dumps(spec))):
        assert "_compiled" not in vars(copy)
    assert pickle.loads(pickle.dumps(spec)) == spec
