"""The one promise-pair enumerator: exhaustive order and cap, the sampled
stream, and the budget errors every verify and protocol path shares."""

import random
from itertools import product

import pytest

from eqattn.constructs import EqInstance, PromiseSet, make
from eqattn.oracle import BudgetExceeded, promise_pairs


def _brute_force(promises, m):
    strings = ["".join(bits) for bits in product("01", repeat=m)]
    return [(y, z) for y in strings for z in strings
            if y <= z and not promises.check(EqInstance(y, z))]


@pytest.mark.parametrize("name,size", [
    ("fx-simple", {"m": 5}),
    ("fx-tight", {"m": 5}),
    ("fp-linear", {"t": 4, "e": 3}),
    ("fp-linear", {"t": 3, "e": 3}),
])
def test_exhaustive_pairs_are_the_promise_filter_in_order(name, size):
    spec, promises = make(name, **size)
    want = _brute_force(promises, spec.m)
    assert list(promise_pairs(promises, spec.m)) == want
    assert list(promise_pairs(promises, spec.m, cap=len(want))) == want
    with pytest.raises(BudgetExceeded, match=f"^{len(want)} promise pairs"):
        promise_pairs(promises, spec.m, cap=len(want) - 1)


def test_exhaustive_pairs_are_made_as_they_are_consumed():
    spec, promises = make("fx-tight", m=11)
    pairs = promise_pairs(promises, spec.m)
    assert iter(pairs) is pairs
    assert next(pairs) == ("0" * 11, "0" * 11)
    assert sum(1 for _ in pairs) == 2_098_176 - 1


def test_exhaustive_cap_is_checked_before_listing():
    spec, promises = make("fp-softmax", t=4, e=7)
    with pytest.raises(BudgetExceeded, match="479771776 promise pairs"):
        promise_pairs(promises, spec.m, cap=10 ** 6)


def test_pair_scoped_promises_are_counted_in_closed_form():
    """fx-tight's flags (m odd, y <= z) admit every string on each side,
    so m=41 is refused at once, with 2^40 (2^41 + 1) pairs, and an even m
    has none.  Only the fixed-point families' default flags read the
    length and the order alone; each floating-point family has a flag
    that reads y or z."""
    _, promises = make("fx-tight", m=41)
    with pytest.raises(BudgetExceeded,
                       match=f"^{(1 << 40) * ((1 << 41) + 1)} promise pairs"):
        promise_pairs(promises, 41)
    assert list(promise_pairs(PromiseSet("fx-simple"), 4)) == []
    scoped = {name: PromiseSet(name, 4, 7).pair_scoped
              for name in ("fx-simple", "fx-tight", "fp-linear", "fp-softmax")}
    assert scoped == {"fx-simple": True, "fx-tight": True,
                      "fp-linear": False, "fp-softmax": False}


def test_more_strings_than_the_cap_are_refused_before_counting():
    spec, promises = make("fp-linear", t=4, e=3)
    with pytest.raises(BudgetExceeded, match=f"^{1 << spec.m} strings"):
        promise_pairs(promises, spec.m, cap=(1 << spec.m) - 1)


def _reference_draws(promises, m, count, rng):
    """Rejection sampling as the verifier and the protocol command have
    always drawn: two getrandbits(m) per draw, put in order, then check."""
    pairs = []
    while len(pairs) < count:
        y = format(rng.getrandbits(m), f"0{m}b")
        z = format(rng.getrandbits(m), f"0{m}b")
        if y > z:
            y, z = z, y
        if not promises.check(EqInstance(y, z)):
            pairs.append((y, z))
    return pairs


@pytest.mark.parametrize("name,size", [
    ("fx-tight", {"m": 7}),
    ("fp-linear", {"t": 4, "e": 3}),
    ("fp-softmax", {"t": 4, "e": 7}),
])
def test_sampled_stream_and_rng_state_are_unchanged(name, size):
    spec, promises = make(name, **size)
    ours, ref = random.Random(3), random.Random(3)
    assert promise_pairs(promises, spec.m, 300, ours) == \
        _reference_draws(promises, spec.m, 300, ref)
    assert ours.getrandbits(64) == ref.getrandbits(64)


def test_too_sparse_to_sample_is_a_budget_error():
    never = PromiseSet("fx-simple")  # m_odd fails for every 4-bit pair
    with pytest.raises(BudgetExceeded, match="too sparse"):
        promise_pairs(never, 4, 1, random.Random(0))


def test_protocol_exhaustive_respects_the_pair_cap(run_cli):
    code, out, err = run_cli("protocol", "--construction", "fp-softmax",
                             "--t", "4", "--e", "7", "--exhaustive")
    assert code == 2
    assert out == ""
    assert "479771776 promise pairs exceed the cap" in err
