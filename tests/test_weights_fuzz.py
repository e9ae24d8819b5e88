"""Seeded fuzz of the weights document: every mutated export is refused
with SchemaError or imports to a spec whose export round-trips."""

import copy
import json
import math
import random

from eqattn.constructs import make
from eqattn.quantlab import SchemaError, export_weights, import_weights_text

FAMILIES = (("fx-tight", {"m": 5}), ("fx-simple", {"m": 3}),
            ("fp-linear", {"t": 3, "e": 2}))

# Replacement values: wrong types, non-finite numbers and strings, scalar
# strings that are not dyadic encodings, in-range values that may pass,
# and format descriptors of either kind, good and bad (a size past its
# bound among them).
POISON = (
    True, False, None, math.nan, math.inf, -math.inf, "+inf", "-inf",
    "neglarge", "NaN", "1/3", "+1/3", "+3/2^-1", "+1/2^", "-0", "0.5", "",
    [], [0, 0, 0], [0, 0], ["+1/2^0"], {}, {"p": 4}, 0, 1, -1, 2, 0.5,
    0.1, 2 ** 70, 1e308, "+1/2^0", "-3/2^2", "y", "z", ["y", 0], ["z", 1],
    ["y", True], "softmax", "linear", "fx:p=zz",
    "fx:p=4,scale=2^0,round=nearest", "fx:p=3,scale=2^-1,round=trunc",
    "fx:p=0,scale=2^0,round=nearest", "fp:t=4,e=3,round=nearest",
    "fp:t=3,e=2,round=sideways",
    "fx:p=3,scale=2^99999999999999999999,round=nearest",
    "fp:t=4,e=99999999999999999999,round=nearest",
)


def _keys(node):
    return list(node) if isinstance(node, dict) else range(len(node))


def _mutate(doc: dict, rng: random.Random) -> dict:
    """doc with one node below the root replaced by a poison value or
    deleted: a random walk from the root goes one level deeper with
    probability 2/3."""
    parent, key = doc, rng.choice(_keys(doc))
    while isinstance(parent[key], (dict, list)) and parent[key] and \
            rng.random() < 2 / 3:
        parent = parent[key]
        key = rng.choice(_keys(parent))
    if rng.random() < 0.2:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(rng.choice(POISON))
    return doc


def corpus(count: int = 2000, seed: int = 12):
    """count seeded documents, each an export of one of FAMILIES with one
    or two mutations."""
    rng = random.Random(seed)
    bases = [export_weights(make(name, **size)[0])
             for name, size in FAMILIES]
    for _ in range(count):
        doc = json.loads(rng.choice(bases))
        for _ in range(rng.choice((1, 1, 2))):
            doc = _mutate(doc, rng)
        yield json.dumps(doc)


def test_mutated_documents_are_refused_or_round_trip():
    accepted = refused = 0
    for text in corpus():
        try:
            spec = import_weights_text(text)
        except SchemaError:
            refused += 1
            continue
        accepted += 1
        out = export_weights(spec)
        assert export_weights(import_weights_text(out)) == out
    assert accepted > 50 and refused > 50, (accepted, refused)
