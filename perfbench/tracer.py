"""Outside-in tracer for the `eqattn` layers.

The tracer wraps the public functions named in LAYERS without editing the
package.  Modules import names by value (`from .attn import forward`), and
`attn._ops` hands out the `bitnum` kernels it finds in its own globals. So
install() rebinds every name in every `eqattn.*` module and class namespace
that holds an original function. It then fails if any such reference is
left unwrapped.

Each wrapper aggregates three figures: a call count, total time and self
time. Self time is total time minus the time its wrapped callees took. The
coarse boundaries in SPANNED also keep one span per call in memory, with a
span id and the id of the enclosing span. Spans are written out once, at
the end. The bitnum scalar ops run about 1.4M times per factored run, too
often to keep a span for each, so they are only aggregated.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

PACKAGE = "eqattn"

# layer (module) -> traced functions; "Class.method" wraps a method.
LAYERS = {
    "bitnum": ("fx_round", "fp_round", "fx_add", "fp_add", "fx_mul",
               "fp_mul", "fx_div", "fp_div", "exp_logit_exact"),
    "attn": ("forward", "token_logits", "TransformerSpec.encode",
             "finish_softmax", "mlp_eval"),
    "constructs": ("make", "PromiseSet.check"),
    "oracle": ("verify_exhaustive", "verify_exhaustive_spec",
               "verify_sampled"),
    "commsim": ("run_protocol",),
    "quantlab": ("quantize_spec", "gen_dataset", "eval_accuracy", "sweep"),
    "cli": ("main",),
}

SPANNED = frozenset({
    "cli.main", "oracle.verify_exhaustive", "oracle.verify_exhaustive_spec",
    "oracle.verify_sampled", "commsim.run_protocol", "attn.forward",
})

# Wrappers that also count falsy results: PromiseSet.check returns the
# violated flags, so an empty list is an admissible draw.
COUNT_ACCEPTS = frozenset({"constructs.check"})


class TracerIncomplete(RuntimeError):
    """A traced function is missing, or still reachable unwrapped."""


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "accepts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.accepts = 0


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []   # (id, parent id, key, start, end)
        # One frame per active wrapped call: [time of wrapped callees,
        # id of the innermost enclosing span]; the root frame is id 0.
        self._stack = [[0.0, 0]]
        self._ids = itertools.count(1)
        self._wrappers = {}            # id(original) -> (key, orig, wrapper)

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.split(".")[0] == PACKAGE}
        for layer, names in LAYERS.items():
            mod = modules.get(f"{PACKAGE}.{layer}")
            for qual in names:
                *owner_path, attr = qual.split(".")
                owner = mod
                for part in owner_path:
                    owner = getattr(owner, part, None)
                fn = vars(owner).get(attr) if owner is not None else None
                if not callable(fn):
                    raise TracerIncomplete(f"{PACKAGE}.{layer}.{qual} "
                                           "is not a function")
                key = f"{layer}.{attr}"
                self._wrappers[id(fn)] = (key, fn, self._wrap(fn, key))
        for _, ns in self._namespaces(modules):
            for name, value in list(vars(ns).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(ns, name, hit[2])
        self.check_complete(modules)

    @staticmethod
    def _namespaces(modules):
        for mod_name, mod in modules.items():
            yield mod_name, mod
            for value in list(vars(mod).values()):
                if isinstance(value, type) and \
                        value.__module__.split(".")[0] == PACKAGE:
                    yield f"{mod_name}.{value.__name__}", value

    def check_complete(self, modules) -> None:
        """Raise if a module or class namespace, or a container held in
        one, still references an original traced function."""
        for ns_name, ns in self._namespaces(modules):
            for name, value in vars(ns).items():
                held = [value]
                if isinstance(value, dict):
                    held += list(value.values())
                elif isinstance(value, (list, tuple, set, frozenset)):
                    held += list(value)
                for v in held:
                    hit = self._wrappers.get(id(v))
                    if hit is not None and hit[1] is v:
                        raise TracerIncomplete(
                            f"{ns_name}.{name} still holds the unwrapped "
                            f"{hit[0]}")

    def _wrap(self, fn, key):
        stat = self.stats.setdefault(key, Stat())
        stack, clock = self._stack, time.perf_counter
        if key in SPANNED:
            spans, ids = self.spans, self._ids

            def spanned(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, next(ids)]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    dt = end - start
                    stat.calls += 1
                    stat.total_s += dt
                    stat.self_s += dt - frame[0]
                    parent[0] += dt
                    spans.append((frame[1], parent[1], key, start, end))
            return spanned

        if key in COUNT_ACCEPTS:
            def counted(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    stat.accepts += not result
                    return result
                finally:
                    dt = clock() - start
                    stack.pop()
                    stat.calls += 1
                    stat.total_s += dt
                    stat.self_s += dt - frame[0]
                    parent[0] += dt
            return counted

        def aggregated(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame[0]
                parent[0] += dt
        return aggregated

    def durations_us(self, key: str) -> list[float]:
        return [(end - start) * 1e6
                for _, _, k, start, end in self.spans if k == key]

    def write_spans(self, path, trace_id: str) -> None:
        """One JSON object per span; times in µs since the tracer started."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, key, start, end in self.spans:
                fh.write(json.dumps({
                    "trace": trace_id, "span": sid, "parent": parent,
                    "name": key,
                    "start_us": round((start - self.origin) * 1e6, 3),
                    "end_us": round((end - self.origin) * 1e6, 3),
                }) + "\n")
