"""Outside-in span tracing of dgal's layers for the traced benchmark run.

``install`` replaces the public functions listed in ``TARGETS`` with
wrappers that record one span per call: name, parent span, start and end.
It also rebinds every name that a ``from ... import`` copied into another
dgal module, so calls through ``pipeline``, ``groups``, ``solve`` and
``relations`` are seen too.  Spans stay in memory; ``summary`` derives
per-layer calls, busy time and self time from them when the instance is
done.

Busy time of a layer counts only its outermost spans, so a recursive call
is not counted twice.  Self time is a span's duration minus the durations
of its direct children.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute path, metric prefix)
TARGETS = [
    ("dgal.linalg", "RrefAccumulator.add_row", "linalg.add_row"),
    ("dgal.linalg", "rref", "linalg.rref"),
    ("dgal.relations", "order_bound", "relations.order_bound"),
    ("dgal.relations", "relation_ideal", "relations.relation_ideal"),
    ("dgal.multipoly", "groebner", "multipoly.groebner"),
    ("dgal.multipoly", "s_polynomial", "multipoly.s_polynomial"),
    ("dgal.multipoly", "normal_form", "multipoly.normal_form"),
    ("dgal.fields", "split_univariate", "fields.split_univariate"),
    ("dgal.solve", "solve_zero_dimensional", "solve.solve_zero_dimensional"),
    ("dgal.systems", "OdeSystem.fundamental_series",
     "systems.fundamental_series"),
    ("dgal.series", "Series.__mul__", "series.Series.mul"),
    ("dgal.groups", "stabilizer_group", "groups.stabilizer_group"),
    ("dgal.groups", "verify_group_axioms", "groups.verify_group_axioms"),
    ("dgal.groups", "identity_component", "groups.identity_component"),
    ("dgal.groups", "characters_generators", "groups.characters_generators"),
    ("dgal.hyperexp", "logderiv_from_character",
     "hyperexp.logderiv_from_character"),
    ("dgal.hyperexp", "relation_lattice", "hyperexp.relation_lattice"),
    ("dgal.pipeline", "find_alpha_fbar", "pipeline.find_alpha_fbar"),
    ("dgal.pipeline", "finite_part", "pipeline.finite_part"),
    ("dgal.pipeline", "sandwich_check", "pipeline.sandwich_check"),
]

LAYERS = [name for _mod, _attr, name in TARGETS]


class Recorder:
    """Spans of one instance, kept in memory until ``summary``."""

    def __init__(self):
        # each span: [name, parent index, start, end, nested in same name]
        self.spans = []
        self.stack = []
        self.active = defaultdict(int)
        self.counts = defaultdict(int)   # layer-specific counters
        self.maxima = defaultdict(int)

    def wrap(self, name, fn, before=None, after=None, on_error=None):
        rec = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(rec, args, kwargs)
            idx = len(rec.spans)
            span = [name, rec.stack[-1] if rec.stack else -1, 0.0, 0.0,
                    rec.active[name] > 0]
            rec.spans.append(span)
            rec.stack.append(idx)
            rec.active[name] += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if on_error is not None:
                    on_error(rec, err)
                raise
            finally:
                span[3] = clock()
                rec.active[name] -= 1
                rec.stack.pop()
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def summary(self):
        """Per-layer ``calls``, ``busy_s`` and ``self_s``, plus counters.

        Every layer in ``LAYERS`` is listed, called or not."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, parent, start, end, nested in self.spans:
            calls[name] += 1
            if not nested:
                busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, _parent, start, end, _nested) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        out = {}
        for name in LAYERS + sorted(set(calls) - set(LAYERS)):
            out[name + ".calls"] = calls[name]
            out[name + ".busy_s"] = busy[name]
            out[name + ".self_s"] = self_s[name]
        out["counts"] = dict(self.counts)
        out["maxima"] = dict(self.maxima)
        return out


def _add_row_after(rec, _args, _kwargs, grew):
    if grew:
        rec.counts["add_row.useful"] += 1


def _groebner_after(rec, _args, _kwargs, basis):
    rec.counts["groebner.basis_len"] += len(basis)


def _split_after(rec, _args, _kwargs, result):
    rec.maxima["split_univariate.max_degree"] = max(
        rec.maxima["split_univariate.max_degree"], result[0].degree())


def _series_before(rec, args, kwargs):
    order = kwargs["order"] if "order" in kwargs else args[2]
    rec.counts["fundamental_series.order_sum"] += order


def _solve_error(rec, err):
    from dgal.solve import PositiveDimensionalError
    if isinstance(err, PositiveDimensionalError):
        rec.counts["solve_zero_dimensional.positive_dimensional"] += 1


HOOKS = {
    "linalg.add_row": {"after": _add_row_after},
    "multipoly.groebner": {"after": _groebner_after},
    "fields.split_univariate": {"after": _split_after},
    "systems.fundamental_series": {"before": _series_before},
    "solve.solve_zero_dimensional": {"on_error": _solve_error},
}


def install(recorder):
    """Wrap every target in ``TARGETS`` and rebind copies of it."""
    replaced = {}
    for modname, attr, name in TARGETS:
        owner = importlib.import_module(modname)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[last]
        wrapper = recorder.wrap(name, original, **HOOKS.get(name, {}))
        setattr(owner, last, wrapper)
        if not path:
            replaced[id(original)] = (original, wrapper)
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("dgal") or module is None:
            continue
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
