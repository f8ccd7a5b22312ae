"""Spans and counters around the public calls of each cubicalg layer.

Nothing under src/ knows about this module.  install() replaces, at run
time, every public module-level function of each layer module with a
wrapper that records a span (name, layer, start, end, parent span, item
id), and wraps a few hot kernel methods with plain counters.  Spans are
kept in memory and written out by the caller when the run ends.

Calls that run once per grid node or per bisection step are not
spanned, since a span would cost more than the call: the potentials are
left unwrapped and sturm_count is only counted.  The kernel modules
multipoly, polyfraction, nfunc and symbols get no spans for the same
reason; their hot methods are counted instead.
"""

import importlib
import inspect
import sys
import time
from collections import Counter

# Layer name -> modules that make up the layer.
LAYERS = {
    "exactnum": (
        "cubicalg.exactnum.linsolve",
        "cubicalg.exactnum.parser",
        "cubicalg.exactnum.upoly",
        "cubicalg.exactnum.interpolate",
    ),
    "weylop": ("cubicalg.weylop",),
    "algebra": ("cubicalg.algebra",),
    "casimir": ("cubicalg.casimir",),
    "ladder": ("cubicalg.ladder",),
    "spectrum": ("cubicalg.spectrum",),
    "repcheck": ("cubicalg.repcheck",),
    "schrodinger": ("cubicalg.schrodinger",),
    "cli": ("cubicalg.cli",),
}

# Public functions that are counted instead of spanned.
COUNTED_FUNCTIONS = {
    ("schrodinger", "sturm_count"): "schrodinger.sturm_count_calls",
}
UNTRACED_FUNCTIONS = {
    ("schrodinger", "x_potential"),
    ("schrodinger", "y_potential"),
    ("schrodinger", "potential"),
}

# (module, class, method names, counter name)
COUNTED_METHODS = (
    ("cubicalg.exactnum.multipoly", "MultiPoly", ("__mul__", "__rmul__"),
     "exactnum.multipoly_mul_calls"),
    ("cubicalg.exactnum.polyfraction", "PolyFraction", ("__init__",),
     "exactnum.polyfraction_builds"),
    ("cubicalg.weylop", "DiffOp", ("__mul__",), "weylop.diffop_mul_calls"),
)
TRY_DIV = ("cubicalg.exactnum.multipoly", "MultiPoly", "try_div")


class Tracer:
    """In-memory span list plus counters; records only while active."""

    def __init__(self):
        # each span: [name, layer, start, end, parent index, item id]
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.item = None
        self.active = False

    def span_wrapper(self, layer, name, fn):
        spans, stack = self.spans, self.stack
        label = "%s.%s" % (layer, name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            record = [label, layer, clock(), None, parent, self.item]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def try_div_wrapper(self, fn):
        counts = self.counts

        def wrapper(self_poly, divisor):
            result = fn(self_poly, divisor)
            if self.active:
                counts["exactnum.try_div_calls"] += 1
                if result is None:
                    counts["exactnum.try_div_failed"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def install(tracer):
    """Wrap the layers in place; every alias of a wrapped function is
    rebound too, so calls through re-exports and `from` imports are seen.
    """
    replace = {}
    for layer, modules in LAYERS.items():
        for modname in modules:
            module = importlib.import_module(modname)
            for name, fn in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != modname
                    or (layer, name) in UNTRACED_FUNCTIONS
                ):
                    continue
                counter = COUNTED_FUNCTIONS.get((layer, name))
                if counter:
                    replace[fn] = tracer.count_wrapper(counter, fn)
                else:
                    replace[fn] = tracer.span_wrapper(layer, name, fn)
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("cubicalg") or module is None:
            continue
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replace:
                setattr(module, name, replace[value])
    for modname, clsname, methods, counter in COUNTED_METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        for method in methods:
            setattr(cls, method,
                    tracer.count_wrapper(counter, vars(cls)[method]))
    modname, clsname, method = TRY_DIV
    cls = getattr(importlib.import_module(modname), clsname)
    setattr(cls, method, tracer.try_div_wrapper(vars(cls)[method]))


def layer_times(spans):
    """Per span: the time its own layer spent in it.

    A span's self time is its duration less its child spans.  Children
    of the same layer are folded into the parent, so that a layer's
    internal helpers count as that layer's own work.
    """
    foreign = [0.0] * len(spans)
    for index in range(len(spans) - 1, -1, -1):
        name, layer, start, end, parent, _ = spans[index]
        if parent < 0:
            continue
        if spans[parent][1] == layer:
            foreign[parent] += foreign[index]
        else:
            foreign[parent] += end - start
    return [s[3] - s[2] - f for s, f in zip(spans, foreign)]


def summarize(spans, counts):
    """Totals by span name: inclusive seconds, calls, and layer self time.

    Inclusive time skips spans nested inside a span of the same name, so
    recursion is not counted twice.  Layer self time is summed over the
    outermost spans of each layer.
    """
    own = layer_times(spans)
    inclusive = Counter()
    calls = Counter()
    self_time = Counter()
    layer_self = Counter()
    for index, (name, layer, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_time[name] += own[index]
        outer_same_name = outer_same_layer = False
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer_same_name = True
            if spans[p][1] == layer:
                outer_same_layer = True
            p = spans[p][4]
        if not outer_same_name:
            inclusive[name] += end - start
        if not outer_same_layer:
            layer_self[layer] += own[index]
    return {
        "inclusive_s": dict(inclusive),
        "calls": dict(calls),
        "self_s": dict(self_time),
        "layer_self_s": dict(layer_self),
        "counts": dict(counts),
    }
