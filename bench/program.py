"""The backaction names the benchmark calls, and the spans around those calls.

Every program name the benchmark uses is listed under ``api`` in
``spec.json`` and resolved here once, at start-up.  A refactor that renames
or removes one of them stops the benchmark with that name, and a call to a
name missing from the list is a ``KeyError`` in the benchmark, so the list
stays complete.
"""

import importlib
import time


def resolve(names):
    """Map each ``module.attribute`` name to the object it names in backaction."""
    table = {}
    for name in names:
        module, _, attribute = name.partition(".")
        table[name] = getattr(
            importlib.import_module(f"backaction.{module}"), attribute)
    return table


class Calls:
    """Calls into the program by listed name, with an optional span per call.

    Untraced, a call costs one extra Python call.  Traced, it also appends
    ``(span name, start ns, end ns, op index)`` to ``spans``; ``tag`` is
    appended to the span name to split one function by grid size or
    scenario.  Spans stay in memory until the run ends.
    """

    def __init__(self, api, traced):
        self.api = api
        self.spans = [] if traced else None
        self.op = None

    def __call__(self, name, *args, tag=None, **kwargs):
        function = self.api[name]
        if self.spans is None:
            return function(*args, **kwargs)
        start = time.perf_counter_ns()
        result = function(*args, **kwargs)
        end = time.perf_counter_ns()
        span = name if tag is None else f"{name}.{tag}"
        self.spans.append((span, start, end, self.op))
        return result
