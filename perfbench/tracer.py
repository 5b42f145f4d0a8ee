"""In-memory span recorder that wraps fuscat's public functions from outside.

``Tracer.install()`` replaces every public module-level function of every
loaded ``fuscat.*`` module with a wrapper that records one span per call:
(name, start, end, parent, op, detail).  The wrapper is also written into
every other ``fuscat.*`` module that imported the function by name, so a call
such as ``verify``'s call to ``coset_partition`` is caught.  ``CycNum``
multiplication and inversion are counted, not timed.  ``uninstall()`` puts
every original back.  Spans stay in memory until ``flush``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Called inside every CycNum construction: a span around each would cost
# more than the arithmetic it measures, and they are no layer boundary.
_UNTRACED = {"exactnum.euler_phi", "exactnum.cyclotomic_polynomial",
             "exactnum.poly_eval"}

# Argument position of the subcategory whose members become the span detail,
# so repeat ratios can be taken per (target, subcategory).
_KEYED = {"cosets.coset_partition": 1, "chartab.support_JD": 2}

_COUNTED = (("__mul__", "mul"), ("__rmul__", "mul"), ("inverse", "inverse"))

PACKAGE = "fuscat"


def _public_functions(module):
    prefix = module.__name__.split(".", 1)[1]
    for attr, value in vars(module).items():
        if (attr.startswith("_") or isinstance(value, type)
                or not callable(value)
                or getattr(value, "__module__", None) != module.__name__):
            continue
        name = f"{prefix}.{attr}"
        if name not in _UNTRACED:
            yield name, value


class Tracer:
    """Records spans and operation counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = []
        self._undo: list = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        key_at = _KEYED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                detail = None
                if key_at is not None and len(args) > key_at:
                    detail = tuple(args[key_at].members)
                spans[index] = (name, start, end, parent, self.op, detail)
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == PACKAGE or n.startswith(PACKAGE + "."))
                   and m is not None]
        wrapped = {}
        for module in modules:
            if module.__name__ == PACKAGE:
                continue
            for name, fn in _public_functions(module):
                wrapped[id(fn)] = self._span(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        cycnum = sys.modules[PACKAGE + ".exactnum"].CycNum
        for attr, key in _COUNTED:
            original = cycnum.__dict__[attr]
            self._undo.append((cycnum, attr, original))
            setattr(cycnum, attr, self._counter(key, original))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def flush(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, detail in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "detail": detail}) + "\n")
