"""In-memory span tracing of the dropclass layers, installed from outside.

``instrumented(tracer)`` replaces the public functions of the traced
modules (and two ``DropState`` methods) with wrappers that record one span
per call: name, parent span, start and end.  Every module of the package
that bound the original function by name (``from .model import
load_checkpoint``) gets the wrapper too, so calls are traced whichever
name they go through.  The originals are restored on exit.

Functions called once per trial would pay more for a span than they cost,
so they only count calls; their time shows in the enclosing span's self
time.
"""

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np

TRACED_MODULES = ("trainer", "embedder", "head", "schedule", "evaluation", "corpus", "model")
TRACED_METHODS = (("schedule", "DropState", "refresh"), ("schedule", "DropState", "build_view"))
COUNT_ONLY = {"evaluation.cosine_score"}


def _frames(params, features, *args, **kwargs):
    batch, frames = np.shape(features)[:2]
    return batch * frames


def _file_bytes(path, *args, **kwargs):
    return os.path.getsize(path)


# span name -> (counter name, function of the call's arguments)
WORK_COUNTS = {
    "embedder.forward_batch": ("embedder.forward_batch.frames", _frames),
    "corpus.read_corpus": ("corpus.read_corpus.bytes", _file_bytes),
}


class Tracer:
    """Spans as ``[name, parent_index, start_s, end_s]`` plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.wall_s = 0.0
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if name in COUNT_ONLY:
            calls_key = name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)
            return counted

        work = WORK_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                counts[work[0]] += work[1](*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return traced

    @contextlib.contextmanager
    def phase(self):
        """Time a traced stretch of work; its wall time feeds ``untraced_ms``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - t0

    def calls_under(self, name, ancestors):
        """Calls of ``name`` made while a span named in ``ancestors`` was open."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[1]
            while parent >= 0 and self.spans[parent][0] not in ancestors:
                parent = self.spans[parent][1]
            n += parent >= 0
        return n

    def aggregate(self):
        """{name.calls, name.ms, name.self_ms} per span name, plus the counters
        and ``untraced_ms`` (traced wall time that no span covers)."""
        child_s = [0.0] * len(self.spans)
        root_s = 0.0
        for name, parent, start, end in self.spans:
            if parent < 0:
                root_s += end - start
            else:
                child_s[parent] += end - start
        out = Counter()
        for (name, _parent, start, end), inner in zip(self.spans, child_s):
            out[name + ".calls"] += 1
            out[name + ".ms"] += 1e3 * (end - start)
            out[name + ".self_ms"] += 1e3 * (end - start - inner)
        out.update(self.counts)
        out["untraced_ms"] = 1e3 * (self.wall_s - root_s)
        return dict(out)


def merge(*aggregates):
    out = Counter()
    for agg in aggregates:
        out.update(agg)
    return dict(out)


def _targets(package):
    """(owner, attribute name, qualified span name) for every traced callable."""
    out = []
    for short in TRACED_MODULES:
        mod = sys.modules[f"{package}.{short}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            out.append((mod, attr, f"{short}.{attr}"))
    for short, cls_name, method in TRACED_METHODS:
        cls = getattr(sys.modules[f"{package}.{short}"], cls_name)
        out.append((cls, method, f"{short}.{cls_name}.{method}"))
    return out


@contextlib.contextmanager
def instrumented(tracer, package="dropclass"):
    """Route every traced callable of ``package`` through ``tracer``."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    patched = []  # (owner, attribute, original)
    try:
        for owner, attr, name in _targets(package):
            original = vars(owner)[attr]
            wrapper = tracer.wrap(name, original)
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, original))
            if inspect.isclass(owner):
                continue
            for mod in modules:
                if mod is not owner and vars(mod).get(attr) is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
