"""Outside-in tracer for the mvdop layers.

The tracer changes no file of the package.  ``install`` wraps, at run
time, the public functions and methods of each layer module and rebinds
every name in every ``mvdop.*`` namespace that refers to one of them, so
a call through an imported alias (``dpolys.falling_row``,
``verify.dim_partition``, ``cli.verify.conjecture_suite``) is seen too.

Each wrapped call is a span.  Spans are aggregated in memory by
(name, parent name) into [calls, total ns, self ns]; self time is a
span's duration minus the time covered by its wrapped children.  A few
calls carry counters observed from outside: row-cache misses as growth
of the public ``JackTable.cache``, weights built as growth of
``JackTable.built_degree``, verdicts of the public checks, CLI exit codes,
and cache-file writes as a diff of the private cache directory.  Time the
tracer spends on those observations is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("partitions", "symfun", "jack", "conearith", "dpolys", "verify", "cli")

# dunder methods that carry layer work; every other private name is skipped
_DUNDERS = ("__mul__",)

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self, cache_dir=None):
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.stack = [["", 0]]  # frames of [span name, ns covered by children]
        self.spans: dict = {}  # (name, parent) -> [calls, total_ns, self_ns]
        self.counters: dict = defaultdict(int)
        self.tables: dict = {}  # id -> JackTable seen by JackTable.extend
        self._hooks = {
            "conearith.binomial_row": self._row_hook,
            "conearith.falling_row": self._row_hook,
            "jack.JackTable.extend": self._extend_hook,
            "cli.main": self._main_hook,
            "cli.load_or_build_table": self._cache_dir_hook,
        }

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        replace = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"mvdop.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for name, mod in list(sys.modules.items()):
            if name != "mvdop" and not name.startswith("mvdop."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return self

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn, rewrap = raw.__func__, type(raw)
            elif inspect.isfunction(raw):
                fn, rewrap = raw, None
            else:
                continue
            wrapper = self._wrap(fn, f"{layer}.{cls.__name__}.{attr}")
            setattr(cls, attr, rewrap(wrapper) if rewrap else wrapper)

    def _wrap(self, fn, name):
        layer, _, attr = name.partition(".")
        if layer == "verify" and "." not in attr:  # a public check function
            hook = self._verdict_hook
        else:
            hook = self._hooks.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(fn, name)
        if hook is None:
            return self._plain_wrapper(fn, name)
        return self._hooked_wrapper(fn, name, hook)

    # -- span bookkeeping -------------------------------------------------

    def _close(self, frame, dur, calls=1):
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        parent[1] += dur
        key = (frame[0], parent[0])
        rec = self.spans.get(key)
        if rec is None:
            self.spans[key] = [calls, dur, dur - frame[1]]
        else:
            rec[0] += calls
            rec[1] += dur
            rec[2] += dur - frame[1]

    def _plain_wrapper(self, fn, name):
        stack = self.stack
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, _clock() - t0)

        return wrapper

    def _hooked_wrapper(self, fn, name, hook):
        stack = self.stack
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            h0 = _clock()
            state = hook(name, args, kwargs, None, None)
            frame = [name, 0]
            stack.append(frame)
            t0 = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _clock()
                close(frame, t1 - t0)
                hook(name, args, kwargs, state, result)
                # observation time is covered by no layer
                stack[-1][1] += (t0 - h0) + (_clock() - t1)

        return wrapper

    def _generator_wrapper(self, fn, name):
        """A generator's work happens at each resumption, so each one is
        timed; the call is counted once, when the generator is created."""
        stack = self.stack
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            calls = 1
            while True:
                frame = [name, 0]
                stack.append(frame)
                t0 = _clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(frame, _clock() - t0, calls)
                    calls = 0
                yield item

        return wrapper

    # -- observations made from outside -------------------------------------
    # A hook runs twice per call: before it, with state None, returning the
    # state to keep; after it, with that state and the call's result.

    def _row_hook(self, name, args, kwargs, state, result):
        cache = (kwargs["jack"] if "jack" in kwargs else args[0]).cache
        if state is None:
            return len(cache)
        # a hit returns before storing anything; a miss stores its row
        if len(cache) > state:
            self.counters[f"{name}.misses"] += 1
        return None

    def _extend_hook(self, name, args, kwargs, state, result):
        table = args[0]
        if state is None:
            self.tables[id(table)] = table
            return table.built_degree
        self.counters["jack.weights_built"] += table.built_degree - state
        return None

    def _verdict_hook(self, name, args, kwargs, state, result):
        if state is None:
            return True
        passed = getattr(result, "passed", None)
        if passed is None and name.endswith("_residual") and result is not None:
            passed = result == 0
        if passed is not None:
            self.counters[f"{name}.checks"] += 1
            self.counters["verify.checks"] += 1
            self.counters["verify.failed"] += not passed
        return None

    def _main_hook(self, name, args, kwargs, state, result):
        if state is None:
            return True
        self.counters["cli.invocations"] += 1
        self.counters["cli.nonzero_exits"] += result != 0
        return None

    def _cache_dir_hook(self, name, args, kwargs, state, result):
        files = _stat_dir(self.cache_dir)
        if state is None:
            return files
        for fname, sig in files.items():
            if state.get(fname) != sig:
                self.counters["cli.cache_writes"] += 1
                self.counters["cli.cache_bytes_written"] += sig[1]
        return None

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Spans and counters as plain data; the caller writes them out."""
        counters = dict(self.counters)
        counters["jack.cache_entries"] = sum(len(t.cache) for t in self.tables.values())
        return {
            "spans": [
                [name, parent, calls, total, self_ns]
                for (name, parent), (calls, total, self_ns) in sorted(self.spans.items())
            ],
            "counters": counters,
        }


def _stat_dir(path):
    if path is None or not path.is_dir():
        return {}
    out = {}
    for entry in os.scandir(path):
        st = entry.stat()
        out[entry.name] = (st.st_mtime_ns, st.st_size, st.st_ino)
    return out
