"""Spans around every public k3cert function, installed from outside.

Each module does ``from .x import f``, so a function lives in several
module namespaces at once.  ``Tracer.install`` rebinds the name in every
namespace that holds it, with one wrapper per binding, so a span also
knows which module made the call.  Spans stay in memory until the run
ends; ``write`` then dumps them to a gzip CSV.

No layer waits on another (one thread, no queue), so a span's time is
busy time; the benchmark reports no waiting time because none exists.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from time import perf_counter

MODULES = ("exactlinalg", "lattices", "curves", "fibration", "spectral",
           "cases", "fileio", "cli")

RAISED, OVERRUN = 1, 2


class Tracer:
    def __init__(self):
        # a span is [function id, start, end, parent span, op id, flags]
        self.spans = []
        self.stack = []
        self.op = -1
        self._op_first = 0
        self.names = []          # function id -> (home module, name, calling module)
        self._saved = []
        self._op_keys = set()    # distinct (cfg, support) classified in this op
        self.classify_distinct = 0
        self.trials_useful = 0   # spectral's trial divisions with zero remainder

    # -- installation -----------------------------------------------------

    def install(self):
        for short in MODULES:
            mod = importlib.import_module(f"k3cert.{short}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("k3cert."):
                    continue
                fid = len(self.names)
                self.names.append((home.split(".", 1)[1], name, short))
                setattr(mod, name, self._wrap(obj, fid))
                self._saved.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, fn, fid):
        spans, stack = self.spans, self.stack
        home, name, caller = self.names[fid]

        if (home, name) == ("curves", "classify_fiber"):
            keys = self._op_keys

            def note(args):
                keys.add((args[0], tuple(args[1])))
        else:
            note = None
        count_useful = (home, name, caller) == ("spectral", "poly_divmod_monicized", "spectral")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                if note is not None:
                    note(args)
                result = fn(*args, **kwargs)
                if count_useful and result[1] == []:
                    self.trials_useful += 1
                return result
            except Exception:
                span[5] |= RAISED
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    # -- per-op bookkeeping ------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self._op_first = len(self.spans)
        self._op_keys.clear()

    def mark_overrun(self):
        """Called from the deadline handler: every open span overran."""
        for idx in self.stack:
            self.spans[idx][5] |= OVERRUN

    def end_op(self, overran):
        """Close spans an overrun interrupted before their own cleanup ran."""
        if overran:
            now = perf_counter()
            for span in self.spans[self._op_first:]:
                if not span[2]:
                    span[2] = now
        self.stack.clear()
        self.classify_distinct += len(self._op_keys)
        self._op_keys.clear()
        self.op = -1

    # -- results -----------------------------------------------------------

    def per_function(self):
        """{(home, name): [calls, self_s, raised, overruns]} plus call counts
        per (home, name, caller)."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg, by_caller = {}, {}
        for idx, (fid, start, end, _, _, flags) in enumerate(self.spans):
            home, name, caller = self.names[fid]
            row = agg.setdefault((home, name), [0, 0.0, 0, 0])
            row[0] += 1
            row[1] += (end - start) - child[idx]
            row[2] += flags & RAISED and 1
            row[3] += flags & OVERRUN and 1
            key = (home, name, caller)
            by_caller[key] = by_caller.get(key, 0) + 1
        return agg, by_caller

    def write(self, path):
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("op,function,caller,start_us,end_us,parent,raised,overrun\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for fid, start, end, parent, op, flags in self.spans:
                home, name, caller = self.names[fid]
                fh.write(f"{op},{home}.{name},{caller},{(start - t0) * 1e6:.1f},"
                         f"{(end - t0) * 1e6:.1f},{parent},{flags & RAISED and 1},"
                         f"{flags & OVERRUN and 1}\n")
