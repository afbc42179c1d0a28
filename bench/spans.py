"""Span tracing from outside the program.

The traced run replaces each function in TRACED with a wrapper that
records a span (name, start, end, parent, op id) in memory.  A function is
replaced at every module that bound it, so `records.build_fock` is traced
as well as `fock.build_fock`.  Nothing under src/ is edited.

Spans opened on a worker thread with no traced caller on that thread (the
per-file calls of `batch --jobs 2`) take the main thread's outermost open
span as their parent.  A layer's self time is its span's duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
import tracemalloc

# module -> traced public functions ("Class.method" for methods).  scalars
# and algebra are leaf arithmetic: their cost shows in their callers' self
# time.  cli._batch_one is the per-file boundary of `batch`.
TRACED = {
    "cli": ["main", "_batch_one"],
    "records": ["load_instance", "instance_digest", "canonical_json",
                "verdict_record", "witness_record", "verify_witness_record"],
    "graphs": ["decide_hyperrigid", "classify_vertices", "build_correspondence"],
    "correspondence": ["katsura_ideal", "is_nondegenerate",
                       "sigma_degeneracy_witness", "left_action_as_compacts",
                       "Correspondence.in_degree"],
    "intervals": ["range_condition", "is_proper_into", "preimage"],
    "fock": ["build_fock", "verify_isometric_rep", "rho0", "t0",
             "operator_residual", "build_witness_subspace", "check_reducing",
             "check_cuntz_pimsner", "witness_pipeline"],
}

# tracemalloc runs inside this one span, for its peak allocation
MEMORY_TRACED = "fock.build_fock"

ID, NAME, START, END, PARENT, OP, ERROR, EXTRA = range(8)


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, op, error, extra)
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._root = None        # outermost open span on the main thread

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        memory = name == MEMORY_TRACED

        def traced(*args, **kwargs):
            stack = tracer._stack()
            on_main = threading.current_thread() is tracer._main
            parent = stack[-1] if stack else (None if on_main else tracer._root)
            sid = next(tracer._ids)
            stack.append(sid)
            if on_main and parent is None:
                tracer._root = sid
            own_memory = memory and not tracemalloc.is_tracing()
            if own_memory:
                tracemalloc.start()
            error = extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if on_main and parent is None:
                    tracer._root = None
                if own_memory:
                    extra = {"peak_mb": tracemalloc.get_traced_memory()[1] / 2**20}
                    tracemalloc.stop()
                if memory and error is None:
                    extra = dict(extra or {}, dim=sum(len(b) for b in result.bases))
                # a tuple of plain values, which the garbage collector skips
                tracer.spans.append((sid, name, start, end, parent, tracer.op,
                                     error, extra))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every function in TRACED wherever a hyperrig module bound it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hyperrig" or n.startswith("hyperrig.")]
        for mod_name, names in TRACED.items():
            mod = sys.modules[f"hyperrig.{mod_name}"]
            for attr in names:
                span_name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(span_name, getattr(cls, meth)))
                    continue
                original = getattr(mod, attr)
                wrapper = self.wrap(span_name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

    def dump(self, path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _covered(intervals: list) -> float:
    """Total length of a union of intervals."""
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def summarize(spans: list) -> dict:
    """Per span name: inclusive seconds (outermost calls only), self seconds,
    calls, errors by type, and the extra fields of every call."""
    by_id = {s[ID]: s for s in spans}
    children: dict = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)
    out: dict = {}
    for s in spans:
        rec = out.setdefault(s[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0,
                                       "errors": {}, "extra": []})
        rec["calls"] += 1
        dur = s[END] - s[START]
        kids = [(max(c[START], s[START]), min(c[END], s[END]))
                for c in children.get(s[ID], ())]
        rec["self_s"] += dur - _covered([k for k in kids if k[1] > k[0]])
        # a call nested in a call of the same name is already inside it
        p, nested = s[PARENT], False
        while p is not None and p in by_id:
            if by_id[p][NAME] == s[NAME]:
                nested = True
                break
            p = by_id[p][PARENT]
        if not nested:
            rec["s"] += dur
        if s[ERROR]:
            rec["errors"][s[ERROR]] = rec["errors"].get(s[ERROR], 0) + 1
        if s[EXTRA]:
            rec["extra"].append(s[EXTRA])
    return out
