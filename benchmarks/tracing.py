"""Spans around every call into seqrank's public functions and methods.

The traced child process (child.py) calls `install` before `cli.main`:
every public function and method of the layer modules is rebound, in each
namespace that holds it, to a wrapper that records one span per call.
Names imported with `from .model import item_input` live in the importing
module too, so they are rebound there as well; a span is always named after
the module that defines the function (`model.item_input`), wherever it was
looked up. `numkit` is left alone: its helpers are single numpy calls made
millions of times, and they run inside their callers' spans.

A span is (parent, name, start, end) in four flat arrays, kept in memory and
written to one .npz file when the command ends, together with the run id
that every span of the file shares. The recorder assumes one thread, which
holds for the CLI with its default `eval.threads` of 1.

`SpanFile` reads such a file back for the benchmark.
"""

import functools
import importlib
import inspect
import json
import os
import time
from array import array

import numpy as np

LAYER_MODULES = ("dataio", "model", "trainer", "baselines", "evaluator",
                 "checkpoint", "cli")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.parents = array("i")
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.amounts = {}
        self.stack = [-1]

    def wrap(self, fn, name: str, amount=None):
        """Wrapper recording a span per call. `amount(args, result)`, when
        given, adds a work count (bytes, candidates) under the span name."""
        nid = len(self.names)
        self.names.append(name)
        parents, name_ids = self.parents, self.name_ids
        starts, ends, stack = self.starts, self.ends, self.stack
        amounts = self.amounts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(ends)
            parents.append(stack[-1])
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if amount is not None:
                amounts[name] = amounts.get(name, 0) + amount(args, result)
            return result

        return traced

    def write(self, path: str, meta: dict) -> None:
        meta = dict(meta, run_id=self.run_id, amounts=self.amounts)
        np.savez(path,
                 parent=np.frombuffer(self.parents, dtype=np.int32),
                 name=np.frombuffer(self.name_ids, dtype=np.int32),
                 start=np.frombuffer(self.starts, dtype=np.float64),
                 end=np.frombuffer(self.ends, dtype=np.float64),
                 names=np.array(self.names, dtype=str),
                 meta=np.array(json.dumps(meta)))


def _file_size(args, _result) -> int:
    return os.path.getsize(args[0])


# work counts recorded alongside the spans, by span name
AMOUNTS = {
    "model.order_candidates": lambda _args, result: len(result),
    "checkpoint.save_ranker": _file_size,
    "checkpoint.read_checkpoint": _file_size,
}


def install(tracer: Tracer) -> int:
    """Rebind every public function and method of the layer modules.
    Returns the number of distinct callables wrapped."""
    modules = [importlib.import_module(f"seqrank.{m}") for m in LAYER_MODULES]
    wrapped = {}

    def wrapper_for(fn, qualname):
        if fn not in wrapped:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{qualname}"
            wrapped[fn] = tracer.wrap(fn, name, AMOUNTS.get(name))
        return wrapped[fn]

    def is_layer_function(obj):
        return (inspect.isfunction(obj)
                and obj.__module__.rsplit(".", 1)[-1] in LAYER_MODULES)

    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if is_layer_function(obj):
                setattr(mod, attr, wrapper_for(obj, obj.__qualname__))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    if inspect.isfunction(member):
                        setattr(obj, mname,
                                wrapper_for(member, member.__qualname__))
                    elif isinstance(member, classmethod):
                        fn = member.__func__
                        setattr(obj, mname,
                                classmethod(wrapper_for(fn, fn.__qualname__)))
    return len(wrapped)


# ---------------------------------------------------------------------------
# reading spans back

class SpanFile:
    """One traced command: span arrays, self times and per-name totals."""

    def __init__(self, path: str):
        with np.load(path, allow_pickle=False) as z:
            self.parent = z["parent"]
            self.name = z["name"]
            self.start = z["start"]
            self.end = z["end"]
            self.names = [str(n) for n in z["names"]]
            self.meta = json.loads(str(z["meta"]))
        self.dur = self.end - self.start
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child],
                              minlength=self.dur.size)
        self.self_time = self.dur - covered
        n = len(self.names)
        by_self = np.bincount(self.name, weights=self.self_time, minlength=n)
        by_count = np.bincount(self.name, minlength=n)
        self.self_by_name = {nm: float(by_self[j]) for j, nm in enumerate(self.names)}
        self.count_by_name = {nm: int(by_count[j]) for j, nm in enumerate(self.names)}
        self.root_time = float(self.dur[self.parent < 0].sum())

    def union(self, names) -> float:
        """Seconds covered by spans of the given names, nested ones once."""
        ids = [j for j, nm in enumerate(self.names) if nm in names]
        sel = np.isin(self.name, ids)
        total, reach = 0.0, float("-inf")
        for s, e in sorted(zip(self.start[sel].tolist(), self.end[sel].tolist())):
            if e <= reach:
                continue
            total += e - max(s, reach)
            reach = e
        return total
