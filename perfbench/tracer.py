"""In-memory span tracer installed around the public functions of twistorsys.

`Tracer.install()` replaces every public function and every public method
of the package's modules and classes by a wrapper that records one span
per call: name, start, end, parent span, pass id and rung id.  A function
bound into another module by `from ... import` is the same object there, so
it is replaced in every namespace that binds it.  Private helpers (a leading
underscore) are left alone: they are called tens of thousands of times per
pass, and wrapping them would inflate the times being measured.

`uninstall()` restores the original objects, so traced and untraced passes
can alternate in one process.
"""
from __future__ import annotations

import functools
import json
import time
import types


def _is_package_callable(obj, package):
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", "").startswith(package + "."))


class Tracer:
    """Spans are lists [name, start, end, parent index, pass id, rung id]."""

    def __init__(self, modules, hooks=None, rung_class=None):
        self.modules = list(modules)
        self.package = self.modules[0].__name__.split(".")[0]
        self.hooks = dict(hooks or {})
        self.rung_class = rung_class
        self.spans = []
        self.stack = []
        self.pass_id = None
        self.rung = 0
        self._patched = []

    # ------------------------------------------------------------ spans

    def span_name(self, fn):
        return f"{fn.__module__.split('.')[-1]}.{fn.__qualname__}"

    def _wrap(self, fn):
        name = self.span_name(fn)
        hook = self.hooks.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, self.rung]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def open_span(self, name):
        """Start a span owned by the caller (e.g. one whole pass)."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.pass_id, self.rung]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close_span(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def next_rung(self):
        self.rung += 1

    # ------------------------------------------------------ install/restore

    def install(self):
        wrapped = {}

        def wrapper_for(fn):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, self._wrap(fn))
            return wrapped[id(fn)][1]

        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        # properties, class- and static methods are not plain functions
                        if mname.startswith("_") or not isinstance(meth, types.FunctionType):
                            continue
                        self._patch(obj, mname, wrapper_for(meth))
                elif _is_package_callable(obj, self.package):
                    self._patch(mod, attr, wrapper_for(obj))
        if self.rung_class is not None:
            init = self.rung_class.__init__

            def init_marking_rung(obj, *args, **kwargs):
                self.next_rung()
                init(obj, *args, **kwargs)

            self._patch(self.rung_class, "__init__", init_marking_rung)
        return self

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------ output

    def write(self, path):
        """One JSON array per line: name, start, end, parent, pass, rung."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans, select):
    """(self time, calls, inclusive time) per span name over the spans `select` keeps.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, because the program is
    single-threaded.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out = {}
    for i, rec in enumerate(spans):
        if not select(rec):
            continue
        s, c, incl = out.get(rec[0], (0.0, 0, 0.0))
        out[rec[0]] = (s + (rec[2] - rec[1]) - child[i], c + 1, incl + rec[2] - rec[1])
    return out
