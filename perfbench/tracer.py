"""Spans around the public functions of the sdpn modules.

The tracer replaces each named function with a wrapper that records a span
(name, start, end, parent span) and a per-function call count and self
time, where self time is the span minus the time its child spans cover.
Wrappers are installed from outside the program: on the module, on the
class for methods, and in every sdpn module global or module-level dict
that still holds the original function object (``trainer.REGULARIZERS``
captured its regularizers at import, so patching the module attribute alone
would miss those calls). Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

_now = time.perf_counter


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self, names):
        """``names`` are ``module.function`` or ``module.Class.method``
        under the ``sdpn`` package."""
        self.names = list(names)
        self.stats = defaultdict(Stat)
        self.spans = []  # (name, start, end, parent span index or -1)
        self._stack = []  # [span index, seconds covered by children]
        self._undo = []

    def reset(self):
        self.stats = defaultdict(Stat)
        self.spans = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, _now(), 0.0, parent))
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self):
        index, covered = self._stack.pop()
        name, start, _, parent = self.spans[index]
        end = _now()
        self.spans[index] = (name, start, end, parent)
        seconds = end - start
        if self._stack:
            self._stack[-1][1] += seconds
        self.stats[name].self_s += seconds - covered

    def _wrap(self, name, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # One call per invocation; one span per step of the generator,
            # so the time it spends producing items lands where it runs.
            def gen_wrapper(*args, **kwargs):
                tracer.stats[name].calls += 1
                it = fn(*args, **kwargs)
                while True:
                    tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close()
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.stats[name].calls += 1
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        old = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install(self):
        originals = {}
        for name in self.names:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"sdpn.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name,
                                                              raw.__func__)))
            else:
                wrapped = self._wrap(name, raw)
                self._set(owner, attr, wrapped)
                originals[id(raw)] = (raw, wrapped)
        # Rebind module globals and module-level dict values that captured
        # an original function object before the wrappers went in.
        for module_name, module in list(sys.modules.items()):
            if module_name != "sdpn" and not module_name.startswith("sdpn."):
                continue
            for key, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, key, hit[1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = originals.get(id(v))
                        if hit is not None and hit[0] is v:
                            value[k] = hit[1]
                            self._undo.append(
                                lambda d=value, k=k, v=v: d.__setitem__(k, v))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
