"""Outside-in span tracer for the ``tvarch`` package.

The tracer changes no file of the package.  For each function it is asked to
follow, it finds every ``tvarch`` module namespace (and class) that bound the
original object at import and rebinds a wrapper there, so calls made through
any of those names are recorded.  A module that looks a function up as a
module attribute (``kernels.local_sums``) is covered by the rebinding in the
defining module.  ``uninstall`` restores the originals.

A span is ``[name, via, parent, start, end, extra]``: ``name`` is
``<module>.<qualname>`` of the defining module, ``via`` the namespace the call
went through, ``parent`` the index of the enclosing span (-1 at the top) and
``extra`` whatever the function's probe derived from its arguments and result.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

NAME, VIA, PARENT, START, END, EXTRA = range(6)


class StaleBindingError(RuntimeError):
    """A traced function cannot be found where the trace expects it."""


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _namespaces(package: str):
    """Every loaded module of ``package`` and every class defined in one."""
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        yield _short(mod_name), mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod_name:
                yield f"{_short(mod_name)}.{value.__name__}", value


class Tracer:
    """Records spans for a fixed set of functions while installed."""

    def __init__(self, targets, package: str = "tvarch"):
        # targets: {"module.qualname": probe or None}; a probe maps
        # (args, kwargs, result) to the span's extra field.
        self.targets = dict(targets)
        self.package = package
        self.spans: list = []
        self._local = threading.local()
        self._bound: list = []  # (namespace object, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, via: str, fn, probe):
        spans = self.spans
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [name, via, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if probe is not None:
                rec[EXTRA] = probe(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Rebind a wrapper wherever the package bound a target at import."""
        if self._bound:
            raise RuntimeError("tracer already installed")
        namespaces = list(_namespaces(self.package))
        lookup = dict(namespaces)
        originals = {}
        for target in self.targets:
            home, _, attr = target.rpartition(".")
            owner = lookup.get(home)
            if owner is None or not callable(vars(owner).get(attr)):
                raise StaleBindingError(f"{self.package}.{target} no longer exists")
            originals[target] = vars(owner)[attr]
        try:
            for target, fn in originals.items():
                for via, owner in namespaces:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            wrapper = self._wrap(target, via, fn, self.targets[target])
                            setattr(owner, key, wrapper)
                            self._bound.append((owner, key, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._bound):
            setattr(owner, key, fn)
        self._bound.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans: list) -> dict:
    """Per span name: calls, total_s, self_s, and the list of probe extras.

    Self time is a span's duration minus the durations of its direct
    children, so nested calls of one function are not counted twice in
    self time (total time does count them; no traced function recurses).
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out: dict = {}
    for i, rec in enumerate(spans):
        s = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": [], "via": {}})
        dur = rec[END] - rec[START]
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child[i]
        via = s["via"].setdefault(rec[VIA], {"calls": 0, "total_s": 0.0})
        via["calls"] += 1
        via["total_s"] += dur
        if rec[EXTRA] is not None:
            s["extra"].append(rec[EXTRA])
    return out
