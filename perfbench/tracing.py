"""In-memory spans around the public functions of the socopt modules.

``Tracer`` wraps every public module-level function and every public
method of a public class defined in ``socopt.graph``, ``costs``,
``dynamics``, ``events``, ``analysis`` and ``harness``.  Each wrapper is
bound wherever the original was bound: on its own module, on every socopt
module that imported it by name (``harness.rhs_continuous``,
``analysis.curvature_on_set``, ...) and, for methods, on the class.  Calls
the program makes internally therefore go through the wrappers too.

A span is (name, request, parent, start, end), kept in flat arrays while
the traced code runs and written out by ``save`` afterwards.  A span's
self time is its duration minus the durations of its direct children.
"""

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

import socopt

MODULES = ("graph", "costs", "dynamics", "events", "analysis", "harness")


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.request_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.request = 0  # scenario index, set by the caller before each scenario run
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, request_id, parent, start, end = self.name_id, self.request_id, self.parent, self.start, self.end
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            request_id.append(tracer.request)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        for short in MODULES:
            mod = sys.modules[f"{socopt.__name__}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for mattr, member in list(vars(obj).items()):
                        if mattr.startswith("_"):
                            continue
                        label = f"{short}.{attr}.{mattr}"
                        if inspect.isfunction(member):
                            self._set(obj, mattr, self._wrap(label, member))
                        elif isinstance(member, classmethod):
                            self._set(obj, mattr, classmethod(self._wrap(label, member.__func__)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != socopt.__name__ and not mod_name.startswith(socopt.__name__ + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "request_id": np.frombuffer(self.request_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }
