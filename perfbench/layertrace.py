"""Per-layer spans recorded from outside the program.

``LayerTracer`` wraps every public module-level function of the named
soarqep modules and rebinds each name wherever the package refers to it
(``from .x import f`` copies as well as ``module.f`` lookups), so the calls
the solver makes between its layers pass through the wrappers.  Each
wrapper records its call count and self time: its span's duration minus
the time its wrapped callees cover.  Spans nest on one thread, so the self
times of all wrapped functions under a root call add up to that call's
duration.

Functions are found by inspection when the tracer is installed, so a
function that a later version renames or removes is simply absent from the
statistics.
"""

import functools
import importlib
import inspect
import sys
import time


class LayerTracer:
    """Context manager that wraps the layers' public functions.

    ``observers`` maps (module, function) to a callable that receives the
    function's return value and the tracer's ``counters`` dict; it feeds
    counts taken from returned reports.
    """

    def __init__(self, package, modules, observers=None):
        self.package = package
        self.modules = tuple(modules)
        self.observers = dict(observers or {})
        self.stats = {}          # (module, function) -> [self seconds, calls]
        self.counters = {}
        self.observer_errors = set()
        self._stack = []         # child time accumulated per open span
        self._patches = []       # (namespace, attribute, original)

    def reset(self):
        for entry in self.stats.values():
            entry[0] = 0.0
            entry[1] = 0
        self.counters.clear()

    def __enter__(self):
        wrappers = {}
        for short in self.modules:
            mod = importlib.import_module("%s.%s" % (self.package, short))
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap((short, name), obj)
        prefix = self.package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(prefix)):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        return self

    def __exit__(self, *exc):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()
        self._stack.clear()
        return False

    def _wrap(self, key, fn):
        stats = self.stats.setdefault(key, [0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        observer = self.observers.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += dt - stack.pop()
                stats[1] += 1
                if stack:
                    stack[-1] += dt
            if observer is not None:
                self._observe(key, observer, result)
            return result

        return wrapper

    def _observe(self, key, observer, result):
        try:
            observer(result, self.counters)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError):
            # the return shape changed in this version of the program
            self.observer_errors.add(key)

    # -- queries ---------------------------------------------------------

    def present(self, module, function):
        return (module, function) in self.stats

    def self_s(self, module, function):
        return self.stats.get((module, function), (0.0, 0))[0]

    def calls(self, module, function):
        return self.stats.get((module, function), (0.0, 0))[1]

    def module_self_s(self, module, exclude=()):
        return sum(v[0] for (mod, fn), v in self.stats.items()
                   if mod == module and fn not in exclude)
