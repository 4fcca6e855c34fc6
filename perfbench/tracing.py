"""In-memory call spans around nardf's public functions.

The tracer wraps every public function (and public method of a public
class) defined in one of the layer modules, at every module-global binding
site in the ``nardf`` package.  ``nardf.excess`` holds its own reference to
``perron_eigenvalue``, ``nardf.gauss`` to ``sym_eig``, and so on; patching
each of them makes cross-module calls nest.  Spans are appended to a list
while ``recording`` is true and are only summarised after the run, so the
per-call cost is two clock reads and a list append.

Nothing here is installed unless ``Tracer.install`` is called; the timed
(untraced) benchmark run never calls it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("numerics", "bsms", "gauss", "jscc", "excess", "modelfile", "cli")

_ORIGINAL = "__perfbench_original__"


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


def _public_callables(layer_module, layer):
    """(owner, attribute, function, span name) for each public function
    defined in ``layer_module``, including public methods of its classes."""
    found = []
    modname = layer_module.__name__
    for name, obj in vars(layer_module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != modname:
            continue
        if inspect.isfunction(obj):
            found.append((layer_module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    found.append((obj, attr, member, f"{layer}.{name}.{attr}"))
    return found


class Tracer:
    """Collects nested spans of library calls made while ``recording``.

    ``attr_hooks`` maps a span name to ``hook(args, kwargs, result) -> dict``;
    the dict is stored on the span, e.g. the iteration count a solver returns.
    """

    def __init__(self, attr_hooks=None, clock=time.perf_counter):
        self.spans = []
        self.recording = False
        self.attr_hooks = dict(attr_hooks or {})
        self._clock = clock
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------ install

    def install(self, package="nardf"):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))}
        wrappers = {}
        for layer in LAYERS:
            layer_module = modules.get(f"{package}.{layer}")
            if layer_module is None:
                raise RuntimeError(f"layer module {package}.{layer} is not imported")
            for owner, attr, fn, span_name in _public_callables(layer_module, layer):
                wrapper = self._wrap(span_name, fn)
                wrappers[fn] = wrapper
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapper)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        return len(wrappers)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        hook = self.attr_hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = tracer._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer._clock()
                stack.pop()
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    # ------------------------------------------------------------ results

    def self_times(self):
        """Self time of each span: its duration minus its direct children's.

        Calls are synchronous, so children of one span never overlap and
        their durations add up to the part of the parent they cover.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def records(self):
        """One dict per span, in call order, ready to be written as JSON."""
        selfs = self.self_times()
        return [
            {"id": i, "name": s.name, "parent": s.parent,
             "start_us": s.start * 1e6, "dur_us": s.duration * 1e6,
             "self_us": st * 1e6, **({"attrs": s.attrs} if s.attrs else {})}
            for i, (s, st) in enumerate(zip(self.spans, selfs))
        ]


def wrapped_bindings(package="nardf"):
    """Names in the package's modules (and its classes) that hold a tracer
    wrapper; empty whenever no tracer is installed."""
    found = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, _ORIGINAL):
                found.append(f"{modname}.{attr}")
            elif inspect.isclass(value) and value.__module__ == modname:
                found.extend(f"{modname}.{attr}.{m}" for m, v in vars(value).items()
                             if hasattr(v, _ORIGINAL))
    return found
