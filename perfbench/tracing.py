"""Outside-in timing spans around the public functions of lorentzseg.

The tracer wraps every module-level binding of a public function (and the
public classmethods of public classes), so a kernel that one module
imports by name from another is timed wherever it is called.  Each span
records its id, its parent's id, its name, its thread and its start and
end; spans stay in memory and are written out once, at the end of the run.

Every thread keeps its own span stack.  A span opened on a worker thread
whose stack is empty takes as parent the innermost span open on the main
thread, which is the call that handed the work to the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

MODULES = (
    "cli", "entailment", "fileio", "grad", "hyperbolicity", "lorentz",
    "maskhead", "models", "segtoy", "uncertainty",
)

# the all-pairs kernels that materialize (points x anchors x d) tensors;
# their bytes are computed from the shapes of the arrays they return
CROSS_KERNELS = (
    "grad.grad_distance_cross",
    "grad.grad_distance_cross_anchor",
    "grad.grad_ext_cross_point",
    "grad.grad_ext_cross_anchor",
)
CROSS_BYTES = "grad.cross.bytes"


class Tracer:
    """Collects spans as tuples (id, parent, name, thread, start, end)."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.get_ident() == self._main_ident:
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def count(self, name: str, amount: int):
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_return(tracer, result)`` runs after the span closes.
        """
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(self._ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((sid, parent, name, threading.get_ident(), start, end))
            if on_return is not None:
                on_return(self, result)
            return result

        return traced


def _count_cross_bytes(tracer: Tracer, result):
    tracer.count(CROSS_BYTES, int(result.size) * result.dtype.itemsize)


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every binding of every public function in lorentzseg's modules.

    Returns the span names, one per distinct callable wrapped.
    """
    modules = [importlib.import_module(f"lorentzseg.{m}") for m in MODULES]
    tracer.counters.setdefault(CROSS_BYTES, 0)
    owned = {m.__name__ for m in modules}
    wrappers = {}

    def wrapper_for(fn):
        if fn not in wrappers:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
            hook = _count_cross_bytes if name in CROSS_KERNELS else None
            wrappers[fn] = (name, tracer.wrap(name, fn, hook))
        return wrappers[fn][1]

    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ in owned:
                setattr(mod, attr, wrapper_for(obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in list(vars(obj).items()):
                    if not cattr.startswith("_") and isinstance(cobj, classmethod):
                        setattr(obj, cattr, classmethod(wrapper_for(cobj.__func__)))
    return sorted(name for name, _ in wrappers.values())


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per-name totals from a list of span tuples.

    Returns ``{name: {"s", "self_s", "calls"}}``.  ``s`` sums the spans
    with no enclosing span of the same name, so recursion is not counted
    twice; spans on worker threads add up, so ``s`` can exceed the wall
    time of the call that fanned them out.  ``self_s`` is each span's
    duration minus the part of its interval that its children cover.
    """
    by_id = {sp[0]: sp for sp in spans}
    children = defaultdict(list)
    for sp in spans:
        if sp[1] is not None:
            children[sp[1]].append((sp[4], sp[5]))
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for sid, parent, name, _thread, start, end in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - _covered(children.get(sid, ()), start, end)
        anc = by_id.get(parent)
        while anc is not None and anc[2] != name:
            anc = by_id.get(anc[1])
        if anc is None:
            row["s"] += end - start
    return dict(out)


def fan_out_share(spans, name: str) -> float:
    """Summed duration of the direct children of the spans called ``name``
    over the summed duration of those spans; above 1 when the children
    ran side by side on a pool."""
    ids = {sp[0]: sp[5] - sp[4] for sp in spans if sp[2] == name}
    outer = sum(ids.values())
    if outer <= 0.0:
        return 0.0
    inner = sum(sp[5] - sp[4] for sp in spans if sp[1] in ids)
    return inner / outer
