"""An in-memory span tracer that instruments a program from outside.

The tracer wraps named entry points (module functions and class methods)
with timing wrappers, keeps one span per call in memory (name, start, end,
parent) and computes per-span self time: a span's duration minus the part
of it that its child spans cover.  Nothing in the traced program changes;
:meth:`Tracer.install` rebinds the entry point *and every alias of it* in
the loaded modules (``from .hashing import digest`` copies the function
into the importing module's namespace), and :meth:`Tracer.remove` puts the
originals back.

Two rules keep the accounting honest:

* a call whose innermost open span has the same name records no new span,
  so a recursive entry point (``stable_encode``) or an override that calls
  ``super()`` counts once per outermost call;
* a generator function is timed per resumption (one span for each
  ``next``/``send``), so the consumer's work between two items is never
  charged to the generator.

Importing this module does no work.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Tracer:
    """Records spans for wrapped entry points; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.calls: Dict[str, int] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def open(self, name: str) -> Optional[int]:
        """Open a span; ``None`` when the innermost open span has this name."""
        stack = self._stack
        if stack and self.names[stack[-1]] == name:
            return None
        index = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: Optional[int]) -> None:
        if index is not None:
            self.ends[index] = self.clock()
            self._stack.pop()

    def _count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def wrap(
        self,
        name: str,
        func: Callable,
        on_call: Optional[Callable[[tuple], None]] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """A wrapper recording ``name`` spans around ``func``.

        ``on_call(args)`` sees the positional arguments of every outermost
        call and ``on_result(value)`` its return value; both observe only.
        """
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(name, func, on_call)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.open(name)
            if index is None:
                return func(*args, **kwargs)
            self._count(name)
            if on_call is not None:
                on_call(args)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_generator(self, name: str, func: Callable, on_call: Optional[Callable]) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            gen = func(*args, **kwargs)
            step, value = gen.send, None
            first = True
            while True:
                index = self.open(name)
                if first:
                    first = False
                    if index is not None:
                        self._count(name)
                        if on_call is not None:
                            on_call(args)
                try:
                    item = step(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.close(index)
                try:
                    value = yield item
                    step = gen.send
                except GeneratorExit:
                    index = self.open(name)
                    try:
                        gen.close()
                    finally:
                        self.close(index)
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded into the generator
                    step, value = gen.throw, exc

        return traced

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def install(
        self,
        name: str,
        owner: Any,
        attribute: str,
        alias_prefix: Optional[str] = None,
        on_call: Optional[Callable[[tuple], None]] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a wrapper recording ``name`` spans.

        ``owner`` is a module or a class; only a plain function defined on it
        (not inherited) is wrapped.  With ``alias_prefix``, every module in
        ``sys.modules`` under that prefix that holds the same function
        object under any name is rebound to the wrapper too.
        """
        original = vars(owner).get(attribute)
        if not inspect.isfunction(original):
            raise TypeError(f"{owner!r}.{attribute} is not a plain function")
        wrapper = self.wrap(name, original, on_call=on_call, on_result=on_result)
        self._rebind(owner, attribute, wrapper, original)
        if alias_prefix is not None:
            for module_name, module in list(sys.modules.items()):
                if module is None or module is owner:
                    continue
                if module_name != alias_prefix and not module_name.startswith(alias_prefix + "."):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, alias, wrapper, original)

    def _rebind(self, owner: Any, attribute: str, wrapper: Callable, original: Callable) -> None:
        setattr(owner, attribute, wrapper)
        self._undo.append((owner, attribute, original))

    def remove(self) -> None:
        """Put every wrapped attribute back to its original function."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def durations(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its direct children."""
        durations = self.durations()
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def self_time_by(self, key: Callable[[str], str]) -> Dict[str, float]:
        """Self time summed per ``key(span name)`` (e.g. per layer)."""
        totals: Dict[str, float] = {}
        for name, own in zip(self.names, self.self_times()):
            group = key(name)
            totals[group] = totals.get(group, 0.0) + own
        return totals

    def total_time(self, name: str) -> float:
        """Summed duration of the spans named ``name`` (outermost calls only)."""
        return sum(
            (duration for span, duration in zip(self.names, self.durations()) if span == name), 0.0
        )

    def write_jsonl(self, path: Any) -> None:
        """Write the spans, one JSON object per line, after a header line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": len(self.names), "fields": ["name", "start", "end", "parent"]}))
            handle.write("\n")
            for record in zip(self.names, self.starts, self.ends, self.parents):
                handle.write(json.dumps(record))
                handle.write("\n")


def layer_of(span_name: str) -> str:
    """A span's layer: the part of its name before the first dot."""
    return span_name.split(".", 1)[0]


def subclasses_defining(base: type, attribute: str) -> Iterable[type]:
    """``base`` and every loaded subclass whose own namespace defines ``attribute``."""
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attribute in vars(cls):
            yield cls
        pending.extend(cls.__subclasses__())
