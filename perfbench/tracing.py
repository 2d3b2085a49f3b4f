"""In-memory spans around calls into mmdvi's modules.

The benchmark records spans from its own files: it replaces a public function
with a timing wrapper in the namespace its caller looks it up in (for example
``harness.fit_batched``, which ``harness`` calls, rather than
``vi.fit_batched``), and puts the originals back afterwards.  Each span keeps
its name, start, end and the span it ran inside, so the self time of a layer
is its duration minus the part its direct children cover.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Spans of one run, held in memory until :meth:`write`."""

    def __init__(self) -> None:
        # (span id, parent id or -1, name, start ns, end ns)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, parent, name, 0, 0))
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def summary(self) -> dict[str, tuple[int, int, int]]:
        """``name -> (calls, total ns, self ns)`` over all recorded spans."""
        child_ns = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for span_id, _, name, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[span_id]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_ns", "end_ns"])
            writer.writerows(self.spans)


class Hooks:
    """Wrappers installed over ``(namespace, attribute, span name)`` targets.

    A namespace is a module or a dict.  Targets whose attribute no longer
    exists are skipped and listed in :attr:`missing`, so the benchmark keeps
    running after a refactor moves a function; its metrics then read zero.
    """

    def __init__(self, recorder: Recorder, targets) -> None:
        self.recorder = recorder
        self.targets = list(targets)
        self.missing = [
            f"{_label(ns)}.{attr}" for ns, attr, _ in self.targets if not _has(ns, attr)
        ]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for ns, attr, name in self.targets:
            if _has(ns, attr):
                original = _get(ns, attr)
                self._saved.append((ns, attr, original))
                _set(ns, attr, self.recorder.wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            ns, attr, original = self._saved.pop()
            _set(ns, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.remove()


def _has(ns, attr: str) -> bool:
    return attr in ns if isinstance(ns, dict) else hasattr(ns, attr)


def _get(ns, attr: str):
    return ns[attr] if isinstance(ns, dict) else getattr(ns, attr)


def _set(ns, attr: str, value) -> None:
    if isinstance(ns, dict):
        ns[attr] = value
    else:
        setattr(ns, attr, value)


def _label(ns) -> str:
    return "dict" if isinstance(ns, dict) else getattr(ns, "__name__", repr(ns))
