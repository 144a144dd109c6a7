"""In-memory spans around calls into rep132, installed from outside.

A Tracer replaces public functions on the modules that call them (for
example rep132.search.relabel, which is the name search_all_labelings looks
up) with wrappers that record one span per call: name, start, end and the
index of the enclosing span. Spans stay in memory until the traced pass
ends.

Worker processes forked by ProcessPoolExecutor inherit the wrappers. In a
worker only the kernel wrapper does anything: it appends one fixed-size
record (nodes, words tested, nanoseconds) per call to a counts file opened
with O_APPEND before the fork, so records from concurrent workers never
interleave and the parent can tell how many labelings the workers ran.
Other wrappers pass straight through there.
"""

from __future__ import annotations

import os
import struct
import time
from collections import defaultdict
from pathlib import Path

_RECORD = struct.Struct("<qqq")  # nodes, words tested, nanoseconds


class Tracer:
    def __init__(self, counts_path: Path):
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.items: dict = defaultdict(int)  # items yielded, per iterate() name
        self.parent_kernel = [0, 0]  # nodes and words tested in this process
        self.worker_kernel = [0, 0, 0, 0.0]  # calls, nodes, tested, seconds
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._counts_path = counts_path
        self._counts_fd = os.open(
            counts_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o600
        )

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        if os.getpid() != self.pid:
            return fn(*args, **kwargs)
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def iterate(self, name: str, iterator):
        """Yield from iterator, one span per next(), the exhausting one too."""
        it = iter(iterator)
        while True:
            rec = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(rec)
            self.items[name] += 1
            yield item

    # -- installing ------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        """Set owner.attr to make(original); a name the program no longer
        has is listed in self.missing, so the other layers still report."""
        if not hasattr(owner, attr):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of owner.attr."""

        def make(fn):
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

            return traced

        self._replace(owner, attr, make)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """For a function returning an iterator: one span per next()."""

        def make(fn):
            def traced(*args, **kwargs):
                return self.iterate(name, fn(*args, **kwargs))

            return traced

        self._replace(owner, attr, make)

    def wrap_kernel(self, kernels_module) -> None:
        """Span and count every run_search call, in this process and its forks."""
        fd = self._counts_fd
        mine = self.parent_kernel

        def make(fn):
            def traced(*args, **kwargs):
                if os.getpid() == self.pid:
                    res = self.call("kernels.run_search", fn, *args, **kwargs)
                    mine[0] += res[1]
                    mine[1] += res[2]
                    return res
                t0 = time.perf_counter_ns()
                res = fn(*args, **kwargs)
                os.write(fd, _RECORD.pack(res[1], res[2], time.perf_counter_ns() - t0))
                return res

            return traced

        self._replace(kernels_module, "run_search", make)

    def wrap_pool_class(self, owner, attr: str) -> None:
        """Span an executor's construction, map submission, waits and shutdown."""
        tracer = self

        def make(base):
            class TracedPool(base):
                def __init__(self, *args, **kwargs):
                    tracer.call("search.pool_init", super().__init__, *args, **kwargs)

                def map(self, *args, **kwargs):
                    results = tracer.call("search.pool_map", super().map, *args, **kwargs)
                    return tracer.iterate("search.pool_wait", results)

                def shutdown(self, *args, **kwargs):
                    tracer.call("search.pool_shutdown", super().shutdown, *args, **kwargs)

            return TracedPool

        self._replace(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._counts_fd >= 0:
            os.close(self._counts_fd)
            self._counts_fd = -1
            out = self.worker_kernel
            for nodes, tested, ns in _RECORD.iter_unpack(self._counts_path.read_bytes()):
                out[0] += 1
                out[1] += nodes
                out[2] += tested
                out[3] += ns / 1e9

    # -- reading ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total time, and self time.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap, since the tracing
        process records spans from one thread.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        count: dict = defaultdict(int)
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            count[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return count, total, own
