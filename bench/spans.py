"""In-memory spans for the traced run, timed from outside the library.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the job
span that caused it (None for a job span).  Layer spans nest in a job span;
a span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


def untraced(name, fn, *args, **kwargs):
    """The ``call`` of an untraced run: no span, just the call."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self._job = None

    @contextmanager
    def job(self, name):
        """A job span: the parent of every ``call`` made inside it."""
        span = [name, perf_counter(), None, None]
        self._job = len(self.spans)
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._job = None

    def call(self, name, fn, *args, **kwargs):
        """Call into a layer inside a span named after it."""
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, perf_counter(), self._job])

    def self_times(self):
        """Self time summed per span name; job spans are summed as "job"."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, parent), covered in zip(self.spans, child):
            key = "job" if parent is None else name
            out[key] = out.get(key, 0.0) + (end - start) - covered
        return out

    def job_time(self):
        return sum(end - start for _, start, end, parent in self.spans if parent is None)

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for k, (name, start, end, parent) in enumerate(self.spans):
                rec = {"id": k, "name": name, "start": start - t0, "end": end - t0,
                       "parent": parent}
                fh.write(json.dumps(rec) + "\n")
