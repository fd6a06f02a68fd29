"""In-memory spans around calls into lidkit, and the self times they imply.

A span is (name, start, end, parent, line): times in perf_counter
nanoseconds, ``parent`` the index of the enclosing span or -1, and ``line``
the input line the span served or -1.  Spans are appended to a list while
the traced loop runs and written out once, when the run ends.  A span's
self time is its duration minus the durations of its children; children of
one span never overlap because every traced call is sequential.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

now = time.perf_counter_ns


class Trace:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self._name_ids: dict[str, int] = {}

    def add(self, name: str, start: int, end: int, parent: int = -1, line: int = -1) -> int:
        """Record a finished span; returns its index for use as a parent."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.spans.append((nid, start, end, parent, line))
        return len(self.spans) - 1

    def open(self, name: str, parent: int = -1, line: int = -1) -> int:
        """Start a span whose end is filled in by :meth:`close`."""
        return self.add(name, now(), 0, parent, line)

    def close(self, index: int) -> None:
        nid, start, _, parent, line = self.spans[index]
        self.spans[index] = (nid, start, now(), parent, line)

    def self_times_ns(self) -> list[int]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_by_name_ns(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for (nid, *_), own in zip(self.spans, self.self_times_ns()):
            totals[self.names[nid]] += own
        return dict(totals)

    def durations_ns(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [end - start for n, start, end, _, _ in self.spans if n == nid]

    def per_line_ns(self, name: str) -> dict[int, int]:
        """Total duration of ``name`` spans for each line id."""
        nid = self._name_ids.get(name)
        out: dict[int, int] = defaultdict(int)
        for n, start, end, _, line in self.spans:
            if n == nid:
                out[line] += end - start
        return dict(out)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "line"],
                       "names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))
