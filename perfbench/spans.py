"""In-memory spans around the benchmark's own calls into each sdrkit layer.

A span has a name ``<layer>.<function>``, a start and end from
``time.perf_counter``, the id of the span that was open when it started, the
run id shared by every span of one process, and an optional tag that marks
a slice of calls (for example the large-prime Hilbert symbols). Spans stay
in memory until the run ends and are then written as JSON lines.

With tracing off, :meth:`Tracer.call` is a plain call and :meth:`Tracer.span`
records nothing, so the untraced runs that give the end-to-end metrics pay
only one extra Python call per library call.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        # each span: [id, name, start, end, parent, tag]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, tag: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = [sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None, tag]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, tag: Optional[str] = None) -> Any:
        """Call ``fn(*args)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args)
        with self.span(name, tag):
            return fn(*args)

    def write_jsonl(self, path: str, header: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for sid, name, start, end, parent, tag in self.spans:
                rec = {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": self.run_id,
                }
                if tag is not None:
                    rec["tag"] = tag
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name and per layer: calls, self seconds, total seconds.

        Keys are span names (``matgroups.close``), span names with a tag
        (``localglobal.hilbert_symbol.large_prime``) and layers
        (``matgroups``). Self time is a span's duration minus the part its
        child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}

        def add(key: str, total: float, self_s: float) -> None:
            agg = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += total
            agg["self_s"] += self_s

        for sid, name, start, end, _, tag in self.spans:
            total = end - start
            self_s = total - child_time[sid]
            add(name, total, self_s)
            if tag is not None:
                add(f"{name}.{tag}", total, self_s)
            add(name.split(".", 1)[0], total, self_s)
        return out
