"""Bounded JSONL export of a registry's trace records and spans.

One JSON object per line, ``type``-tagged so mixed streams stay greppable:

- ``{"type": "trace", "time": ..., "category": ..., ...fields}`` — one
  :class:`~repro.obs.registry.TraceRecord`;
- ``{"type": "span", "span": ..., "rank": ..., "peer": ..., "bytes": ...,
  "t_start": ..., "t_end": ..., "duration_ns": ..., "status": ...}`` —
  one completed :class:`~repro.obs.registry.Span`;
- a final ``{"type": "meta", ...}`` line recording how much the bounded
  rings dropped, so a truncated export is never mistaken for a complete
  one.

Memory stays bounded end to end: both source rings are capped
(``MetricsRegistry.max_records``, ``.max_spans``) and the writer streams
line by line — nothing is accumulated.
"""

from __future__ import annotations

import json

from .registry import MetricsRegistry

__all__ = ["export_jsonl"]


def export_jsonl(path: str, registry: MetricsRegistry) -> int:
    """Write ``registry``'s trace records and completed spans to ``path``;
    returns the number of data lines written (excluding the trailing
    meta line)."""
    lines = 0
    with open(path, "w") as fh:
        for kind, rows in (("trace", registry.records),
                           ("span", registry.spans)):
            for row in rows:
                d = row.as_dict()
                d["type"] = kind
                fh.write(json.dumps(d, sort_keys=True))
                fh.write("\n")
                lines += 1
        meta = {"type": "meta", "lines": lines,
                "trace_dropped": registry.records_dropped,
                "spans_dropped": registry.spans_dropped}
        fh.write(json.dumps(meta, sort_keys=True))
        fh.write("\n")
    return lines
