#!/usr/bin/env python3
"""Fold a JSONL span trace into a self-time-per-component table.

The artifact that turns the ROADMAP's hot-path speedup item into a
ranked worklist: read one or more trace files written by ``--trace``
(``python -m repro ... --trace run.jsonl``), compute every span's
*self time* (its duration minus the durations of its direct children),
and aggregate per layer (the component's first dotted part, so
``psl.monitor`` and the ABV harness's ``psl.propset`` both fold into
``psl``), per component (``psl.monitor``, ``psl.propset``,
``sysc.kernel``, ``scenarios``, ``dispatch``, ``workbench``) and per
span name.  Spans carrying a ``property`` attribute (the per-monitor
spans the ABV harness emits) additionally get a per-property
attribution table, so "monitors dominate" becomes "these three
properties dominate"::

    python tools/trace_report.py run.jsonl
    python tools/trace_report.py run.jsonl shard1.jsonl --json
    python tools/trace_report.py run.jsonl --top 5

Multiple files merge cleanly (span ids are namespaced per file), which
is how per-shard traces from a fleet fold into one report.  Exit
status 0 unless a file cannot be read or parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence


def load_spans(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Read spans from JSONL trace files, namespacing ids per file.

    Span/parent ids are only unique within one tracer process, so each
    file's ids get a distinct prefix before merging -- parent links
    never cross files.
    """
    spans: List[Dict[str, Any]] = []
    for file_index, path in enumerate(paths):
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError as exc:
                    raise SystemExit(
                        f"{path}:{line_number}: unparseable span: {exc}"
                    )
                doc["span_id"] = (file_index, doc["span_id"])
                if doc.get("parent_id") is not None:
                    doc["parent_id"] = (file_index, doc["parent_id"])
                spans.append(doc)
    return spans


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[Any, float]:
    """Per-span self time: duration minus direct children's durations.

    Clamped at zero -- synthetic spans (monitor step time attributed
    under a kernel run) can legitimately sum past their parent's
    measured duration by scheduling noise, and negative self time would
    only misrank components.
    """
    children_duration: Dict[Any, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            children_duration[parent] = (
                children_duration.get(parent, 0.0) + span["duration_s"]
            )
    return {
        span["span_id"]: max(
            span["duration_s"] - children_duration.get(span["span_id"], 0.0),
            0.0,
        )
        for span in spans
    }


def fold(spans: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate spans into the report document.

    Returns ``layers`` (components folded by their first dotted part),
    ``components`` (ranked by total self time), ``names`` (per span
    name), and ``properties`` (per-PSL-property attribution from spans
    with an ``attrs.property``), each entry carrying ``self_s``,
    ``total_s`` and ``count``.
    """
    selfs = self_times(spans)
    layers: Dict[str, Dict[str, Any]] = {}
    components: Dict[str, Dict[str, Any]] = {}
    names: Dict[str, Dict[str, Any]] = {}
    properties: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        self_s = selfs[span["span_id"]]
        component = span.get("component", "?")
        for table, key in (
            (layers, component.split(".", 1)[0]),
            (components, component),
            (names, span["name"]),
        ):
            entry = table.setdefault(
                key, {"self_s": 0.0, "total_s": 0.0, "count": 0}
            )
            entry["self_s"] += self_s
            entry["total_s"] += span["duration_s"]
            entry["count"] += 1
        prop = span.get("attrs", {}).get("property")
        if prop:
            entry = properties.setdefault(
                prop, {"self_s": 0.0, "total_s": 0.0, "count": 0, "steps": 0}
            )
            entry["self_s"] += self_s
            entry["total_s"] += span["duration_s"]
            entry["count"] += 1
            entry["steps"] += span.get("attrs", {}).get("steps", 0)
    return {
        "spans": len(spans),
        "layers": _ranked(layers),
        "components": _ranked(components),
        "names": _ranked(names),
        "properties": _ranked(properties),
    }


def _ranked(table: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows = [
        {"name": name, **{k: round(v, 9) if isinstance(v, float) else v
                          for k, v in entry.items()}}
        for name, entry in table.items()
    ]
    rows.sort(key=lambda row: (-row["self_s"], row["name"]))
    return rows


def _format_table(
    title: str, rows: List[Dict[str, Any]], top: Optional[int]
) -> List[str]:
    lines = [f"== {title} (by self time) =="]
    shown = rows if top is None else rows[:top]
    if not shown:
        lines.append("  (no spans)")
        return lines
    total_self = sum(row["self_s"] for row in rows) or 1.0
    width = max(len(row["name"]) for row in shown)
    for row in shown:
        share = 100.0 * row["self_s"] / total_self
        line = (
            f"  {row['name']:<{width}}  self {row['self_s']*1000:9.3f} ms "
            f"({share:5.1f}%)  total {row['total_s']*1000:9.3f} ms  "
            f"x{row['count']}"
        )
        if row.get("steps"):
            line += f"  {row['steps']} steps"
        lines.append(line)
    dropped = len(rows) - len(shown)
    if dropped > 0:
        lines.append(f"  ... {dropped} more row(s); use --top to widen")
    return lines


def render(report: Dict[str, Any], top: Optional[int]) -> str:
    """The text rendering: layers, components, hottest span names,
    properties."""
    lines = [f"trace: {report['spans']} span(s)"]
    lines.extend(_format_table("layers", report["layers"], None))
    lines.extend(_format_table("components", report["components"], None))
    lines.extend(_format_table("span names", report["names"], top))
    if report["properties"]:
        lines.extend(_format_table("PSL properties", report["properties"], top))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry: fold trace file(s), print the ranked tables."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="+", metavar="TRACE.jsonl")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="rows per detail table (default 10; components always full)",
    )
    options = parser.parse_args(argv)
    try:
        spans = load_spans(options.traces)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = fold(spans)
    try:
        if options.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render(report, options.top))
    except BrokenPipeError:
        # `trace_report ... | head` closing the pipe early is fine
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
