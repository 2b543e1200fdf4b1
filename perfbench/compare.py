"""Compare two result sets of the benchmark (parent vs change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one ``<workload>.jsonl`` file per workload; each
line is the last line ``run.py`` printed for one run (untraced and
traced runs may share a file).  Build one with, e.g.::

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload regress_plain --seed $seed \\
            --seconds 10 --trace 0 | tail -n 1 >> parent/regress_plain.jsonl
    done

For every workload in both sets this prints, per end-to-end metric,
both medians with their quartiles, the change relative to the parent
and a verdict against the metric's bound in ``BENCHMARK.json``; then
the per-layer medians with the change of every per-layer time (the
self-time deltas that show where a saving appeared).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, one per run."""
    sets: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        metrics = sets.setdefault(path.stem, {})
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            doc = json.loads(line)
            for name, entry in doc["metrics"].items():
                metrics.setdefault(name, []).append(float(entry["value"]))
    return sets


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """The no-regression rule: worse by more than ``bound`` fails; a
    parent spread wider than the bound leaves the metric unresolved."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse = (pm - cm) / pm if better == "higher" else (cm - pm) / pm
    if worse > bound:
        return f"WORSE by {worse:.1%} > bound {bound:.0%}"
    if (p3 - p1) / pm > bound:
        sign = 1 if better == "higher" else -1
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "better in every run"
        return "unresolved (parent spread exceeds bound)"
    return f"within bound {bound:.0%}"


def render(parent_dir: Path, change_dir: Path) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    parent, change = load(parent_dir), load(change_dir)
    lines: List[str] = []
    for workload in sorted(set(parent) & set(change)):
        p, c = parent[workload], change[workload]
        lines.append(f"== {workload}")
        lines.append(
            f"  {'metric':<30} {'unit':<10} {'parent median [q1, q3]':>34} "
            f"{'change median [q1, q3]':>34} {'change':>8}  verdict"
        )
        for name, meta in end_to_end.items():
            if name in p and name in c:
                lines.append(_row(name, meta["unit"], p[name], c[name])
                             + "  " + verdict(p[name], c[name], meta["better"], meta["bound"]))
        layer_rows = [
            _row(name, meta["unit"], p[name], c[name])
            + (f"  self-time delta {quartiles(c[name])[1] - quartiles(p[name])[1]:+.6f} s"
               if meta["unit"] == "s" else "")
            for name, meta in per_layer.items()
            if name in p and name in c
        ]
        if layer_rows:
            lines.append("  per-layer (traced runs):")
            lines.extend(layer_rows)
    return "\n".join(lines)


def _row(name: str, unit: str, parent: Sequence[float], change: Sequence[float]) -> str:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    relative = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
    return (
        f"  {name:<30} {unit:<10} {pm:>14.6g} [{p1:.6g}, {p3:.6g}]".ljust(77)
        + f" {cm:>14.6g} [{c1:.6g}, {c3:.6g}]".ljust(35)
        + f" {relative:>8}"
    )


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(render(Path(argv[0]), Path(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
