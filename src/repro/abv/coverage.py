"""Coverage accounting over cover directives and assertion activity.

"This shows a very short time (few seconds) to simulate million[s] of
cycles which offers good coverage for the assertions" (paper, Section
4.3).  The collector aggregates cover-monitor hits and suffix-
implication trigger counts into one report, so a run can state not
just "no assertion fired" but "the assertions were exercised N times".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..psl.monitor import Monitor
from ..psl.semantics import Verdict


@dataclass(frozen=True)
class CoverageEntry:
    name: str
    kind: str
    hits: int
    verdict: str

    def __str__(self) -> str:
        return f"{self.name:<40} {self.kind:<12} {self.hits:>8}  {self.verdict}"


class CoverageCollector:
    """Aggregates activity across a monitor suite."""

    def __init__(self, monitors: Sequence[Monitor] = ()):
        self.monitors: List[Monitor] = list(monitors)

    def add(self, monitor: Monitor) -> None:
        self.monitors.append(monitor)

    def entries(self) -> List[CoverageEntry]:
        """One entry per monitor, keyed off the monitor protocol so both
        engines' classes report alike: covers count ``hits``, suffix
        implications their antecedent matches (``triggered``), other
        assertions the cycles they watched."""
        collected: List[CoverageEntry] = []
        for monitor in self.monitors:
            if monitor.is_cover:
                kind, hits = "cover", monitor.hits
            else:
                kind = "assertion"
                hits = getattr(monitor, "triggered", None)
                if hits is None:
                    hits = max(monitor.cycle + 1, 0)
            collected.append(
                CoverageEntry(
                    name=monitor.name,
                    kind=kind,
                    hits=hits,
                    verdict=monitor.verdict().value,
                )
            )
        return collected

    @property
    def uncovered(self) -> List[str]:
        return [
            e.name for e in self.entries() if e.kind == "cover" and e.hits == 0
        ]

    @property
    def never_triggered(self) -> List[str]:
        """Assertions whose antecedent never matched: vacuous passes."""
        return [
            e.name
            for e in self.entries()
            if e.kind == "assertion" and e.hits == 0
        ]

    def report(self) -> str:
        lines = [f"{'name':<40} {'kind':<12} {'hits':>8}  verdict"]
        lines.append("-" * 75)
        lines.extend(str(e) for e in self.entries())
        if self.uncovered:
            lines.append(f"uncovered goals: {', '.join(self.uncovered)}")
        if self.never_triggered:
            lines.append(
                f"vacuous assertions (never triggered): "
                f"{', '.join(self.never_triggered)}"
            )
        return "\n".join(lines)
