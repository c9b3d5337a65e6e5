"""Experiment result container: table + shape checks.

Every reconstructed experiment returns one of these; the CLI prints its
checks and splices its markdown into EXPERIMENTS.md between markers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..util.fmt import format_table

__all__ = ["ExperimentResult", "splice_markdown"]

_MARKER = re.compile(r"^<!-- (/?)repro\.bench (\w+) -->(?:\n|\Z)", re.M)


@dataclass
class ExperimentResult:
    """Outcome of one experiment (one table/figure of the paper)."""

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]]
    #: named shape assertions ("who wins / where the crossover falls")
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: str = ""

    def failed_checks(self) -> List[str]:
        return [name for name, ok in self.checks.items() if not ok]

    def render(self) -> str:
        out = [format_table(self.headers, self.rows,
                            title=f"[{self.exp_id}] {self.title}")]
        if self.notes:
            out.append(f"note: {self.notes}")
        for name, ok in self.checks.items():
            out.append(f"  check {'PASS' if ok else 'FAIL'}: {name}")
        return "\n".join(out)

    def to_markdown(self) -> str:
        lines = [f"### {self.exp_id} — {self.title}", ""]
        lines.append("| " + " | ".join(str(h) for h in self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            cells = []
            for x in row:
                if isinstance(x, float):
                    cells.append(f"{x:.3f}" if abs(x) < 1000 else f"{x:.0f}")
                else:
                    cells.append(str(x))
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
        if self.notes:
            lines.append(f"*{self.notes}*")
            lines.append("")
        for name, ok in self.checks.items():
            lines.append(f"- {'✅' if ok else '❌'} {name}")
        lines.append("")
        return "\n".join(lines)


def splice_markdown(text: str, blocks: Dict[str, str]) -> str:
    """``text`` with each ``{exp_id: block}`` between its markers.

    A block replaces what sat between its markers; one ``text`` has no
    markers for is appended with them.  Every byte outside the markers
    is kept.  Raises ValueError on a duplicated or unterminated marker.
    """
    spans, opened = {}, None
    for m in _MARKER.finditer(text):
        closing, exp_id = m.groups()
        if not closing and opened is None and exp_id not in spans:
            opened = (exp_id, m.end())
        elif closing and opened is not None and opened[0] == exp_id:
            spans[exp_id], opened = (opened[1], m.start()), None
        else:
            raise ValueError(f"{m.group(0).strip()} is misplaced or repeated")
    if opened is not None:
        raise ValueError(f"block {opened[0]} has no end marker")
    for exp_id, (start, end) in reversed(spans.items()):
        if exp_id in blocks:  # back to front: earlier offsets still hold
            text = text[:start] + blocks[exp_id] + text[end:]
    for exp_id, block in blocks.items():
        if exp_id not in spans:
            if text:
                text += "\n" if text.endswith("\n") else "\n\n"
            text += (f"<!-- repro.bench {exp_id} -->\n{block}"
                     f"<!-- /repro.bench {exp_id} -->\n")
    return text
