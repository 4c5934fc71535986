"""Textual animation of simulation traces — "validations (simulation,
animation etc)".

Two renderings of a collaboration trace:

* :func:`timeline` — one line per occurrence, chronological;
* :func:`sequence_diagram` — an ASCII sequence diagram of the observed
  messages, which makes the *emergent* interaction directly comparable
  with the interaction diagrams that specified the scenarios.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .collaboration import Collaboration


def timeline(collaboration: Collaboration, *,
             kinds: Optional[Sequence[str]] = None) -> str:
    """Chronological one-line-per-event rendering of the trace."""
    wanted = set(kinds) if kinds else None
    lines: List[str] = []
    for entry in collaboration.trace:
        if wanted is not None and entry.kind not in wanted:
            continue
        lines.append(str(entry))
    return "\n".join(lines)


def state_history(collaboration: Collaboration,
                  object_name: str) -> List[str]:
    """The sequence of states one object passed through."""
    return [entry.detail["state"] for entry in collaboration.trace
            if entry.kind == "state" and entry.object_name == object_name]


def sequence_diagram(collaboration: Collaboration, *,
                     width: int = 16) -> str:
    """ASCII sequence diagram of observed messages.

    Columns are object lifelines in creation order; each message is an
    arrow row.  Example::

        driver          car             engine
          |--start------->|               |
          |               |--ignite------>|
    """
    names = list(collaboration.objects)
    if not names:
        return "(no objects)"
    column: Dict[str, int] = {name: i for i, name in enumerate(names)}
    header = "".join(name.ljust(width) for name in names)
    lines = [header]

    def lifeline_row() -> List[str]:
        return [("|" + " " * (width - 1)) for _ in names]

    for sender, receiver, event in collaboration.messages():
        if sender not in column or receiver not in column:
            continue
        src = column[sender]
        dst = column[receiver]
        if src == dst:
            row = lifeline_row()
            row[src] = f"|<self:{event}".ljust(width)[:width]
            lines.append("".join(row).rstrip())
            continue
        left, right = min(src, dst), max(src, dst)
        span = (right - left) * width - 1
        label = event[: max(0, span - 3)]
        if src < dst:
            arrow = ("--" + label).ljust(span - 1, "-") + ">"
        else:
            arrow = "<" + (label + "--").rjust(span - 1, "-")
        cells = lifeline_row()
        row_text = "".join(cells[:left]) + "|" + arrow + "|"
        # pad out the remaining lifelines to the right of the arrow
        suffix = "".join(cells[right + 1:])
        padding = " " * max(0, (right + 1) * width - len(row_text))
        lines.append((row_text + padding + suffix).rstrip())
    return "\n".join(lines)


def attribute_series(collaboration: Collaboration, object_name: str,
                     attribute_name: str) -> List[Tuple[int, object]]:
    """(step, value) samples of one attribute over the run."""
    series: List[Tuple[int, object]] = []
    for entry in collaboration.trace:
        if (entry.kind == "assign"
                and entry.object_name == object_name
                and entry.detail.get("attr") == attribute_name):
            series.append((entry.step, entry.detail.get("value")))
    return series
