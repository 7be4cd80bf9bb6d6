"""Table 1 — capability summary of the compared tuning methods.

The paper's Table 1 is a qualitative feature matrix; here every method
class *declares* its capabilities, the table is generated from those
declarations, and the test suite asserts it matches the paper's claims
symbol for symbol. A declaration need not be implemented: Tuneful's
Meta-learn ✓ comes from the paper, and :class:`TunefulTuner` has no
similarity store.
"""
from __future__ import annotations

from repro.baselines import (
    CherryPickTuner, DACTuner, LOCATTuner, RFHOCTuner, TunefulTuner,
)
from repro.core.controller import OnlineTuner

COLUMNS = (
    "General obj.", "Constr.", "NOER", "Safety", "Adaptive space", "Meta-learn"
)

#: The paper's Table 1, transcribed (✓=yes, ×=no, △=partial).
PAPER_TABLE1 = {
    "RFHOC": ("no", "no", "no", "no", "no", "no"),
    "DAC": ("no", "no", "no", "no", "no", "no"),
    "CherryPick": ("no", "partial", "yes", "no", "no", "no"),
    "Tuneful": ("no", "no", "yes", "no", "partial", "yes"),
    "LOCAT": ("no", "no", "yes", "no", "partial", "no"),
    "Ours": ("yes", "yes", "yes", "yes", "yes", "yes"),
}

METHODS = (RFHOCTuner, DACTuner, CherryPickTuner, TunefulTuner, LOCATTuner, OnlineTuner)

_SYMBOL = {"yes": "✓", "no": "×", "partial": "△"}


def run() -> dict[str, tuple[str, ...]]:
    """Capability rows as declared by each implementation."""
    return {m.name: m.capabilities.row() for m in METHODS}


def format_table(rows: dict[str, tuple[str, ...]] | None = None) -> str:
    rows = rows or run()
    head = f"{'Method':<12}" + "".join(f"{c:>15}" for c in COLUMNS)
    lines = [head, "-" * len(head)]
    for name, row in rows.items():
        lines.append(f"{name:<12}" + "".join(f"{_SYMBOL[v]:>15}" for v in row))
    return "\n".join(lines)
