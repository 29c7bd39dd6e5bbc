"""CSV emission for sweep rows and reconstructions.

Floating values are serialized with 17 significant digits so files
round-trip exactly; line endings are LF.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConfigError, field_types
from .harness import SweepRow
from .torus import Signal, check_same_grid

__all__ = ["SWEEP_HEADER", "format_float", "write_sweep_csv", "write_signals_csv"]

# column -> int or float, one per SweepRow field in order
_COLUMNS = field_types(SweepRow)
SWEEP_HEADER = ",".join(_COLUMNS)


def format_float(value: float) -> str:
    return f"{value:.17g}"


def write_sweep_csv(rows: Sequence[SweepRow], path: str) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(SWEEP_HEADER + "\n")
        for r in rows:
            cells = [str(getattr(r, name)) if kind is int else format_float(getattr(r, name))
                     for name, kind in _COLUMNS.items()]
            handle.write(",".join(cells) + "\n")


def write_signals_csv(path: str, columns: dict[str, Signal]) -> None:
    """Write named signals side by side, first column the grid points; no
    signal raises :class:`~torusreg.errors.ConfigError`, and signals on two
    grids :class:`~torusreg.errors.GridMismatch`."""
    if not columns:
        raise ConfigError("columns must name at least one signal")
    check_same_grid(*columns.values())
    names = list(columns)
    first = columns[names[0]]
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(["x"] + names) + "\n")
        for i, x in enumerate(first.grid.points):
            cells = [format_float(x)] + [format_float(columns[n].values[i]) for n in names]
            handle.write(",".join(cells) + "\n")
