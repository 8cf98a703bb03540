"""Small report containers shared by the Gram-matrix builders and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce


@dataclass
class GramReport:
    """A computed Gram matrix next to its analytic target.

    matrix and target are lists of rows of real entries, floats in double
    and the context's mpf at set digits (real parts; every Gram this
    library builds is real up to roundoff). max_abs_deviation is
    always recomputed from the stored entries rather than cached, so a
    report edited after the fact cannot misstate its own quality.
    """

    labels: list
    matrix: list
    target: list
    precision_digits: int | None = None
    notes: dict = field(default_factory=dict)

    def entry_deviations(self, relative: bool = False) -> list:
        """(i, j, |value - target|) row by row; relative divides by
        sqrt(|T_ii| |T_jj|), the natural size of an (i, j) entry when the
        diagonal grows or decays, wherever that scale is nonzero."""
        out = [(i, j, abs(v - t))
               for i, (row, trow) in enumerate(zip(self.matrix, self.target))
               for j, (v, t) in enumerate(zip(row, trow))]
        return self._relative(out) if relative else out

    def _relative(self, entries: list) -> list:
        """Absolute entry deviations rescaled as entry_deviations(True)."""
        diag = [abs(row[i]) for i, row in enumerate(self.target)]
        root = [[(a * b) ** 0.5 for b in diag[:i + 1]]  # one per pair
                for i, a in enumerate(diag)]
        scales = (root[max(i, j)][min(i, j)] for i, j, _ in entries)
        return [(i, j, dev / s if s > 0 else dev)
                for (i, j, dev), s in zip(entries, scales)]

    def deviations(self, relative: bool = False) -> tuple:
        """(largest deviation, entry_deviations(relative)) from one walk."""
        entries = self.entry_deviations(relative)
        return _largest(entries), entries

    @property
    def max_abs_deviation(self) -> float:
        return self.deviations()[0]

    def deviation_matrix(self) -> list:
        return [[v - t for v, t in zip(row, trow)]
                for row, trow in zip(self.matrix, self.target)]

    def max_relative_deviation(self) -> float:
        """The largest relative entry deviation (see entry_deviations)."""
        return self.deviations(True)[0]

    def worst_entries(self, count: int = 3) -> list:
        """The count largest absolute deviations as (i, j, value, target)."""
        worst = sorted(self.entry_deviations(),
                       key=lambda item: (-item[2], item[0], item[1]))
        return [(i, j, self.matrix[i][j], self.target[i][j])
                for i, j, _ in worst[:count]]

    def to_dict(self) -> dict:
        worst, entries = self.deviations()
        return {
            "labels": list(self.labels),
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "target": [[float(v) for v in row] for row in self.target],
            "max_abs_deviation": float(worst),
            "max_relative_deviation": float(_largest(self._relative(entries))),
            "precision_digits": self.precision_digits,
            "notes": dict(self.notes),
        }


def _largest(entries: list) -> float:
    """The largest deviation of (i, j, deviation) entries; 0.0 when empty."""
    return reduce(max, (dev for _, _, dev in entries), 0.0)
