"""Small report containers shared by the Gram-matrix builders and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce


@dataclass
class GramReport:
    """A computed Gram matrix next to its analytic target.

    matrix and target are lists of rows of floats (real parts; every Gram
    this library builds is real up to roundoff). max_abs_deviation is
    always recomputed from the stored entries rather than cached, so a
    report edited after the fact cannot misstate its own quality.
    """

    labels: list
    matrix: list
    target: list
    precision_digits: int | None = None
    notes: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.labels)

    def entry_deviations(self, relative: bool = False) -> list:
        """(i, j, |value - target|) row by row; relative divides by
        sqrt(|T_ii| |T_jj|), the natural size of an (i, j) entry when the
        diagonal grows or decays, wherever that scale is nonzero."""
        out = []
        for i, (row, trow) in enumerate(zip(self.matrix, self.target)):
            for j, (v, t) in enumerate(zip(row, trow)):
                dev = abs(v - t)
                if relative:
                    scl = (abs(self.target[i][i]) * abs(self.target[j][j])) ** 0.5
                    dev = dev / scl if scl > 0 else dev
                out.append((i, j, dev))
        return out

    @property
    def max_abs_deviation(self) -> float:
        return reduce(max, (dev for _, _, dev in self.entry_deviations()), 0.0)

    def deviation_matrix(self) -> list:
        return [[v - t for v, t in zip(row, trow)]
                for row, trow in zip(self.matrix, self.target)]

    def max_relative_deviation(self) -> float:
        """The largest relative entry deviation (see entry_deviations)."""
        return reduce(max, (dev for _, _, dev in self.entry_deviations(True)),
                      0.0)

    def worst_entries(self, count: int = 3) -> list:
        """The count largest absolute deviations as (i, j, value, target)."""
        worst = sorted(self.entry_deviations(),
                       key=lambda item: (-item[2], item[0], item[1]))
        return [(i, j, self.matrix[i][j], self.target[i][j])
                for i, j, _ in worst[:count]]

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "target": [[float(v) for v in row] for row in self.target],
            "max_abs_deviation": float(self.max_abs_deviation),
            "max_relative_deviation": float(self.max_relative_deviation()),
            "precision_digits": self.precision_digits,
            "notes": dict(self.notes),
        }
