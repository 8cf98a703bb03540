"""Small report containers shared by the Gram-matrix builders and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np


@dataclass
class GramReport:
    """A computed matrix next to its analytic target: a Gram or, for
    circle.parseval_bridge, the coefficient rows of phi_0..phi_nmax.

    matrix and target are 2-D arrays of real entries: float64 in double,
    object arrays of the context's mpf at set digits (real parts; every
    Gram this library builds is real up to roundoff). The deviations are
    always recomputed from the stored entries rather than cached, so a
    report edited after the fact cannot misstate its own quality.
    """

    labels: list
    matrix: np.ndarray
    target: np.ndarray
    precision_digits: int | None = None
    notes: dict = field(default_factory=dict)

    def deviation_matrix(self) -> np.ndarray:
        """matrix - target; a zero of the target subtracts nothing."""
        out, live = self.matrix.copy(), self.target != 0
        out[live] = self.matrix[live] - self.target[live]
        return out

    def deviations(self, relative: bool = False) -> np.ndarray:
        """|matrix - target| entry by entry; relative divides entry (i, j)
        by sqrt(|T_ii|) sqrt(|T_jj|), the natural size of an entry when the
        diagonal grows or decays, wherever that scale is nonzero. An entry
        or target past the double range gives an inf or NaN deviation, and
        no warning: the judge fails it."""
        with np.errstate(over="ignore", invalid="ignore"):
            dev = abs(self.deviation_matrix())
        return _relative_to(self.target, dev) if relative else dev

    @property
    def max_abs_deviation(self) -> float:
        return _largest(self.deviations())

    def max_relative_deviation(self) -> float:
        """The largest relative entry deviation (see deviations)."""
        return _largest(self.deviations(True))

    def worst_entries(self, count: int = 3) -> list:
        """The count largest absolute deviations as (i, j, value, target)."""
        dev = self.deviations()
        worst = sorted(np.ndindex(dev.shape), key=lambda ij: -dev[ij])
        return [(i, j, self.matrix.item(i, j), self.target.item(i, j))
                for i, j in worst[:count]]

    def to_dict(self) -> dict:
        """The JSON-ready report; a non-finite entry or deviation is written
        as null so the report stays strict JSON."""
        dev = self.deviations()
        return {
            "labels": list(self.labels),
            "matrix": json_floats(self.matrix),
            "target": json_floats(self.target),
            "max_abs_deviation": json_floats(_largest(dev)),
            "max_relative_deviation": json_floats(
                _largest(_relative_to(self.target, dev))),
            "precision_digits": self.precision_digits,
            "notes": dict(self.notes),
        }


def _relative_to(target: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """dev over sqrt(|T_ii|) sqrt(|T_jj|) where that is nonzero: one root
    per diagonal entry, x ** 0.5 in the entry's own type (libm's pow in
    double), and their outer product, which stays finite for every finite
    diagonal."""
    roots = np.array([x ** 0.5 for x in abs(np.diagonal(target)).tolist()],
                     target.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.multiply.outer(roots, roots)
        return np.divide(dev, scale, out=dev.copy(), where=scale > 0)


def _largest(dev: np.ndarray):
    """The largest deviation other than NaN, 0.0 when there is none."""
    return dev[dev == dev].max(initial=0.0)


def json_floats(values):
    """An array, or one number, as Python floats, None where not finite."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values), values, None).tolist()


def real_part(values: np.ndarray) -> np.ndarray:
    """The real part of each entry, of an object array's too, whose .real
    numpy does not take entry by entry."""
    return values.real if values.dtype != object else \
        np.frompyfunc(attrgetter("real"), 1, 1)(values)
