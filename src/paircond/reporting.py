"""Scan rows, power-law fits and report serialization shared by the
experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class FitError(ValueError):
    """Degenerate data handed to the fitter."""


@dataclass
class PowerLawFit:
    exponent: float
    prefactor: float
    rms_residual: float
    refused: bool = False
    model: str = "loglog"

    def to_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "prefactor": self.prefactor,
            "rms_residual": self.rms_residual,
            "refused": self.refused,
            "model": self.model,
        }


def fit_power_law(x, y, model: str = "loglog") -> PowerLawFit:
    """Least-squares fit of y = prefactor * x^exponent (loglog model) or
    y = prefactor + exponent * x (linear model).

    The loglog fit is flagged ``refused`` when the rms residual in log space
    exceeds 0.2 (the data is then not a power law at this resolution). At
    least three distinct controls are needed: through two, any line fits
    with zero residual.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3 or x.size != y.size:
        raise FitError("need at least 3 matching rows")
    if np.unique(x).size < 3:  # a line through two points fits exactly
        raise FitError("need at least 3 distinct control values")
    if model == "loglog":
        if np.any(x <= 0) or np.any(y <= 0):
            raise FitError("loglog model needs positive controls and observables")
        x, y = np.log(x), np.log(y)
    elif model != "linear":
        raise FitError(f"unknown fit model {model!r}")
    slope, intercept = np.polyfit(x, y, 1)
    # observables near the float range overflow the squared residual; the
    # rms is then inf or nan, which the callers refuse as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    if model == "loglog":
        return PowerLawFit(float(slope), float(np.exp(intercept)), rms,
                           refused=rms > 0.2, model=model)
    return PowerLawFit(float(slope), float(intercept), rms, model=model)


@dataclass
class ScanReport:
    """Ordered scan rows plus fits and run metadata."""

    columns: list
    rows: list
    fits: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def sorted_rows(self) -> list:
        return sorted(self.rows, key=lambda r: r[0])

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.sorted_rows():
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def fit_summary(self) -> dict:
        return {name: fit.to_dict() for name, fit in self.fits.items()}
