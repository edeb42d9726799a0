"""Periodogram spectra and persistence-of-excitation order bookkeeping.

A signal's spectral lines are counted on the one-sided periodogram with a
relative power threshold; adjacent super-threshold bins are merged into one
line so that leakage around a peak is not double counted.  The excitation
order of a line spectrum is twice the number of distinct frequencies, minus
one when one of them is DC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError
from .regressors import RegressorSpec
from .simulator import TimeSeriesDataset, write_csv

DEFAULT_THRESHOLD = 1.0e-4  # fraction of peak power that counts as a line


@dataclass(frozen=True)
class SpectralLine:
    freq: float   # cycles/sample, peak bin of the merged run
    power: float  # peak power within the run


@dataclass
class SpectrumReport:
    freq: np.ndarray    # cycles/sample, one-sided grid [0, 0.5]
    power: np.ndarray   # sums to sum(signal**2) (rectangular window)
    lines: list[SpectralLine]
    dc_present: bool
    threshold: float

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def to_csv(self, path, epsilon_hours: float) -> None:
        """Frequency grid in cycles/sample and in 1/hours, for a sampling
        period of ``epsilon_hours``."""
        write_csv(path, ["freq_cycles_per_sample", "freq_per_hour", "power"],
                  [self.freq, self.freq / epsilon_hours, self.power])


def spectrum(signal, threshold: float = DEFAULT_THRESHOLD) -> SpectrumReport:
    """One-sided rectangular-window periodogram with line detection.

    The DC bin is tested against the global peak.  Positive-frequency lines
    are referenced to the strongest positive-frequency bin (as on a plot of
    the positive spectrum), provided that bin itself clears the global
    threshold; adjacent super-threshold bins merge into one line so leakage
    around a peak is not double counted.
    """
    x = np.asarray(signal, dtype=float)
    n = len(x)
    if n < 8:
        raise ShapeError(f"need at least 8 samples for a spectrum, got {n}")
    spec = np.fft.rfft(x)
    power = np.abs(spec) ** 2 / n
    # one-sided weights so that total power equals sum(x**2)
    weights = np.full(len(power), 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    power = power * weights
    freq = np.arange(len(power)) / n

    lines: list[SpectralLine] = []
    dc_present = False
    peak = power.max()
    if peak > 0.0:
        if power[0] > threshold * peak:
            dc_present = True
            lines.append(SpectralLine(freq=0.0, power=float(power[0])))
        pos_peak = power[1:].max() if len(power) > 1 else 0.0
        if pos_peak > threshold * peak:
            hot = np.flatnonzero(power[1:] > threshold * pos_peak) + 1
            runs = np.split(hot, np.flatnonzero(np.diff(hot) > 1) + 1) if hot.size else []
            # each run of adjacent bins is one line, at its first maximum
            for run in runs:
                top = run[np.argmax(power[run])]
                lines.append(SpectralLine(freq=float(freq[top]), power=float(power[top])))
    return SpectrumReport(freq=freq, power=power, lines=lines,
                          dc_present=dc_present, threshold=threshold)


def pe_order(report: SpectrumReport) -> int:
    """Excitation order supported by the detected line set."""
    if report.n_lines == 0:
        return 0
    return 2 * report.n_lines - (1 if report.dc_present else 0)


#: dataset columns treated as inputs/disturbances of the zone
def excitation_columns(n_neighbors: int) -> list[str]:
    return [f"T_rj_{j}" for j in range(1, n_neighbors + 1)] + \
        ["Tw_in", "Ta_in", "Vw", "Va", "Qext"]


@dataclass(frozen=True)
class ColumnExcitation:
    column: str
    order: int
    required: int
    dc_present: bool

    @property
    def passed(self) -> bool:
        # a DC line lowers the required order by one
        return self.order >= self.required - (1 if self.dc_present else 0)


@dataclass
class InformativityReport:
    required_order: int
    entries: list[ColumnExcitation]
    spectra: dict[str, SpectrumReport]  # column -> its spectrum, entry order

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def summary(self) -> str:
        lines = [f"required excitation order: {self.required_order} "
                 f"(one less with a DC line)"]
        for e in self.entries:
            verdict = "pass" if e.passed else "FAIL"
            dc = " +DC" if e.dc_present else ""
            lines.append(f"  {e.column:<8s} order {e.order:>3d}{dc:>4s}  {verdict}")
        lines.append(f"overall: {'pass' if self.all_pass else 'FAIL'}")
        return "\n".join(lines)


def informativity_check(dataset: TimeSeriesDataset,
                        spec: RegressorSpec) -> InformativityReport:
    """Check that every input/disturbance column is persistently exciting of
    order 2*(n_neighbors + 2), or one less when its spectrum has a DC line.
    The report keeps each column's spectrum; a missing column is a
    ConfigError, and a column whose power overflows a float a
    NumericalError."""
    required = 2 * (spec.n_neighbors + 2)
    columns = excitation_columns(dataset.n_neighbors)
    dataset.require(columns, "the excitation check")
    with np.errstate(over="ignore", invalid="ignore"):
        spectra = {col: spectrum(dataset.columns[col]) for col in columns}
    for col, rep in spectra.items():
        if not np.isfinite(rep.power).all():
            raise NumericalError(f"the excitation check: the power spectrum of "
                                 f"{col} overflows a float")
    entries = [ColumnExcitation(column=col, order=pe_order(rep), required=required,
                                dc_present=rep.dc_present)
               for col, rep in spectra.items()]
    return InformativityReport(required_order=required, entries=entries,
                               spectra=spectra)
