"""Evaluation statistics and reports: exact/within-1 rates, Pearson, MAD,
weighted Krippendorff alpha, and scorer-vs-scorer cross tabulation.

Two constructors build every report: :func:`report` makes a
:class:`MetricsReport` from one paired series, and :func:`average` makes an
:class:`AveragedReport` from repetition reports over the same texts. Both
print a row of their fields in order through one cell rule: an int as is, a
float to 3 decimals, and an undefined value (``None``) as ``NA``. Internal
values keep full precision; rounding happens only at display time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptySeries, InsufficientData, LengthError


@dataclass(frozen=True)
class PairedSeries:
    predictions: tuple[int, ...]
    golds: tuple[float, ...]

    def __post_init__(self):
        if len(self.predictions) != len(self.golds):
            raise LengthError(f"length mismatch: {len(self.predictions)} vs {len(self.golds)}")
        if not self.predictions:
            raise EmptySeries("empty paired series")


def _cell(value) -> str:
    return "NA" if value is None else str(value) if isinstance(value, int) else f"{value:.3f}"


class _Report:
    def tsv_row(self) -> str:  # the fields in TSV_HEADER order
        return "\t".join(_cell(getattr(self, f.name)) for f in fields(self))


@dataclass(frozen=True)
class MetricsReport(_Report):
    n: int
    exact_pct: float
    within1_pct: float
    pearson: float | None  # None when undefined (zero variance)
    mad: float

    TSV_HEADER = "n\texact\twithin1\tpearson\tmad"


@dataclass(frozen=True)
class AveragedReport(_Report):
    n: int
    reps: int
    exact_pct: float
    within1_pct: float
    pearson: float | None  # mean over the repetitions where it is defined
    pearson_skipped: int  # repetitions with undefined correlation
    mad: float

    TSV_HEADER = "n\treps\texact\twithin1\tpearson\tpearson_skipped\tmad"


def mad(s: PairedSeries) -> float:
    """Mean of |prediction - gold|."""
    p = np.asarray(s.predictions, dtype=float)
    g = np.asarray(s.golds, dtype=float)
    return float(np.mean(np.abs(p - g)))


def pearson(s: PairedSeries) -> float | None:
    """Sample Pearson correlation; None when either side is constant."""
    p = np.asarray(s.predictions, dtype=float)
    g = np.asarray(s.golds, dtype=float)
    dp = p - p.mean()
    dg = g - g.mean()
    denom = np.sqrt((dp * dp).sum() * (dg * dg).sum())
    if denom == 0.0:
        return None
    return float((dp * dg).sum() / denom)


def exact_within1(s: PairedSeries) -> tuple[float, float]:
    p = np.asarray(s.predictions, dtype=float)
    g = np.asarray(s.golds, dtype=float)
    diff = np.abs(p - g)
    exact = 100.0 * float(np.mean(diff == 0))
    within1 = 100.0 * float(np.mean(diff <= 1))
    return exact, within1


def report(s: PairedSeries) -> MetricsReport:
    exact, within1 = exact_within1(s)
    return MetricsReport(len(s.predictions), exact, within1, pearson(s), mad(s))


def average(reports) -> AveragedReport:
    """The mean of repetition reports over the same texts; Pearson's mean is over
    the repetitions where it is defined (None if none is), the rest counted."""
    if len({r.n for r in reports}) != 1:
        raise LengthError(f"reports over one text count needed, got {sorted({r.n for r in reports})}")
    defined = [r.pearson for r in reports if r.pearson is not None]
    mean = lambda name: sum(getattr(r, name) for r in reports) / len(reports)
    return AveragedReport(reports[0].n, len(reports), mean("exact_pct"), mean("within1_pct"),
                          sum(defined) / len(defined) if defined else None,
                          len(reports) - len(defined), mean("mad"))


@dataclass(frozen=True)
class CodingMatrix:
    """Items x coders integer codes; None marks a missing cell."""
    cells: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        if not self.cells:
            raise InsufficientData("no items to code")
        if len(self.cells[0]) < 2:
            raise InsufficientData("need at least 2 coders")
        width = len(self.cells[0])
        if any(len(row) != width for row in self.cells):
            raise LengthError("ragged coding matrix")


def krippendorff_alpha_weighted(m: CodingMatrix, metric: str = "linear") -> float:
    """Weighted Krippendorff alpha from the coincidence matrix.

    Disagreement between codes c and k is |c - k| ("linear", the default)
    or (c - k)^2 ("interval"). Items with fewer than two codes are
    excluded. Returns 1.0 when every pairable code is identical.
    """
    if metric == "linear":
        delta = lambda c, k: abs(c - k)
    elif metric == "interval":
        delta = lambda c, k: (c - k) ** 2
    else:
        raise ValueError(f"unknown metric {metric!r}")

    values = sorted({v for row in m.cells for v in row if v is not None})
    index = {v: i for i, v in enumerate(values)}
    size = len(values)
    coincidence = np.zeros((size, size))

    for row in m.cells:
        codes = [v for v in row if v is not None]
        if len(codes) < 2:
            continue
        weight = 1.0 / (len(codes) - 1)
        for a in range(len(codes)):
            for b in range(len(codes)):
                if a != b:
                    coincidence[index[codes[a]], index[codes[b]]] += weight

    n_total = coincidence.sum()
    if n_total <= 0:
        raise InsufficientData("no item has two codeable values")

    weights = np.array([[delta(c, k) for k in values] for c in values], dtype=float)
    marginals = coincidence.sum(axis=1)
    d_observed = (coincidence * weights).sum() / n_total
    d_expected = (np.outer(marginals, marginals) * weights).sum() / (n_total * (n_total - 1.0))
    if d_expected == 0.0:
        return 1.0  # all pairable codes identical everywhere
    return float(1.0 - d_observed / d_expected)


def cross_tab(a, b, value_range) -> np.ndarray:
    """Percentage cross-tabulation of two integer series over value_range."""
    if len(a) != len(b):
        raise LengthError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        raise EmptySeries("empty series")
    values = list(value_range)
    index = {v: i for i, v in enumerate(values)}
    outside = [v for v in (*a, *b) if v not in index]
    if outside:
        raise ValueError(f"value {outside[0]!r} outside the value range {value_range}")
    table = np.zeros((len(values), len(values)))
    for x, y in zip(a, b):
        table[index[x], index[y]] += 1
    return table * (100.0 / len(a))
