import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tensilex.errors import EmptySeries, InsufficientData, LengthError
from tensilex.metrics import (
    CodingMatrix,
    PairedSeries,
    average,
    cross_tab,
    exact_within1,
    krippendorff_alpha_weighted,
    mad,
    pearson,
    report,
)

from .oracles import kripp_alpha_bruteforce, pearson_bruteforce

PAPER_SERIES = PairedSeries((1, 5, 5, 5), (1, 5, 5, 1))


def test_mad_paper_example():
    assert mad(PAPER_SERIES) == 1.000


def test_mad_zero_on_identical():
    assert mad(PairedSeries((2, 3, 4), (2, 3, 4))) == 0.0


def test_mad_simple():
    assert mad(PairedSeries((2, 2), (1, 4))) == 1.5


def test_pearson_paper_example():
    assert abs(pearson(PAPER_SERIES) - 0.577) < 0.001


def test_pearson_identical_nonconstant():
    assert pearson(PairedSeries((1, 2, 3), (1, 2, 3))) == pytest.approx(1.0)


def test_pearson_constant_undefined():
    assert pearson(PairedSeries((1, 2, 3), (2, 2, 2))) is None


def test_pearson_affine_invariance():
    base = PairedSeries((1, 2, 5, 3), (2, 4, 4, 1))
    shifted = PairedSeries(tuple(3 * p + 7 for p in base.predictions), base.golds)
    assert pearson(base) == pytest.approx(pearson(shifted))


def test_exact_within1_paper_series():
    assert exact_within1(PAPER_SERIES) == (75.0, 75.0)


def test_exact_within1_identical():
    assert exact_within1(PairedSeries((1, 1), (1, 1))) == (100.0, 100.0)


def test_exact_within1_mixed():
    assert exact_within1(PairedSeries((2, 3), (1, 5))) == (0.0, 50.0)


def test_exact_never_exceeds_within1():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 20)
        s = PairedSeries(tuple(rng.randint(1, 5) for _ in range(n)),
                         tuple(rng.randint(1, 5) for _ in range(n)))
        exact, within1 = exact_within1(s)
        assert 0 <= exact <= within1 <= 100


def test_empty_series_rejected():
    with pytest.raises(EmptySeries):
        PairedSeries((), ())
    with pytest.raises(LengthError):
        PairedSeries((1,), (1, 2))


def test_report_tsv():
    rpt = report(PAPER_SERIES)
    assert rpt.tsv_row() == "4\t75.000\t75.000\t0.577\t1.000"


def test_report_tsv_undefined_pearson():
    rpt = report(PairedSeries((2, 2, 2), (1, 2, 3)))  # constant predictions
    assert rpt.pearson is None
    assert rpt.tsv_row() == "3\t33.333\t100.000\tNA\t0.667"


CONSTANT_PREDICTIONS = report(PairedSeries((2, 2, 2), (1, 2, 3)))  # pearson undefined


def test_average_tsv_one_pearson_undefined():
    reps = [CONSTANT_PREDICTIONS, report(PairedSeries((1, 2, 3), (1, 2, 3))),
            report(PairedSeries((1, 2, 3), (1, 3, 2)))]  # pearson 1.0 and 0.5
    assert average(reps).tsv_row() == "3\t3\t55.556\t100.000\t0.750\t1\t0.444"


def test_average_tsv_every_pearson_undefined():
    reps = [CONSTANT_PREDICTIONS, report(PairedSeries((1, 1, 1), (1, 2, 3)))]
    assert average(reps).tsv_row() == "3\t2\t33.333\t83.333\tNA\t2\t0.833"


@pytest.mark.parametrize("reps", [[], [CONSTANT_PREDICTIONS, report(PairedSeries((1,), (1,)))]],
                         ids=["none", "different-n"])
def test_average_needs_reports_over_one_text_count(reps):
    with pytest.raises(LengthError, match="one text count"):
        average(reps)


def test_alpha_perfect_agreement():
    matrix = CodingMatrix(tuple((c, c, c) for c in (1, 3, 5, 2, 2)))
    assert krippendorff_alpha_weighted(matrix) == 1.0


@pytest.mark.parametrize("metric", ["linear", "interval"])
def test_alpha_one_distinct_value_is_perfect(metric):
    # No expected disagreement at all: alpha is 1.0, not 0/0.
    rows = [(3, 3, None), (3, 3, 3)]
    assert krippendorff_alpha_weighted(CodingMatrix(tuple(rows)), metric=metric) == 1.0
    assert kripp_alpha_bruteforce(rows, metric=metric) == 1.0


def test_alpha_two_coders_crossed():
    matrix = CodingMatrix(((1, 5), (5, 1)))
    assert krippendorff_alpha_weighted(matrix) == pytest.approx(
        kripp_alpha_bruteforce([(1, 5), (5, 1)]), abs=1e-12)


def test_alpha_matches_bruteforce_on_random_matrices():
    rng = random.Random(42)
    for _ in range(100):
        rows = []
        for _ in range(rng.randint(2, 10)):
            row = tuple(rng.randint(1, 5) if rng.random() > 0.2 else None for _ in range(3))
            rows.append(row)
        rows.append((rng.randint(1, 5), rng.randint(1, 5), None))  # guarantee a pairable item
        try:
            expected = kripp_alpha_bruteforce(rows)
        except ValueError:
            continue
        got = krippendorff_alpha_weighted(CodingMatrix(tuple(rows)))
        assert got == pytest.approx(expected, abs=1e-9)


def test_alpha_interval_metric_option():
    rows = [(1, 2, 4), (3, 3, 5), (1, 1, 2)]
    got = krippendorff_alpha_weighted(CodingMatrix(tuple(rows)), metric="interval")
    assert got == pytest.approx(kripp_alpha_bruteforce(rows, metric="interval"), abs=1e-9)


def test_alpha_monotone_under_wider_disagreement():
    near = CodingMatrix(((1, 2), (3, 3), (4, 4)))
    far = CodingMatrix(((1, 5), (3, 3), (4, 4)))
    assert krippendorff_alpha_weighted(far) < krippendorff_alpha_weighted(near)


def test_alpha_items_with_single_code_excluded():
    with_singleton = CodingMatrix(((1, 2), (4, None)))
    without = CodingMatrix(((1, 2),))
    assert krippendorff_alpha_weighted(with_singleton) == pytest.approx(
        krippendorff_alpha_weighted(without))


def test_alpha_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric 'ratio'"):
        krippendorff_alpha_weighted(CodingMatrix(((1, 2), (2, 2))), metric="ratio")


def test_alpha_insufficient_data():
    with pytest.raises(InsufficientData):
        krippendorff_alpha_weighted(CodingMatrix(((1, None), (None, 2))))
    with pytest.raises(InsufficientData):
        CodingMatrix(((1,),))


def test_cross_tab_diagonal():
    table = cross_tab([1, 2, 3], [1, 2, 3], range(1, 6))
    assert np.trace(table) == pytest.approx(100.0)
    assert table.sum() == pytest.approx(100.0)


def test_cross_tab_cells():
    table = cross_tab([1, 1], [1, 2], range(1, 6))
    assert table[0, 0] == 50.0 and table[0, 1] == 50.0


def test_cross_tab_agreement_rate_counts():
    rng = random.Random(1)
    a = [rng.randint(1, 5) for _ in range(200)]
    b = [rng.randint(1, 5) for _ in range(200)]
    table = cross_tab(a, b, range(1, 6))
    agreement = sum(1 for x, y in zip(a, b) if x == y) / 2.0
    assert np.trace(table) == pytest.approx(agreement)
    assert (table >= 0).all()
    assert abs(table.sum() - 100.0) < 1e-9


def test_cross_tab_length_mismatch():
    with pytest.raises(LengthError):
        cross_tab([1], [1, 2], range(1, 6))


def test_cross_tab_empty_series():
    with pytest.raises(EmptySeries):
        cross_tab([], [], range(1, 6))


@pytest.mark.parametrize("a, b, outside", [([6], [1], 6), ([1, 2], [2, 0], 0)])
def test_cross_tab_value_outside_range(a, b, outside):
    with pytest.raises(ValueError, match=f"value {outside} outside the value range"):
        cross_tab(a, b, range(1, 6))


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=2, max_size=30))
def test_pearson_matches_bruteforce(pairs):
    s = PairedSeries(tuple(p for p, _ in pairs), tuple(g for _, g in pairs))
    expected = pearson_bruteforce([p for p, _ in pairs], [g for _, g in pairs])
    got = pearson(s)
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, abs=1e-12)


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=30))
def test_mad_nonnegative_zero_iff_identical(pairs):
    s = PairedSeries(tuple(p for p, _ in pairs), tuple(g for _, g in pairs))
    value = mad(s)
    assert value >= 0
    assert (value == 0) == (s.predictions == s.golds)
