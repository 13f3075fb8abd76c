"""Annotated corpora: loading, gold aggregation, slicing, folds, and the
repeated k-fold cross-validation driver shared by supervised runs and the
n-gram baseline.

Corpus TSV format (UTF-8; blank lines, ``#`` comments and a leading byte-order
mark skipped): a five-column header line, then rows of ::

    id<TAB>subcorpus<TAB>text<TAB>stress_codes<TAB>relax_codes

where the code columns hold comma-separated per-coder integers, e.g.
``-1,-2,-2`` and ``1,1,2``. Gold scores are the per-coder mean, kept both
raw and rounded half away from zero. A corpus built in code obeys the reader's
rules (:func:`make_example` raises :class:`ParseError`), and saving refuses a
row the reader would skip, such as an empty id followed by ``#...``.

All randomness derives from an explicit base seed: repetition ``r`` uses
fold seed ``base_seed * 1000003 + r`` and the model fitted on fold ``f``
of that repetition gets ``(base_seed * 1000003 + r) * 101 + f`` (the
optimizer's seed; the baseline's classifiers are deterministic and ignore
it). :func:`run_folds` is the one place that derives them. Folds are
corpus positions throughout: :func:`make_folds` returns each position's
fold, and each fold's ``fit_predict`` receives the ascending corpus
positions of its training and held-out texts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from .errors import EmptyCorpus, ParseError, TooSmall, WriteError
from .lexicon import _is_int, _is_skipped, _parse_int, _read_rows, _write_whole
from .metrics import AveragedReport, MetricsReport, PairedSeries, average, mad, pearson, report
from .optimizer import (OptimizerConfig, compile_plans, hill_climb_tokenized, rescore,
                        tokenize_corpus)


@dataclass(frozen=True)
class AnnotatedExample:
    id: str
    text: str
    coder_stress: tuple[int, ...]  # each in -5..-1
    coder_relax: tuple[int, ...]  # each in 1..5
    subcorpus: str
    gold_stress: int
    gold_relax: int
    gold_stress_raw: float
    gold_relax_raw: float


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero (-1.5 -> -2)."""
    return math.floor(x + 0.5) if x >= 0 else -math.floor(0.5 - x)


def _parse_codes(text):
    codes = []
    for piece in text.split(","):
        codes.append(_parse_int(piece, "code"))
    return tuple(codes)


def make_example(ex_id, subcorpus, text, stress_codes, relax_codes) -> AnnotatedExample:
    """An example whose gold codes are its coders' means. Its codes obey the rules
    :func:`load_corpus` reads by, or :class:`ParseError` is raised: at least one coder,
    as many on each scale, each an integer (not a ``bool``) in -5..-1 or 1..5."""
    for codes, low, high in ((stress_codes, -5, -1), (relax_codes, 1, 5)):
        for code in codes:  # an exact int skips the call: the reader checks every code
            if not ((type(code) is int or _is_int(code)) and low <= code <= high):
                raise ParseError(f"code {code} outside {low}..{high}" if _is_int(code)
                                 else f"code is not an integer: {code!r}")
    if not stress_codes or len(stress_codes) != len(relax_codes):
        raise ParseError("coder count differs between scales" if stress_codes or relax_codes else "no coders")
    stress_raw = sum(stress_codes) / len(stress_codes)
    relax_raw = sum(relax_codes) / len(relax_codes)
    return AnnotatedExample(ex_id, text, tuple(stress_codes), tuple(relax_codes), subcorpus,
                            round_half_away(stress_raw), round_half_away(relax_raw), stress_raw, relax_raw)


def load_corpus(path) -> list[AnnotatedExample]:
    def build(rows):
        header = next(rows, None)  # the first data line
        if header is not None:
            try:
                _parse_codes(header[3]), _parse_codes(header[4])
            except ParseError:
                pass
            else:
                raise ParseError("missing header: the first line is a data row")
        return [make_example(ex_id, subcorpus, body, _parse_codes(stress_text), _parse_codes(relax_text))
                for ex_id, subcorpus, body, stress_text, relax_text in rows]

    return _read_rows(path, 5, build)


def save_corpus(examples, path) -> None:
    """Write the corpus TSV, whole or not at all. A field that :func:`load_corpus` would
    split, or a row it would skip as a comment, raises :class:`WriteError` naming the
    example, before the file opens."""
    lines = ["id\tsubcorpus\ttext\tstress_codes\trelax_codes"]
    for ex in examples:
        for name in ("id", "subcorpus", "text"):
            if any(ch in getattr(ex, name) for ch in "\t\n\r"):
                raise WriteError(f"example {ex.id!r}: {name} contains a tab or line break")
        row = (f"{ex.id}\t{ex.subcorpus}\t{ex.text}\t{','.join(map(str, ex.coder_stress))}\t"
               f"{','.join(map(str, ex.coder_relax))}")
        if _is_skipped(row):
            raise WriteError(f"example {ex.id!r}: the row would read back as a comment")
        lines.append(row)
    _write_whole({path: lines})


def slice_corpus(corpus, subcorpus_label) -> list[AnnotatedExample]:
    """Examples with the given sub-corpus label (may be empty)."""
    return [ex for ex in corpus if ex.subcorpus == subcorpus_label]


def _check_k(corpus, k: int) -> None:
    if k < 2:
        raise TooSmall(f"cross validation needs at least 2 folds, got k={k}")
    if len(corpus) < k:
        raise TooSmall(f"corpus of {len(corpus)} examples cannot make {k} folds")


def check_folds(corpus, k: int, reps: int) -> None:
    """Check the arguments of :func:`run_folds`, before any work on the corpus.

    Raises :class:`EmptyCorpus` for an empty corpus, :class:`TooSmall` when
    ``k < 2``, ``reps < 1`` or the corpus has fewer than ``k`` examples, and
    :class:`ParseError` for duplicate example ids.
    """
    if not corpus:
        raise EmptyCorpus("cannot cross-validate an empty corpus")
    if reps < 1:
        raise TooSmall(f"cross validation needs at least 1 repetition, got reps={reps}")
    if len({ex.id for ex in corpus}) != len(corpus):
        raise ParseError("duplicate example ids in corpus")
    _check_k(corpus, k)


def make_folds(corpus, k: int, seed: int) -> list[int]:
    """Each corpus position's fold: the positions are shuffled with ``seed``
    and dealt round-robin, so fold sizes differ by <= 1.

    Raises :class:`TooSmall` when ``k < 2`` or the corpus has fewer than
    ``k`` examples.
    """
    _check_k(corpus, k)
    order = list(range(len(corpus)))
    random.Random(seed).shuffle(order)
    fold_of = [0] * len(corpus)
    for pos, idx in enumerate(order):
        fold_of[idx] = pos % k
    return fold_of


def evaluate_lexicon(lex, corpus, unrounded: bool = False) -> dict[str, MetricsReport]:
    """Unsupervised evaluation: score every text with the lexicon as-is. Exact and
    within-1 use the rounded golds; ``unrounded`` takes Pearson and MAD against the raw means."""
    if not corpus:
        raise EmptyCorpus("cannot evaluate an empty corpus")
    scores = [trace.score for trace in tokenize_corpus(lex, corpus)]
    reports = {}
    for scale, preds in (("stress", tuple(s.stress for s in scores)),
                         ("relax", tuple(s.relaxation for s in scores))):
        rpt = report(PairedSeries(preds, tuple(getattr(ex, f"gold_{scale}") for ex in corpus)))
        if unrounded:
            raw = PairedSeries(preds, tuple(getattr(ex, f"gold_{scale}_raw") for ex in corpus))
            rpt = replace(rpt, pearson=pearson(raw), mad=mad(raw))
        reports[scale] = rpt
    return reports


@dataclass
class CrossValResult:
    base_seed: int
    averaged: dict[object, AveragedReport]  # keyed like run_folds' golds
    rep_reports: list[dict[object, MetricsReport]]  # per repetition, pooled
    log_rows: list[tuple] = field(default_factory=list)  # (rep, fold, key, report)

    LOG_HEADER = "rep\tfold\tscale\t" + MetricsReport.TSV_HEADER

    def log_tsv(self):
        yield self.LOG_HEADER
        for rep, fold, scale, rpt in self.log_rows:
            yield f"{rep}\t{fold}\t{scale}\t{rpt.tsv_row()}"


def run_folds(corpus, k: int, reps: int, base_seed: int, fit_predict, golds) -> CrossValResult:
    """Repeated k-fold cross validation; repetition-level metrics averaged.

    ``golds`` maps each prediction key to its gold codes in corpus order, e.g.
    ``{"stress": [ex.gold_stress for ex in corpus]}``. For each repetition and
    fold, ``fit_predict(train, test, fold_seed)`` gets the ascending corpus
    positions of the fold's training and held-out texts, fits on ``train`` and
    returns ``{key: predictions for test}`` for every key in ``golds``. Each
    repetition pools its folds' predictions into one report per key, so one
    pass can evaluate many models on the same folds. The arguments are
    checked first, by :func:`check_folds`.
    """
    check_folds(corpus, k, reps)
    rep_reports = []
    log_rows = []
    for rep in range(reps):
        rep_seed = base_seed * 1_000_003 + rep
        fold_of = make_folds(corpus, k, rep_seed)
        pooled = {key: ([], []) for key in golds}
        for fold in range(k):
            train = [i for i, f in enumerate(fold_of) if f != fold]
            test = [i for i, f in enumerate(fold_of) if f == fold]
            predictions = fit_predict(train, test, rep_seed * 101 + fold)
            for key, codes in golds.items():
                preds = tuple(predictions[key])
                gold = tuple(codes[i] for i in test)
                log_rows.append((rep, fold, key, report(PairedSeries(preds, gold))))
                pooled[key][0].extend(preds)
                pooled[key][1].extend(gold)
        rep_reports.append({key: report(PairedSeries(tuple(preds), tuple(gold)))
                            for key, (preds, gold) in pooled.items()})

    averaged = {key: average([r[key] for r in rep_reports]) for key in golds}
    return CrossValResult(base_seed, averaged, rep_reports, log_rows)


def crossval_supervised(lex, corpus, k: int = 10, reps: int = 30, base_seed: int = 0,
                        cfg: OptimizerConfig = OptimizerConfig(),
                        supervised: bool = True) -> CrossValResult:
    """Repeated k-fold cross validation of the lexicon on both scales.

    Each text is scored once, and under ``supervised`` its trace is compiled
    once into a plan. Each training fold hill-climbs from ``lex`` with
    ``cfg`` and the fold's seed, and its held-out texts are predicted from
    their plans under the fold's strength table. With ``supervised=False``
    the climb is skipped and the held-out texts keep their scores under
    ``lex`` (the unsupervised protocol). The arguments are checked before
    any text is scored.
    """
    check_folds(corpus, k, reps)
    traces = tokenize_corpus(lex, corpus)
    if supervised:
        plans = compile_plans(lex, traces)

    def fit_predict(train, test, fold_seed):
        if not supervised:
            scores = [traces[i].score for i in test]
        else:
            table, _ = hill_climb_tokenized(lex, [plans[i] for i in train],
                                            [corpus[i] for i in train], replace(cfg, seed=fold_seed))
            scores = [rescore(plans[i], table) for i in test]
        return {"stress": [s.stress for s in scores], "relax": [s.relaxation for s in scores]}

    golds = {"stress": [ex.gold_stress for ex in corpus], "relax": [ex.gold_relax for ex in corpus]}
    return run_folds(corpus, k, reps, base_seed, fit_predict, golds)
