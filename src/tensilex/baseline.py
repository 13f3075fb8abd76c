"""Generic n-gram machine-learning baseline.

Features are all unigrams, bigrams and trigrams over the tweet tokenizer's
output (punctuation runs are single terms; bigrams and trigrams never
cross a sentence boundary), plus three dense counts: the text's total
numbers of unigrams, bigrams and trigrams. Information gain over
presence/absence ranks the sparse features; the dense counts are always
retained alongside the selected subset. Two classifiers predict the
5-level code of one scale: multinomial Naive Bayes with add-one smoothing
and one-vs-rest L2 logistic regression trained by damped Newton's method
to a max |gradient| of LOGISTIC_TOLERANCE, within LOGISTIC_MAX_ITERATIONS.

Corpus-level work runs on :class:`CompiledFeatures`: the texts' features
as arrays over one lexicographically sorted vocabulary. A sweep extracts
and compiles its corpus once and hands each fold a row subset of it;
``information_gain`` and ``train`` take :class:`FeatureVector`s and
compile them on entry, so both take the same path. Information gain
counts each feature's per-class presence with one ``np.bincount`` and
computes the gain once per distinct count vector, which thousands of
features share, with arrays that repeat a per-feature loop's arithmetic
to the bit. A feature subset names each feature once, so it maps each
feature to one column; a design matrix is the texts' entries scattered
through a rank array from vocabulary id to column, with each dense count
written over any sparse feature of the same name. A model scores a
fold's held-out texts with one stacked product, which gives each row the
arithmetic ``predict`` and ``posterior`` give one text. Each Newton
iteration solves every unconverged one-vs-rest class's system in one
batched solve.

A sweep does its per-fold work once per fold, not once per cell. A fold
ranks its features once, only as deep as the widest cell: one stable
sort of the gains, cut at that depth, so the ranking is exactly
``information_gain``'s prefix. It builds one design matrix per side
(training and held-out) over the widest subset. A cell takes its
matrices' columns by name from those: a column's values depend only on
its feature's name, and ``take`` returns them in the C order a cell's
own matrix has, so every fit and prediction is the same to the bit. A
fold's feature sets along the grid are cuts of one ranking, so each
logistic fit after the fold's first starts from the previous one's
weights; its weights agree with a cold fit's to the fit tolerance.
``train`` fits from zeros. On generated corpora a fit from zeros takes
5 or 6 Newton steps, a warm one 2 to 4.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .corpus import check_folds, run_folds
from .errors import DegenerateLabels, EmptyCorpus, LengthError
from .textproc import _sentences

DENSE_FEATURES = ("<n_unigrams>", "<n_bigrams>", "<n_trigrams>")

LOGISTIC_L2 = 1e-2
LOGISTIC_TOLERANCE = 1e-6  # max |gradient| at which a class's fit has converged
LOGISTIC_MAX_ITERATIONS = 100  # Newton iterations; fits converge in far fewer
LOGISTIC_MAX_HALVINGS = 60  # step halvings per iteration before a class gives up
LOGISTIC_ARMIJO = 1e-4  # share of the predicted decrease a step must achieve


@dataclass(frozen=True)
class FeatureVector:
    counts: dict[str, int]  # sparse n-gram counts
    n_unigrams: int
    n_bigrams: int
    n_trigrams: int


@dataclass(frozen=True, eq=False)
class CompiledFeatures:
    """Texts' features as arrays: entry ``e`` gives text ``rows[e]``
    ``counts[e]`` of vocabulary feature ``ids[e]``, and ``totals`` holds each
    text's dense counts in DENSE_FEATURES order."""
    vocabulary: np.ndarray  # sorted sparse features (str objects), ids dense 0..V-1
    index: dict[str, int]  # feature -> id
    rows: np.ndarray
    ids: np.ndarray
    counts: np.ndarray
    totals: np.ndarray  # texts x 3

    def __len__(self) -> int:
        return len(self.totals)

    def take(self, positions) -> CompiledFeatures:
        """The texts at ``positions``, in that order, over the same vocabulary."""
        row_of = np.full(len(self), -1)
        row_of[positions] = np.arange(len(positions))
        rows = row_of[self.rows]
        kept = rows >= 0
        return CompiledFeatures(self.vocabulary, self.index, rows[kept], self.ids[kept],
                                self.counts[kept], self.totals[positions])


def compile_features(vectors) -> CompiledFeatures:
    """The features of the :class:`FeatureVector`s ``vectors`` as arrays."""
    names = [feature for vec in vectors for feature in vec.counts]
    vocabulary = sorted(set(names))
    index = dict(zip(vocabulary, range(len(vocabulary))))
    return CompiledFeatures(
        np.array(vocabulary, dtype=object), index,
        rows=np.repeat(np.arange(len(vectors)), [len(vec.counts) for vec in vectors]),
        ids=np.fromiter(map(index.__getitem__, names), np.intp, len(names)),
        counts=np.fromiter(chain.from_iterable(vec.counts.values() for vec in vectors), float,
                           len(names)),
        totals=np.array([(vec.n_unigrams, vec.n_bigrams, vec.n_trigrams) for vec in vectors],
                        dtype=float).reshape(-1, 3))


@dataclass(frozen=True)
class FeatureTable:
    """Sparse features in rank order: gain descending, ties lexicographic."""
    vocabulary: tuple[str, ...]  # sparse features only, ids dense 0..V-1
    gains: tuple[float, ...]


@dataclass(frozen=True)
class TrainedModel:
    kind: str  # "nb" | "logistic"
    classes: tuple[int, ...]
    subset: tuple[str, ...]  # frozen feature subset incl. dense counts
    neutral: int  # tie-break target code: the class of least magnitude
    # nb: log prior per class, log likelihood per class x feature
    # logistic: weight matrix per class x (features + bias)
    params: dict[str, np.ndarray]

    # Built on first use and kept in the instance __dict__, outside the
    # dataclass fields, so equality does not see them.
    @cached_property
    def columns(self) -> dict[str, int]:
        """:func:`_columns` of the subset."""
        return _columns(self.subset)

    @cached_property
    def tie_order(self) -> np.ndarray:
        """Class positions nearest neutral first, then lower code: argmax ties go to the first."""
        return np.array(sorted(range(len(self.classes)),
                               key=lambda i: (abs(self.classes[i] - self.neutral), self.classes[i])))


def extract_features(text: str) -> FeatureVector:
    counts: Counter[str] = Counter()
    uni = bi = tri = 0
    for _, sentence in _sentences(text, None):
        tokens = [t.normalized for t in sentence]
        uni += len(tokens)
        bi += max(0, len(tokens) - 1)
        tri += max(0, len(tokens) - 2)
        counts.update(tokens)
        counts.update(map(" ".join, zip(tokens, tokens[1:])))
        counts.update(map(" ".join, zip(tokens, tokens[1:], tokens[2:])))
    return FeatureVector(dict(counts), uni, bi, tri)


def _distinct_rows(table: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct row of ``table`` (entries in 0..base-1): the position of
    its first occurrence, and each row's distinct-row number.

    Rows are keyed as mixed-radix int64 numbers, one digit per column. Before
    a digit could overflow the key, the keys so far are renumbered densely.
    """
    key = np.zeros(len(table), dtype=np.int64)
    limit = np.iinfo(np.int64).max // base
    for digit in table.T:
        if key.max(initial=0) >= limit:
            key = np.unique(key, return_inverse=True)[1].ravel()
        key = key * base + digit
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _check_labels(vectors, labels) -> None:
    """Raise :class:`LengthError` unless there is one label per text."""
    if len(labels) != len(vectors):
        raise LengthError(f"{len(labels)} labels for {len(vectors)} texts")


def _entropies(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """The label entropy of each row of ``counts``, whose sums are ``totals``.

    The arithmetic is a plain loop's: ``h -= p * math.log2(p)`` for each
    nonzero count in label order, ``p = count / total``. Each distinct
    (count, total) pair's term is taken once from ``math.log2``, since
    ``np.log2`` can differ in the last bit. A zero count's term is 0.0,
    which subtracts nothing.
    """
    base = int(totals.max(initial=0)) + 1
    pairs, inverse = np.unique(counts * base + totals[:, None], return_inverse=True)
    terms = np.array([(c / t) * math.log2(c / t) if c else 0.0
                      for c, t in map(divmod, pairs.tolist(), repeat(base))])
    h = np.zeros(len(counts))
    for column in terms[inverse.reshape(counts.shape)].T:
        h -= column
    return h


def _gains(features: CompiledFeatures, labels) -> tuple[np.ndarray, np.ndarray]:
    """The ascending ids of the features the texts have, and each one's
    information gain over presence/absence."""
    label_values = sorted(set(labels))
    if len(label_values) < 2:
        raise DegenerateLabels("information gain needs at least 2 distinct labels")
    n = len(features)
    label_index = {y: i for i, y in enumerate(label_values)}
    y = np.array([label_index[label] for label in labels])
    n_labels = len(label_values)
    total_counts = np.bincount(y, minlength=n_labels)
    h_y = _entropies(total_counts[None, :], np.array([n]))[0]

    present = features.counts > 0
    entry_ids = features.ids[present]
    with_f = np.bincount(entry_ids * n_labels + y[features.rows[present]],
                         minlength=len(features.vocabulary) * n_labels).reshape(-1, n_labels)
    ids = np.flatnonzero(np.bincount(entry_ids, minlength=len(features.vocabulary)))
    with_f = with_f[ids]  # the features the texts have

    # Gain depends only on the per-class presence counts, and thousands of
    # features share a few hundred distinct count vectors.
    first, inverse = _distinct_rows(with_f, n + 1)
    counts = with_f[first]
    n_with = counts.sum(axis=1)  # every feature here is present in some text, so >= 1
    n_without = n - n_with
    h_cond = (n_with / n) * _entropies(counts, n_with)
    # Where no text lacks the feature this adds 0.0, which changes nothing.
    h_cond += (n_without / n) * _entropies(total_counts - counts, n_without)
    return ids, np.maximum(0.0, h_y - h_cond)[inverse]


def _ranking(features: CompiledFeatures, labels, depth=None) -> FeatureTable:
    """The ``depth`` top-ranked features (all if None) and their gains.

    Ids ascend with the sorted names, so a stable sort by descending gain
    breaks ties lexicographically, and a shallower ranking is the full one's
    prefix.
    """
    ids, gains = _gains(features, labels)
    order = np.argsort(-gains, kind="stable")[:depth]
    return FeatureTable(tuple(features.vocabulary[ids[order]].tolist()), tuple(gains[order].tolist()))


def information_gain(vectors, labels) -> FeatureTable:
    """Rank the :class:`FeatureVector`s' sparse features by reduction in
    label entropy (presence/absence)."""
    _check_labels(vectors, labels)
    return _ranking(compile_features(vectors), labels)


def select_top(table: FeatureTable, n: int) -> tuple[str, ...]:
    """Top-n sparse features by gain (ties lexicographic) plus dense counts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return table.vocabulary[:n] + DENSE_FEATURES


def _columns(subset) -> dict[str, int]:
    """``{feature: column}`` of a subset, which must name each feature once."""
    column = dict(zip(subset, range(len(subset))))
    if len(column) < len(subset):
        repeated = next(f for j, f in enumerate(subset) if column[f] != j)
        raise ValueError(f"feature subset names {repeated!r} more than once")
    return column


def _design_matrix(features: CompiledFeatures, column: dict[str, int]) -> np.ndarray:
    """One row per text, one column per feature of the :func:`_columns` map
    ``column``, in column order.

    Maps vocabulary ids to columns through a rank array, so the cost is the
    number of entries, not rows x features.
    """
    m = len(column)
    # The rank array's extra last slot takes the subset features no text has.
    rank = np.full(len(features.vocabulary) + 1, m)
    rank[np.fromiter(map(features.index.get, column, repeat(-1)), np.intp, m)] = np.arange(m)
    return _scatter(column, features.rows, rank[features.ids], features.counts, features.totals)


def _vector_matrix(model: TrainedModel, vec: FeatureVector) -> np.ndarray:
    """``vec``'s one-row design matrix for ``model``.

    The vector's features map straight to the model's columns: a one-text
    vocabulary would be sorted and indexed only to be mapped back, which
    costs more than the rest of a prediction.
    """
    column = model.columns
    n = len(vec.counts)
    return _scatter(column, 0,
                    np.fromiter(map(column.get, vec.counts, repeat(len(column))), np.intp, n),
                    np.fromiter(vec.counts.values(), float, n),
                    np.array([[vec.n_unigrams, vec.n_bigrams, vec.n_trigrams]], dtype=float))


def _scatter(column: dict[str, int], rows, cols, counts, totals) -> np.ndarray:
    """The design matrix of entries already mapped to columns; entries of
    features outside the subset go to a spare last column, which is dropped.
    A dense count is written over a sparse feature of the same name."""
    m = len(column)
    x = np.zeros((len(totals), m + 1))
    x[rows, cols] = counts
    for i, feature in enumerate(DENSE_FEATURES):
        if feature in column:
            x[:, column[feature]] = totals[:, i]
    # A C-order copy, not a view: the logistic fit's products round
    # differently on another layout.
    return x[:, :m].copy()


def _check_kind(kind) -> None:
    if kind not in ("nb", "logistic"):
        raise ValueError(f"unknown classifier kind {kind!r}")


def train(kind: str, vectors, labels, subset) -> TrainedModel:
    """Fit a ``kind`` model from zeros on the :class:`FeatureVector`s
    ``vectors`` over the feature ``subset``, which names each feature once."""
    _check_kind(kind)
    _check_labels(vectors, labels)
    if not vectors:
        raise EmptyCorpus("empty training set")
    column = _columns(subset)  # a repeated feature fails before any work
    x = _design_matrix(compile_features(vectors), column)
    return _fit(kind, x, np.array(labels), tuple(sorted(set(labels))), subset, None)


def _fit(kind, x, y, classes, subset, start) -> TrainedModel:
    """A ``kind`` model of the design matrix ``x`` over ``subset``, with one
    label per row in the array ``y`` and the sorted distinct labels as
    ``classes``; ``start`` is a logistic fit's initial weights, or None."""
    if kind == "nb":
        # Sums of whole counts, so the product adds them exactly, in any order.
        indicator = (y == np.array(classes)[:, None]).astype(float)
        totals = indicator @ x + 1.0  # add-one smoothing
        log_prior = np.array([math.log(m / len(x)) for m in indicator.sum(axis=1).tolist()])
        log_like = np.log(totals / totals.sum(axis=1, keepdims=True))
        params = {"log_prior": log_prior, "log_like": log_like}
    else:
        params = {"weights": _train_logistic(x, y, classes, start)}
    return TrainedModel(kind, classes, tuple(subset), min(classes, key=abs), params)


def _start_weights(start: TrainedModel, subset) -> np.ndarray:
    """The initial logistic weights over ``subset`` that the logistic model
    ``start`` gives: each feature starts at ``start``'s weight for it, a new
    feature at 0, and the bias at ``start``'s bias."""
    old = start.params["weights"]
    # A zero column past the start's features serves every new feature.
    padded = np.hstack([old[:, :-1], np.zeros((len(old), 1))])
    at = [start.columns.get(feature, len(start.subset)) for feature in subset]
    return np.hstack([padded[:, at], old[:, -1:]])


def _train_logistic(x, y, classes, start=None) -> np.ndarray:
    """One-vs-rest weights by damped Newton, every class in one batched solve,
    from a copy of the weight matrix ``start`` if given, else from zeros.

    Each class minimises its mean logistic loss plus LOGISTIC_L2 on the
    non-bias weights. An iteration solves every unconverged class's Newton
    system at once, then halves each class's step until it decreases that
    class's loss by the Armijo fraction of the predicted decrease, so an
    accepted step never raises a loss. A class is done when its max
    |gradient| is at most LOGISTIC_TOLERANCE; after LOGISTIC_MAX_ITERATIONS
    the weights reached so far are returned.
    """
    n, f = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    targets = np.where(y == np.array(classes)[:, None], 1.0, -1.0)
    l2 = np.full(f + 1, LOGISTIC_L2)
    l2[-1] = 0.0  # the bias is not penalised
    weights = np.zeros((len(classes), f + 1)) if start is None else np.array(start, dtype=float)
    a = np.empty_like(xb)  # each class's curvature-weighted rows, in turn

    def loss(w, t):
        margins = t * (w @ xb.T)
        return np.logaddexp(0.0, -margins).mean(axis=1) + 0.5 * (l2 * w * w).sum(axis=1), margins

    current, margins = loss(weights, targets)
    for _ in range(LOGISTIC_MAX_ITERATIONS):
        sig = 1.0 / (1.0 + np.exp(np.clip(margins, -500, 500)))
        grad = -((targets * sig) @ xb) / n + l2 * weights
        todo = np.flatnonzero(np.abs(grad).max(axis=1) > LOGISTIC_TOLERANCE)
        if not len(todo):
            break
        hess = np.empty((len(todo), f + 1, f + 1))
        for h, c in zip(hess, todo):
            # numpy computes an array times its own transpose as a symmetric
            # rank-k update, half the flops of (xb.T * curvature) @ xb.
            np.multiply(xb, np.sqrt(sig[c] * (1.0 - sig[c]) / n)[:, None], out=a)
            np.matmul(a.T, a, out=h)
            h.flat[::f + 2] += l2
        step = -np.linalg.solve(hess, grad[todo][..., None])[..., 0]
        slope = (grad[todo] * step).sum(axis=1)
        t = np.ones(len(todo))
        for _ in range(LOGISTIC_MAX_HALVINGS):
            trial, trial_margins = loss(weights[todo] + t[:, None] * step, targets[todo])
            ok = trial <= current[todo] + LOGISTIC_ARMIJO * t * slope
            moved = todo[ok]
            weights[moved] += t[ok, None] * step[ok]
            current[moved] = trial[ok]
            margins[moved] = trial_margins[ok]
            todo, step, slope, t = todo[~ok], step[~ok], slope[~ok], t[~ok] / 2
            if not len(todo):
                break
    return weights


def _scores(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Each design-matrix row's log score per class.

    One stacked matrix-vector product: each row gets the arithmetic of
    ``params @ row``, so a text scores the same alone as in a batch.
    """
    if model.kind == "nb":
        return model.params["log_prior"] + (model.params["log_like"] @ x[:, :, None])[:, :, 0]
    xb = np.hstack([x, np.ones((len(x), 1))])
    return (model.params["weights"] @ xb[:, :, None])[:, :, 0]


def _predict(model: TrainedModel, x: np.ndarray) -> list[int]:
    """Each design-matrix row's argmax class; ties break toward the code
    nearer neutral, then lower."""
    order = model.tie_order
    best = order[_scores(model, x)[:, order].argmax(axis=1)]  # the first maximum
    return [model.classes[i] for i in best.tolist()]


def posterior(model: TrainedModel, vec: FeatureVector) -> dict[int, float]:
    """Class posterior probabilities (softmax over the model's log scores)."""
    scores = _scores(model, _vector_matrix(model, vec))[0]
    scores = scores - scores.max()
    p = np.exp(scores)
    p /= p.sum()
    return dict(zip(model.classes, p.tolist()))


def predict(model: TrainedModel, vec: FeatureVector) -> int:
    """Argmax class; ties break toward the code nearer neutral, then lower."""
    return _predict(model, _vector_matrix(model, vec))[0]


SWEEP_GRID = tuple(range(100, 1001, 100))


def crossval_baseline(corpus, scale: str, kind: str, n_features: int,
                      k: int = 10, reps: int = 30, base_seed: int = 0):
    """Repeated k-fold CV of one classifier at one feature-set size.

    The one-cell :func:`sweep`; returns its repetition-averaged report.
    """
    rows, _ = sweep(corpus, scale, (kind,), (n_features,), k, reps, base_seed)
    return rows[0][3]


def sweep(corpus, scale: str, kinds=("nb", "logistic"), grid=SWEEP_GRID,
          k: int = 10, reps: int = 30, base_seed: int = 0):
    """Feature-count sweep; returns rows plus the best cell per metric.

    One cross-validation pass serves every (classifier, size) cell: the
    corpus's features are extracted and compiled once, each training fold's
    features are ranked once to the largest size in ``grid``, its training
    and held-out design matrices are built once over that widest subset,
    and each cell fits and predicts on its features' columns of them,
    taken by name. Feature selection thus happens inside each training
    fold. Each logistic cell after a fold's first is warm-started from the
    fold's previous logistic model.
    """
    if scale not in ("stress", "relax"):
        raise ValueError(f"unknown scale {scale!r}")
    kinds, grid = tuple(kinds), tuple(grid)  # each is read more than once
    if not kinds or not grid:
        raise ValueError(f"a sweep needs classifiers and feature counts, got {kinds}, {grid}")
    if any(n < 1 for n in grid):
        raise ValueError(f"feature counts must be >= 1, got {grid}")
    for kind in kinds:
        _check_kind(kind)
    check_folds(corpus, k, reps)
    labels = [ex.gold_stress if scale == "stress" else ex.gold_relax for ex in corpus]
    cells = [(kind, n) for kind in kinds for n in grid]
    widest = max(grid)  # each fold ranks only this deep
    features = compile_features([extract_features(ex.text) for ex in corpus])

    def fit_predict(train_at, test_at, _fold_seed):
        train_features, test_features = features.take(train_at), features.take(test_at)
        train_labels = [labels[i] for i in train_at]
        table = _ranking(train_features, train_labels, widest)
        column = _columns(select_top(table, widest))
        x_train = _design_matrix(train_features, column)
        x_test = _design_matrix(test_features, column)
        y, classes = np.array(train_labels), tuple(sorted(set(train_labels)))
        predictions, latest = {}, None  # latest: the fold's last logistic model
        for kind, n in cells:
            # A column's values depend only on its feature's name, so a cell
            # takes its matrices' columns by name; take keeps C order.
            subset = select_top(table, n)
            cut = [column[f] for f in subset]
            start = None if kind == "nb" or latest is None else _start_weights(latest, subset)
            model = _fit(kind, x_train.take(cut, axis=1), y, classes, subset, start)
            if kind == "logistic":
                latest = model
            predictions[kind, n] = _predict(model, x_test.take(cut, axis=1))
        return predictions

    averaged = run_folds(corpus, k, reps, base_seed, fit_predict, dict.fromkeys(cells, labels)).averaged
    rows = [(kind, n, scale, averaged[kind, n]) for kind, n in cells]
    best = {
        "exact": max(rows, key=lambda r: r[3].exact_pct),
        "within1": max(rows, key=lambda r: r[3].within1_pct),
        "pearson": max(rows, key=lambda r: -1.0 if r[3].pearson is None else r[3].pearson),
        "mad": min(rows, key=lambda r: r[3].mad),
    }
    return rows, best
