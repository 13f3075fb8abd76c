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

Training is shaped by the sweep's many small fits. The design matrix is
built from each text's sparse counts, not cell by cell. Information gain
is computed once per distinct per-class presence-count vector, which
thousands of features share. Each Newton iteration solves every
unconverged one-vs-rest class's system in one batched solve.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import run_folds
from .errors import DegenerateLabels, EmptyCorpus
from .textproc import segment_sentences, tokenize

DENSE_FEATURES = ("<n_unigrams>", "<n_bigrams>", "<n_trigrams>")

MODEL_FORMAT_VERSION = 1

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
    neutral: int  # tie-break target code (-1 or 1)
    # nb: log prior per class, log likelihood per class x feature
    # logistic: weight matrix per class x (features + bias)
    params: dict[str, np.ndarray]

    # Built on first use and kept in the instance __dict__, outside the
    # dataclass fields, so equality and the saved form do not see them.
    @cached_property
    def columns(self) -> tuple[dict[str, int], list[tuple[int, int]]]:
        """:func:`_columns` of the subset."""
        return _columns(self.subset)

    @cached_property
    def tie_order(self) -> list[int]:
        """Class positions nearest neutral first, then lower code: argmax ties go to the first."""
        return sorted(range(len(self.classes)),
                      key=lambda i: (abs(self.classes[i] - self.neutral), self.classes[i]))


def extract_features(text: str) -> FeatureVector:
    counts: Counter[str] = Counter()
    uni = bi = tri = 0
    for sentence in segment_sentences(text):
        tokens = [t.normalized for t in tokenize(sentence)]
        uni += len(tokens)
        bi += max(0, len(tokens) - 1)
        tri += max(0, len(tokens) - 2)
        for size in (1, 2, 3):
            for i in range(len(tokens) - size + 1):
                counts[" ".join(tokens[i:i + size])] += 1
    return FeatureVector(dict(counts), uni, bi, tri)


def _entropy(label_counts) -> float:
    total = sum(label_counts)
    h = 0.0
    for c in label_counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def information_gain(vectors, labels) -> FeatureTable:
    """Rank sparse features by reduction in label entropy (presence/absence)."""
    if len(set(labels)) < 2:
        raise DegenerateLabels("information gain needs at least 2 distinct labels")
    n = len(vectors)
    label_values = sorted(set(labels))
    label_index = {y: i for i, y in enumerate(label_values)}
    total_counts = [0] * len(label_values)
    for y in labels:
        total_counts[label_index[y]] += 1
    h_y = _entropy(total_counts)

    present: dict[str, list[int]] = {}
    for vec, y in zip(vectors, labels):
        for feature, count in vec.counts.items():
            if count > 0:
                present.setdefault(feature, [0] * len(label_values))[label_index[y]] += 1

    # Gain depends only on the per-class presence counts, and thousands of
    # features share a few hundred distinct count vectors.
    gain_of: dict[tuple[int, ...], float] = {}
    gains = {}
    for feature, with_f in present.items():
        key = tuple(with_f)
        gain = gain_of.get(key)
        if gain is None:
            n_with = sum(with_f)
            without_f = [t - w for t, w in zip(total_counts, with_f)]
            n_without = n - n_with
            h_cond = 0.0
            if n_with:
                h_cond += (n_with / n) * _entropy(with_f)
            if n_without:
                h_cond += (n_without / n) * _entropy(without_f)
            gain = gain_of[key] = max(0.0, h_y - h_cond)
        gains[feature] = gain
    vocabulary = sorted(gains, key=lambda f: (-gains[f], f))
    return FeatureTable(tuple(vocabulary), tuple(gains[f] for f in vocabulary))


def select_top(table: FeatureTable, n: int) -> tuple[str, ...]:
    """Top-n sparse features by gain (ties lexicographic) plus dense counts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return table.vocabulary[:n] + DENSE_FEATURES


def _columns(subset) -> tuple[dict[str, int], list[tuple[int, int]]]:
    """``subset``'s ``{feature: column}`` map (a repeated feature's last column),
    and ``(column, dense index)`` for each dense count in it."""
    column = {feature: j for j, feature in enumerate(subset)}
    return column, [(column[f], i) for i, f in enumerate(DENSE_FEATURES) if f in column]


def _design_matrix(vectors, subset, columns=None) -> np.ndarray:
    """One row per vector, one column per ``subset`` feature; ``columns`` is
    the subset's :func:`_columns`, built here when not given.

    Walks each vector's sparse counts, so the cost is the number of
    nonzeros, not rows x features. A dense count takes precedence over a
    sparse feature of the same name.
    """
    column, dense = columns or _columns(subset)
    x = np.zeros((len(vectors), len(subset)))
    for row, vec in zip(x, vectors):
        for feature, count in vec.counts.items():
            j = column.get(feature)
            if j is not None:
                row[j] = count
        totals = (vec.n_unigrams, vec.n_bigrams, vec.n_trigrams)
        for j, i in dense:
            row[j] = totals[i]
    if len(column) < len(subset):  # a repeated feature fills each of its columns
        for j, feature in enumerate(subset):
            x[:, j] = x[:, column[feature]]
    return x


def train(kind: str, vectors, labels, subset) -> TrainedModel:
    if not vectors:
        raise EmptyCorpus("empty training set")
    classes = tuple(sorted(set(labels)))
    x = _design_matrix(vectors, subset)
    y = np.array(labels)

    if kind == "nb":
        log_prior = np.zeros(len(classes))
        log_like = np.zeros((len(classes), len(subset)))
        for ci, c in enumerate(classes):
            rows = x[y == c]
            log_prior[ci] = math.log(len(rows) / len(vectors))
            totals = rows.sum(axis=0) + 1.0  # add-one smoothing
            log_like[ci] = np.log(totals / totals.sum())
        params = {"log_prior": log_prior, "log_like": log_like}
    elif kind == "logistic":
        params = {"weights": _train_logistic(x, y, classes)}
    else:
        raise ValueError(f"unknown classifier kind {kind!r}")

    return TrainedModel(kind, classes, tuple(subset), min(classes, key=abs), params)


def _train_logistic(x, y, classes) -> np.ndarray:
    """One-vs-rest weights by damped Newton, every class in one batched solve.

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
    weights = np.zeros((len(classes), f + 1))

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
            a = xb * np.sqrt(sig[c] * (1.0 - sig[c]) / n)[:, None]
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


def _scores(model: TrainedModel, vec: FeatureVector) -> np.ndarray:
    x = _design_matrix([vec], model.subset, model.columns)[0]
    if model.kind == "nb":
        return model.params["log_prior"] + model.params["log_like"] @ x
    xb = np.append(x, 1.0)
    return model.params["weights"] @ xb


def posterior(model: TrainedModel, vec: FeatureVector) -> dict[int, float]:
    """Class posterior probabilities (softmax over the model's log scores)."""
    scores = _scores(model, vec)
    scores = scores - scores.max()
    p = np.exp(scores)
    p /= p.sum()
    return dict(zip(model.classes, p.tolist()))


def predict(model: TrainedModel, vec: FeatureVector) -> int:
    """Argmax class; ties break toward the code nearer neutral, then lower."""
    scores = _scores(model, vec)
    return model.classes[max(model.tie_order, key=scores.__getitem__)]


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

    One cross-validation pass serves every (classifier, size) cell: each
    text's features are extracted once, and each training fold's
    information gain is computed once and cut to every size in ``grid``.
    Feature selection thus happens inside each training fold.
    """
    if scale not in ("stress", "relax"):
        raise ValueError(f"unknown scale {scale!r}")
    if any(n < 1 for n in grid):
        raise ValueError(f"feature counts must be >= 1, got {tuple(grid)}")
    gold = f"gold_{scale}"
    cells = [(kind, n) for kind in kinds for n in grid]
    vectors = {ex.id: extract_features(ex.text) for ex in corpus}

    def fit_predict(train_ex, test_ex, _fold_seed):
        train_vecs = [vectors[ex.id] for ex in train_ex]
        train_labels = [getattr(ex, gold) for ex in train_ex]
        table = information_gain(train_vecs, train_labels)
        predictions = {}
        for kind, n in cells:
            model = train(kind, train_vecs, train_labels, select_top(table, n))
            predictions[kind, n] = [predict(model, vectors[ex.id]) for ex in test_ex]
        return predictions

    averaged = run_folds(corpus, k, reps, base_seed, fit_predict, dict.fromkeys(cells, gold)).averaged
    rows = [(kind, n, scale, averaged[kind, n]) for kind, n in cells]
    best = {
        "exact": max(rows, key=lambda r: r[3].exact_pct),
        "within1": max(rows, key=lambda r: r[3].within1_pct),
        "pearson": max(rows, key=lambda r: -1.0 if r[3].pearson is None else r[3].pearson),
        "mad": min(rows, key=lambda r: r[3].mad),
    }
    return rows, best


def save_model(model: TrainedModel, path) -> None:
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "classes": list(model.classes),
        "subset": list(model.subset),
        "neutral": model.neutral,
        "params": {k: v.tolist() for k, v in model.params.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_model(path) -> TrainedModel:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model version {payload.get('version')!r}")
    return TrainedModel(payload["kind"], tuple(payload["classes"]), tuple(payload["subset"]),
                        payload["neutral"],
                        {k: np.array(v) for k, v in payload["params"].items()})
