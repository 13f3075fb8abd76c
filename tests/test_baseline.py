import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tensilex import baseline
from tensilex.baseline import (
    DENSE_FEATURES,
    LOGISTIC_TOLERANCE,
    SWEEP_GRID,
    FeatureTable,
    FeatureVector,
    TrainedModel,
    crossval_baseline,
    extract_features,
    information_gain,
    posterior,
    predict,
    select_top,
    sweep,
    train,
)
from tensilex.corpus import make_example, make_folds
from tensilex.errors import DegenerateLabels, EmptyCorpus, LengthError, ParseError
from tensilex.metrics import PairedSeries, report

from .oracles import (
    design_matrix_plain,
    entropy_of_counts,
    gains_per_distinct_vector,
    information_gain_bruteforce,
    logistic_loss_and_gradient,
    logistic_minimum,
)


def test_bigrams_do_not_cross_sentences():
    vec = extract_features("I am late. Very late.")
    assert "am late" in vec.counts
    assert "late very" not in vec.counts
    assert "late ." in vec.counts  # terminator punctuation is a term


def test_ngram_counting():
    vec = extract_features("go go go")
    assert vec.counts["go"] == 3
    assert vec.counts["go go"] == 2
    assert vec.counts["go go go"] == 1
    assert (vec.n_unigrams, vec.n_bigrams, vec.n_trigrams) == (3, 2, 1)


def test_punct_run_is_single_term():
    vec = extract_features("so slow !!!")
    assert "!!!" in vec.counts
    assert vec.n_unigrams == 3


def test_dense_counts_across_sentences():
    vec = extract_features("a b. c d e")
    # unigrams 6 (terminator token included), bigrams 1+3, trigrams 0+2
    assert vec.n_unigrams == 6
    assert vec.n_bigrams == 4
    assert vec.n_trigrams == 2


def corpus_vectors(texts, labels):
    return [extract_features(t) for t in texts], list(labels)


def test_gain_perfect_binary_predictor():
    texts = ["signal one", "signal two", "plain one", "plain two"]
    vectors, labels = corpus_vectors(texts, [1, 1, 2, 2])
    table = information_gain(vectors, labels)
    gains = dict(zip(table.vocabulary, table.gains))
    assert gains["signal"] == pytest.approx(1.0)


def test_gain_zero_for_ubiquitous_feature():
    texts = ["common a", "common b", "common c", "common d"]
    vectors, labels = corpus_vectors(texts, [1, 1, 2, 2])
    table = information_gain(vectors, labels)
    gains = dict(zip(table.vocabulary, table.gains))
    assert gains["common"] == 0.0


def test_gain_matches_bruteforce_on_random_corpus():
    rng = random.Random(0)
    words = ["aa", "bb", "cc", "dd", "ee"]
    texts = [" ".join(rng.choices(words, k=rng.randint(1, 5))) for _ in range(30)]
    labels = [rng.choice([1, 2, 3]) for _ in range(30)]
    vectors = [extract_features(t) for t in texts]
    table = information_gain(vectors, labels)
    h_y = information_gain_bruteforce([True] * 30, labels) + 0  # H(Y) via oracle with trivial split
    for feature, gain in zip(table.vocabulary, table.gains):
        presence = [vec.counts.get(feature, 0) > 0 for vec in vectors]
        assert gain == pytest.approx(information_gain_bruteforce(presence, labels), abs=1e-12)
        assert 0.0 <= gain <= math.log2(3) + 1e-12
    assert h_y == pytest.approx(0.0, abs=1e-12)  # ubiquitous split carries no information


def test_gain_matches_bruteforce_where_a_naive_radix_key_overflows():
    # 2**16 - 1 texts: a naive key of five base-2**16 digits wraps int64, and
    # its first digit vanishes mod 2**64.
    n = 2 ** 16 - 1
    labels = [i % 5 + 1 for i in range(n)]
    present: list[dict[str, int]] = [{} for _ in range(n)]
    for i in (0, 4):  # presence counts (1, 0, 0, 0, 1)
        present[i]["collide a"] = 1
    for i in (0, 5, 4):  # (2, 0, 0, 0, 1): a naive key gives both the same key
        present[i]["collide b"] = 2
    rng = random.Random(11)
    for f in range(16):
        density = rng.choice((0.0005, 0.01, 0.2, 0.5, 0.9))
        for i in range(n):
            if rng.random() < density:
                present[i][f"f{f:02d}"] = rng.randint(1, 3)
    vectors = [FeatureVector(counts, 0, 0, 0) for counts in present]
    table = information_gain(vectors, labels)
    assert set(table.vocabulary) == {f for counts in present for f in counts}
    for feature, gain in zip(table.vocabulary, table.gains):
        presence = [feature in counts for counts in present]
        assert gain == pytest.approx(information_gain_bruteforce(presence, labels), abs=1e-12)
    ranked = list(zip(table.gains, table.vocabulary))
    assert ranked == sorted(ranked, key=lambda gf: (-gf[0], gf[1]))


@st.composite
def _labelled_vectors(draw):
    """Up to 30 texts over 8 features, most of them sharing a few presence
    patterns, so gains tie often; counts of 0 are entries of no presence."""
    names = [f"f{i}" for i in range(8)]
    patterns = draw(st.lists(st.frozensets(st.integers(0, 29), max_size=30), min_size=1, max_size=4))
    n = draw(st.integers(2, 30))
    labels = draw(st.lists(st.integers(-3, -1), min_size=n, max_size=n))
    assume(len(set(labels)) >= 2)
    counts: list[dict[str, int]] = [{} for _ in range(n)]
    for name in names:
        texts = draw(st.one_of(st.sampled_from(patterns), st.frozensets(st.integers(0, n - 1))))
        for i in texts:
            if i < n:
                counts[i][name] = draw(st.integers(0, 3))
    return [FeatureVector(c, 0, 0, 0) for c in counts], labels


@settings(max_examples=300, deadline=None)
@given(_labelled_vectors())
def test_gain_core_equals_the_per_distinct_vector_loop(case):
    vectors, labels = case
    features = baseline.compile_features(vectors)
    ids, gains = baseline._gains(features, labels)
    names, expected = gains_per_distinct_vector(vectors, labels)
    assert features.vocabulary[ids].tolist() == names
    assert gains.tolist() == expected  # bit for bit


def test_gain_core_equals_the_per_distinct_vector_loop_on_the_golden_corpus():
    from .test_cli import golden_corpus
    vectors = [extract_features(ex.text) for ex in golden_corpus()]
    for scale in ("gold_stress", "gold_relax"):
        labels = [getattr(ex, scale) for ex in golden_corpus()]
        features = baseline.compile_features(vectors)
        ids, gains = baseline._gains(features, labels)
        assert (features.vocabulary[ids].tolist(), gains.tolist()) == \
            gains_per_distinct_vector(vectors, labels)


@settings(max_examples=300, deadline=None)
@given(_labelled_vectors(), st.integers(1, 10))
def test_sweep_ranking_is_the_information_gain_prefix(case, depth):
    # depth runs past the 8 features, and ties across the cut are common.
    vectors, labels = case
    table = information_gain(vectors, labels)
    ranked = baseline._ranking(baseline.compile_features(vectors), labels, depth)
    assert ranked == FeatureTable(table.vocabulary[:depth], table.gains[:depth])


def test_entropies_equal_the_loop_over_every_ratio_up_to_400():
    # np.log2 differs from math.log2 in the last bit on some of these ratios.
    rows = np.array([(c, t - c, 0) for t in range(1, 401) for c in range(t + 1)])
    got = baseline._entropies(rows, rows.sum(axis=1))
    assert got.tolist() == [entropy_of_counts(row) for row in rows.tolist()]


def test_sweep_ranking_keeps_ties_at_the_cut_in_name_order():
    # Five features with one gain: a cut at 2 keeps the first two names.
    vectors = [FeatureVector({f: 1 for f in "edcba"} | {"x": 1}, 0, 0, 0),
               FeatureVector({f: 1 for f in "edcba"}, 0, 0, 0),
               FeatureVector({"x": 1}, 0, 0, 0),
               FeatureVector({}, 0, 0, 0)]
    labels = [1, 1, 2, 2]
    assert baseline._ranking(baseline.compile_features(vectors), labels, 2).vocabulary == ("a", "b")
    assert information_gain(vectors, labels).vocabulary == ("a", "b", "c", "d", "e", "x")


def test_gain_single_label_rejected():
    vectors, labels = corpus_vectors(["a", "b"], [1, 1])
    with pytest.raises(DegenerateLabels):
        information_gain(vectors, labels)


@pytest.mark.parametrize("n_labels", [2, 8])
def test_label_count_must_match_text_count(monkeypatch, n_labels):
    vectors, _ = corpus_vectors(["calm one", "calm two", "tense one", "tense two"], [])
    labels = [1, 2] * (n_labels // 2)

    def no_work(vectors):
        raise AssertionError("features compiled before the lengths were checked")

    monkeypatch.setattr(baseline, "compile_features", no_work)
    message = f"{n_labels} labels for 4 texts"
    with pytest.raises(LengthError, match=message):
        information_gain(vectors, labels)
    for kind in ("nb", "logistic"):
        with pytest.raises(LengthError, match=message):
            train(kind, vectors, labels, ("calm",))


def test_unknown_scale_kind_and_zero_size_rejected():
    with pytest.raises(ValueError, match="unknown scale"):
        sweep(injected_token_corpus(), "anger")
    vectors, labels = corpus_vectors(["aa bb", "cc dd"], [1, 2])
    with pytest.raises(ValueError, match="unknown classifier kind"):
        train("svm", vectors, labels, ("aa",))
    with pytest.raises(ValueError, match=">= 1"):
        select_top(information_gain(vectors, labels), 0)


def _no_work(vectors):
    raise AssertionError("features compiled before the arguments were checked")


NO_CELLS = "a sweep needs classifiers and feature counts"


@pytest.mark.parametrize("cells, message", [(dict(kinds=()), NO_CELLS), (dict(grid=()), NO_CELLS),
                                            (dict(grid=iter(())), NO_CELLS),
                                            (dict(kinds=("nb", "svm")), "unknown classifier kind 'svm'")],
                         ids=["no-kinds", "no-grid", "no-grid-iterator", "unknown-kind"])
def test_sweep_without_cells_rejected(monkeypatch, cells, message):
    # Unchecked, every fold's information gain is computed before max() of no
    # rows fails, or before the first train() meets the unknown kind.
    monkeypatch.setattr(baseline, "compile_features", _no_work)
    with pytest.raises(ValueError, match=message):
        sweep(injected_token_corpus(), "stress", k=2, reps=1, **cells)


def test_train_checks_kind_before_design_matrix(monkeypatch):
    vectors, labels = corpus_vectors(["aa bb", "cc dd"], [1, 2])
    monkeypatch.setattr(baseline, "compile_features", _no_work)
    with pytest.raises(ValueError, match="unknown classifier kind 'svm'"):
        train("svm", vectors, labels, ("aa",))


def test_select_top_caps_at_vocabulary():
    vectors, labels = corpus_vectors(["aa bb", "cc dd"], [1, 2])
    table = information_gain(vectors, labels)
    subset = select_top(table, 1000)
    assert set(subset) == set(table.vocabulary) | set(DENSE_FEATURES)


def test_select_top_tie_breaks_lexicographically():
    vectors, labels = corpus_vectors(["zz one", "aa two"], [1, 2])
    table = information_gain(vectors, labels)
    subset = select_top(table, 1)
    assert subset[0] == "aa"  # all gains equal; lexicographically smallest wins


def test_sweep_grid_matches_protocol():
    assert SWEEP_GRID == tuple(range(100, 1001, 100))


def fit_each_class(x, labels, start=None):
    """Train the joint logistic fit; per class, its +1/-1 target and weights."""
    classes = tuple(sorted(set(labels)))
    weights = baseline._train_logistic(x, np.array(labels), classes, start)
    assert weights.shape == (len(classes), x.shape[1] + 1)
    return [(np.array([1.0 if y == c else -1.0 for y in labels]), w) for c, w in zip(classes, weights)]


def assert_logistic_converged(x, labels, start=None):
    for target, w in fit_each_class(x, labels, start):
        loss, grad = logistic_loss_and_gradient(x, target, w)
        assert np.abs(grad).max() <= LOGISTIC_TOLERANCE
        assert abs(loss - logistic_minimum(x, target)) <= 1e-9


def test_logistic_converges_on_random_counts():
    rng = np.random.default_rng(5)
    for n, f, n_classes in ((40, 12, 2), (60, 30, 5), (25, 80, 3)):
        x = rng.poisson(0.4, (n, f)).astype(float)
        labels = [int(c) for c in rng.integers(0, n_classes, n)]
        classes = tuple(sorted(set(labels)))
        # The fit on the first half of the columns, widened with zeros: a sweep's warm start.
        half = baseline._train_logistic(x[:, :f // 2], np.array(labels), classes)
        nested = np.hstack([half[:, :-1], np.zeros((len(classes), f - f // 2)), half[:, -1:]])
        for start in (None, rng.normal(0.0, 1.0, (len(classes), f + 1)), nested):
            assert_logistic_converged(x, labels, start)
        assert np.array_equal(nested[:, -1], half[:, -1])  # the fits moved copies of their start


def test_logistic_converges_on_separable_feature():
    rng = np.random.default_rng(6)
    labels = [1] * 15 + [2] * 15
    x = rng.poisson(0.5, (30, 6)).astype(float)
    x[:, 2] = [3.0 if y == 1 else 0.0 for y in labels]
    assert_logistic_converged(x, labels)


def test_logistic_halves_a_step_that_overshoots(monkeypatch):
    # Newton steps 64 times too long: only the step halving lets the fit converge.
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: 64.0 * solve(a, b))
    rng = np.random.default_rng(8)
    x = rng.poisson(0.5, (30, 5)).astype(float)
    assert_logistic_converged(x, [int(c) for c in rng.integers(0, 3, 30)])


def test_logistic_on_zero_features_is_the_log_odds_bias():
    for x, labels in ((np.zeros((30, 4)), [1] * 3 + [2] * 20 + [3] * 7),
                      (np.zeros((12, 1)), [-1] * 6 + [2] * 6)):
        assert_logistic_converged(x, labels)
        for target, w in fit_each_class(x, labels):
            n_c = int((target > 0).sum())
            p = n_c / len(labels)
            assert (w[:-1] == 0.0).all()
            # |gradient| = |sigmoid(bias) - p| <= tolerance bounds the bias error, to first order.
            assert abs(w[-1] - math.log(n_c / (len(labels) - n_c))) <= LOGISTIC_TOLERANCE / (p * (1 - p))


def test_logistic_single_class_and_singular_design_stay_finite():
    rng = np.random.default_rng(7)
    x = rng.poisson(0.6, (20, 3)).astype(float)
    singular = np.hstack([x, x[:, :1], np.zeros((20, 2)), x[:, 1:2]])  # duplicated and zero columns
    labels = [int(c) for c in rng.integers(1, 4, 20)]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for design, ys in ((x, [2] * 20), (singular, labels)):
            for target, w in fit_each_class(design, ys):
                assert np.isfinite(w).all()
                _, grad = logistic_loss_and_gradient(design, target, w)
                assert np.abs(grad).max() <= LOGISTIC_TOLERANCE
    vectors, labels = corpus_vectors(["good day", "bad day", "good night"], [3, 3, 3])
    model = train("logistic", vectors, labels, ("good", "bad") + DENSE_FEATURES)
    assert predict(model, extract_features("bad night")) == 3


def test_design_matrix_matches_plain_lookup():
    texts = ["so late again", "late late. very late!", "", "again and again and again"]
    vectors = [extract_features(t) for t in texts]
    # a sparse feature named like a dense count
    vectors.append(FeatureVector({"<n_unigrams>": 7, "late": 2}, 3, 2, 1))
    vocabulary = sorted({f for vec in vectors for f in vec.counts})
    sparse = [f for f in vocabulary if f not in DENSE_FEATURES]
    subsets = [
        tuple(vocabulary),  # the dense count takes precedence over its sparse namesake
        tuple(sparse[:5]) + DENSE_FEATURES,
        ("<n_bigrams>", "late", "never seen", "<n_trigrams>", "again", "<n_unigrams>"),
        ("absent", "also absent"),
        DENSE_FEATURES[::-1],
        (),
    ]
    for subset in subsets:
        expected = design_matrix_plain(vectors, subset)
        got = baseline._design_matrix(baseline.compile_features(vectors), baseline._columns(subset))
        assert got.shape == (len(vectors), len(subset))
        assert got.tolist() == expected
        model = TrainedModel("nb", (1,), subset, 1, {})
        assert [baseline._vector_matrix(model, vec).tolist() for vec in vectors] == \
            [[row] for row in expected]


def test_logistic_train_fits_the_plain_design_matrix():
    # Bit for bit: BLAS rounds the fit's products differently on another memory layout.
    from .test_cli import golden_corpus
    vectors = [extract_features(ex.text) for ex in golden_corpus()]
    labels = [ex.gold_stress for ex in golden_corpus()]
    model = train("logistic", vectors, labels, select_top(information_gain(vectors, labels), 30))
    plain = np.array(design_matrix_plain(vectors, model.subset))
    assert np.array_equal(model.params["weights"],
                          baseline._train_logistic(plain, np.array(labels), model.classes))


@pytest.mark.parametrize("kind", ["nb", "logistic"])
def test_a_text_scores_the_same_alone_and_in_a_batch(kind):
    from .test_cli import golden_corpus
    vectors = [extract_features(ex.text) for ex in golden_corpus()]
    labels = [ex.gold_stress for ex in golden_corpus()]
    model = train(kind, vectors, labels, select_top(information_gain(vectors, labels), 30))
    x = baseline._design_matrix(baseline.compile_features(vectors), baseline._columns(model.subset))
    batch = baseline._scores(model, x)
    for row, vec in zip(batch, vectors):
        alone = baseline._scores(model, baseline._vector_matrix(model, vec))
        assert alone.tolist() == [row.tolist()]  # bit for bit
    assert baseline._predict(model, x) == [predict(model, vec) for vec in vectors]


def test_logistic_separable_reaches_train_accuracy():
    texts = ["good day today", "good sunny day", "bad day today", "bad rainy day"]
    vectors, labels = corpus_vectors(texts, [1, 1, 2, 2])
    table = information_gain(vectors, labels)
    model = train("logistic", vectors, labels, select_top(table, 10))
    assert [predict(model, v) for v in vectors] == labels


def test_nb_prior_dominance_single_example():
    vectors, labels = corpus_vectors(["only text"], [3])
    model = train("nb", vectors, labels, ("only", "text") + DENSE_FEATURES)
    assert predict(model, extract_features("anything else")) == 3


def test_nb_posterior_matches_hand_computation():
    # two classes, two docs each over a two-word vocabulary
    texts = ["aa aa", "aa bb", "bb bb", "bb aa"]
    labels = [1, 1, 2, 2]
    vectors = [extract_features(t) for t in texts]
    model = train("nb", vectors, labels, ("aa", "bb"))
    # class 1: counts aa=3 bb=1 -> smoothed aa 4/6, bb 2/6; class 2 mirrored
    query = extract_features("aa")
    post = posterior(model, query)
    j1 = 0.5 * (4 / 6)
    j2 = 0.5 * (2 / 6)
    assert post[1] == pytest.approx(j1 / (j1 + j2), abs=1e-12)
    assert sum(post.values()) == pytest.approx(1.0, abs=1e-9)


def test_nb_posteriors_sum_to_one():
    rng = random.Random(3)
    words = ["aa", "bb", "cc"]
    texts = [" ".join(rng.choices(words, k=3)) for _ in range(20)]
    labels = [rng.choice([-1, -2, -3]) for _ in range(20)]
    vectors = [extract_features(t) for t in texts]
    model = train("nb", vectors, labels, ("aa", "bb", "cc") + DENSE_FEATURES)
    for _ in range(10):
        probe = extract_features(" ".join(rng.choices(words, k=4)))
        post = posterior(model, probe)
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0 for p in post.values())


def test_predict_tiebreak_toward_neutral():
    # all-zero input and uniform priors leave every class tied
    vectors, labels = corpus_vectors(["aa", "bb", "cc"], [-1, -2, -3])
    model = train("nb", vectors, labels, ("zz",))
    empty = extract_features("")
    assert predict(model, empty) == -1


def test_train_empty_rejected():
    with pytest.raises(EmptyCorpus):
        train("nb", [], [], ())


@pytest.mark.parametrize("kind", ["nb", "logistic"])
def test_model_keeps_its_columns_out_of_equality_and_saved_form(kind):
    vectors, labels = corpus_vectors(["good day", "bad day", "so bad", "good good"], [1, 2, 2, 1])
    subset = ("good", "day", "never seen") + DENSE_FEATURES
    model = train(kind, vectors, labels, subset)
    probes = [extract_features(t) for t in ("good day", "bad bad day", "")]
    first = [(predict(model, p), posterior(model, p)) for p in probes]
    # Later calls read the column map and tie order the first call built.
    assert [(predict(model, p), posterior(model, p)) for p in probes] == first
    assert {"columns", "tie_order"} <= set(vars(model))
    assert replace(model) == model  # a copy without them is still equal


def injected_token_corpus(n=40, seed=0):
    rng = random.Random(seed)
    fillers = ["alpha", "beta", "gamma", "delta"]
    examples = []
    for i in range(n):
        stressed = i % 2 == 0
        # both classes get four tokens so the dense length features carry
        # no signal; only the injected token separates them
        words = rng.choices(fillers, k=3 if stressed else 4)
        if stressed:
            words.insert(rng.randrange(len(words)), "zzzq")
        text = " ".join(words)
        stress = -3 if stressed else -1
        examples.append(make_example(f"b{i:03d}", "synthetic", text, (stress,), (1,)))
    return examples


def test_end_to_end_injected_token():
    corpus = injected_token_corpus()
    vectors = [extract_features(ex.text) for ex in corpus]
    labels = [ex.gold_stress for ex in corpus]
    table = information_gain(vectors, labels)
    top = max(zip(table.vocabulary, table.gains), key=lambda fg: fg[1])
    assert top[0] == "zzzq" and top[1] == pytest.approx(1.0)
    # selecting the single top feature isolates the injected token (plus the
    # always-kept dense counts, which carry no signal here)
    for kind in ("nb", "logistic"):
        rpt = crossval_baseline(corpus, "stress", kind, 1, k=4, reps=1, base_seed=0)
        assert rpt.exact_pct == 100.0


def test_crossval_baseline_deterministic():
    corpus = injected_token_corpus(seed=2)
    a = crossval_baseline(corpus, "stress", "nb", 10, k=4, reps=2, base_seed=7)
    b = crossval_baseline(corpus, "stress", "nb", 10, k=4, reps=2, base_seed=7)
    assert a == b


def test_crossval_baseline_rejects_duplicate_ids():
    corpus = injected_token_corpus(n=12)
    corpus[3] = replace(corpus[3], id="dup")
    corpus[8] = replace(corpus[8], id="dup")
    with pytest.raises(ParseError, match="duplicate"):
        crossval_baseline(corpus, "stress", "nb", 5, k=3, reps=1, base_seed=0)


def test_sweep_rows_equal_single_cell_runs():
    from .test_cli import golden_corpus
    corpus = golden_corpus()
    grid = (5, 100)
    rows, _ = sweep(corpus, "relax", ("nb", "logistic"), grid, k=4, reps=2, base_seed=9)
    assert [(kind, n) for kind, n, _, _ in rows] == [(kind, n) for kind in ("nb", "logistic")
                                                     for n in grid]
    assert len({rpt for *_, rpt in rows}) > 1  # the cells differ, so a mix-up would show
    for kind, n, scale, rpt in rows:
        assert scale == "relax"
        assert rpt == crossval_baseline(corpus, "relax", kind, n, k=4, reps=2, base_seed=9)


def test_sweep_rows_equal_per_text_runs_on_plain_folds():
    from .test_cli import golden_corpus
    corpus = golden_corpus()
    k, base_seed, grid = 4, 9, (5, 100)
    rows, _ = sweep(corpus, "stress", ("nb", "logistic"), grid, k=k, reps=1, base_seed=base_seed)
    assert len({rpt for *_, rpt in rows}) > 1
    fold_of = make_folds(corpus, k, base_seed * 1_000_003)  # the README's repetition seed
    for kind, n, _, rpt in rows:
        preds, golds = [], []
        for fold in range(k):
            held = {ex.id for ex, f in zip(corpus, fold_of) if f == fold}
            train_ex = [ex for ex in corpus if ex.id not in held]
            vectors = [extract_features(ex.text) for ex in train_ex]
            labels = [ex.gold_stress for ex in train_ex]
            model = train(kind, vectors, labels, select_top(information_gain(vectors, labels), n))
            for ex in corpus:
                if ex.id in held:
                    preds.append(predict(model, extract_features(ex.text)))
                    golds.append(ex.gold_stress)
        expected = report(PairedSeries(tuple(preds), tuple(golds)))
        assert (rpt.n, rpt.reps, rpt.pearson_skipped) == (len(corpus), 1, expected.pearson is None)
        assert (rpt.exact_pct, rpt.within1_pct, rpt.pearson, rpt.mad) == (
            expected.exact_pct, expected.within1_pct, expected.pearson, expected.mad)


def test_sweep_is_one_fold_pass(monkeypatch):
    calls = {"run_folds": 0, "_gains": 0, "_fit": 0}

    def counted(name):
        real = getattr(baseline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(baseline, name, counted(name))
    rows, _ = sweep(injected_token_corpus(n=30), "stress", grid=(1, 2, 3), k=3, reps=2,
                    base_seed=1)
    assert len(rows) == 2 * 3
    # gain once per training fold; a fit once per cell and fold
    assert calls == {"run_folds": 1, "_gains": 3 * 2, "_fit": 2 * 3 * 3 * 2}


def test_sweep_cells_are_cuts_equal_to_their_own_design_matrices(monkeypatch):
    from .test_cli import golden_corpus
    corpus = golden_corpus()
    labels = [ex.gold_stress for ex in corpus]
    features = baseline.compile_features([extract_features(ex.text) for ex in corpus])
    kinds, grid = ("nb", "logistic"), (5, 20, 10_000)  # 10,000 exceeds every fold's vocabulary
    fits, predictions, folds = [], [], []
    real_fit, real_predict, real_run_folds = baseline._fit, baseline._predict, baseline.run_folds

    def fit(kind, x, y, classes, subset, start):
        fits.append((x, subset))
        return real_fit(kind, x, y, classes, subset, start)

    def predict_rows(model, x):
        predictions.append((x, model.subset))
        return real_predict(model, x)

    def run_folds(*args):
        *head, fit_predict, golds = args

        def checked(train_at, test_at, fold_seed):
            fits.clear()
            predictions.clear()
            out = fit_predict(train_at, test_at, fold_seed)
            train_features, test_features = features.take(train_at), features.take(test_at)
            table = baseline._ranking(train_features, [labels[i] for i in train_at])
            assert [subset for _, subset in fits] == [select_top(table, n) for _ in kinds for n in grid]
            assert [subset for _, subset in predictions] == [subset for _, subset in fits]
            for (x, subset), (x_test, _) in zip(fits, predictions):
                for got, side in ((x, train_features), (x_test, test_features)):
                    want = baseline._design_matrix(side, baseline._columns(subset))
                    assert got.flags.c_contiguous and (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes()  # bit for bit
            folds.append(len(fits))
            return out
        return real_run_folds(*head, checked, golds)

    monkeypatch.setattr(baseline, "_fit", fit)
    monkeypatch.setattr(baseline, "_predict", predict_rows)
    monkeypatch.setattr(baseline, "run_folds", run_folds)
    sweep(corpus, "stress", kinds, grid, k=4, reps=2, base_seed=9)
    assert folds == [len(kinds) * len(grid)] * (4 * 2)


def test_warm_started_sweep_fits_converge(monkeypatch):
    from .test_cli import golden_corpus
    fits = []
    real = baseline._train_logistic

    def recorded(x, y, classes, start=None):
        weights = real(x, y, classes, start)
        fits.append((x, y, classes, start, weights))
        return weights

    monkeypatch.setattr(baseline, "_train_logistic", recorded)
    grid, k = (5, 20, 100), 4
    sweep(golden_corpus(), "stress", grid=grid, k=k, reps=1, base_seed=9)
    assert len(fits) == k * len(grid)
    for i, (x, y, classes, start, weights) in enumerate(fits):
        if i % len(grid) == 0:
            assert start is None  # a fold's first fit starts cold
        else:
            assert start is not None
            assert np.array_equal(start[:, -1], fits[i - 1][4][:, -1])  # the previous bias
        for c, w in zip(classes, weights):
            _, grad = logistic_loss_and_gradient(x, np.where(y == c, 1.0, -1.0), w)
            assert np.abs(grad).max() <= LOGISTIC_TOLERANCE


def test_a_start_gives_its_weights_by_feature_name():
    start = TrainedModel("logistic", (1, 2), ("a", "b", "d"), 1,
                         {"weights": np.array([[1.0, 2.0, 3.0, 9.0], [4.0, 5.0, 6.0, 8.0]])})
    # A new feature starts at 0, a dropped one is left out, the bias is kept.
    assert baseline._start_weights(start, ("c", "d", "a")).tolist() == \
        [[0.0, 3.0, 1.0, 9.0], [0.0, 6.0, 4.0, 8.0]]


def test_train_rejects_a_repeated_feature_before_design_matrix(monkeypatch):
    vectors, labels = corpus_vectors(["good day", "bad day", "so bad", "good good"], [1, 2, 2, 1])
    # A sparse feature named like a dense count: select_top then names it twice.
    named_dense = [FeatureVector({"<n_unigrams>": 1, "good": 1}, 2, 1, 0),
                   FeatureVector({"bad": 1}, 1, 0, 0)]
    dense_repeat = select_top(information_gain(named_dense, [1, 2]), 2)
    assert dense_repeat.count("<n_unigrams>") == 2

    def no_work(*args):
        raise AssertionError("features compiled before the subset was checked")

    monkeypatch.setattr(baseline, "compile_features", no_work)
    monkeypatch.setattr(baseline, "_design_matrix", no_work)
    for vecs, ys, subset, repeated in ((vectors, labels, ("good", "bad", "good"), "good"),
                                       (named_dense, [1, 2], dense_repeat, "<n_unigrams>")):
        for kind in ("nb", "logistic"):
            with pytest.raises(ValueError, match=f"'{repeated}' more than once"):
                train(kind, vecs, ys, subset)


def test_sweep_rejects_bad_grid_before_work(monkeypatch):
    def no_work(text):
        raise AssertionError("features extracted before the grid was checked")

    monkeypatch.setattr(baseline, "extract_features", no_work)
    for grid in ((100, 0), (-5,)):
        with pytest.raises(ValueError, match=">= 1"):
            sweep(injected_token_corpus(), "stress", grid=grid)
