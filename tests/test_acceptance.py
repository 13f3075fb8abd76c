"""Acceptance suite: one test per criterion, with stated tolerances and
runtime ceilings. Each finishes with a visible PASS/FAIL line (see
conftest.pytest_runtest_logreport)."""

import os
import random
import time
from pathlib import Path

import pytest

from tensilex.baseline import (
    crossval_baseline,
    extract_features,
    information_gain,
    posterior,
    select_top,
    train,
)
from tensilex.cli import main
from tensilex.corpus import evaluate_lexicon, load_corpus, save_corpus
from tensilex.lexicon import (
    Kind,
    LexiconEntry,
    LexiconSet,
    load_lexicon_set,
    save_lexicon_set,
    set_strength,
)
from tensilex.metrics import CodingMatrix, PairedSeries, krippendorff_alpha_weighted, mad, pearson
from tensilex.optimizer import OptimizerConfig, hill_climb, total_absolute_error
from tensilex.scorer import replay_trace, score_text

from .conftest import make_reference_lexicon, make_synthetic_corpus
from .oracles import information_gain_bruteforce, kripp_alpha_bruteforce


def test_criterion_1_worked_example_metrics():
    series = PairedSeries((1, 5, 5, 5), (1, 5, 5, 1))
    mad(series), pearson(series)  # warm-up
    start = time.perf_counter()
    m = mad(series)
    r = pearson(series)
    elapsed = time.perf_counter() - start
    assert m == 1.000
    assert abs(r - 0.577) <= 0.001
    assert elapsed < 0.001


def test_criterion_2_worked_example_scoring(paper_lexicon):
    cases = [("Almost home and the train is delayed", (-3, 1)),
             ("Fell asleep and messed my hair up", (-1, 4)),
             ("Never trust a man with a filthy kitchen", (-2, 1))]
    start = time.perf_counter()
    for text, expected in cases:
        score, _ = score_text(text, paper_lexicon)
        assert (score.stress, score.relaxation) == expected
    assert time.perf_counter() - start < 0.010


def test_criterion_3_range_safety_fuzz():
    lex = LexiconSet(
        stress_terms=(LexiconEntry("worr*", Kind.STRESS, 4), LexiconEntry("late", Kind.STRESS, 2)),
        relax_terms=(LexiconEntry("calm", Kind.RELAXATION, 3),),
        boosters=(), negators=frozenset({"not"}), idioms=(), emoticons=(),
        dictionary=frozenset({"late", "calm", "not", "worried"}))
    recognised = lex.recognised_words
    rng = random.Random(99)
    for _ in range(10_000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(60)))
        text = raw.decode("latin-1")
        score, trace = score_text(text, lex, recognised)
        assert -5 <= score.stress <= -1
        assert 1 <= score.relaxation <= 5
        assert replay_trace(trace) == score


def test_criterion_4_optimizer_recovery():
    lex = make_reference_lexicon(n_terms=50)
    corpus = make_synthetic_corpus(lex, n_texts=200, seed=17)
    perturbed = lex
    rng = random.Random(23)
    all_terms = ([(Kind.STRESS, e) for e in lex.stress_terms]
                 + [(Kind.RELAXATION, e) for e in lex.relax_terms])
    for kind, entry in rng.sample(all_terms, 5):
        moves = [s for s in (entry.strength - 1, entry.strength + 1) if 1 <= s <= 5]
        perturbed = set_strength(perturbed, kind, entry.pattern, rng.choice(moves))
    injected = total_absolute_error(perturbed, corpus)
    assert injected > 0

    start = time.perf_counter()
    optimized, report = hill_climb(perturbed, corpus, OptimizerConfig(seed=7))
    elapsed = time.perf_counter() - start

    assert elapsed < 10.0
    assert report.passes_run <= 20
    recovered = report.initial_error - report.final_error
    assert recovered >= 0.8 * injected
    errors = [report.initial_error] + [c.error_after for c in report.changes]
    assert all(before - after >= 2 for before, after in zip(errors, errors[1:]))
    assert report.final_error == total_absolute_error(optimized, corpus)


def test_criterion_5_agreement_oracle():
    matrix = CodingMatrix(tuple((c, c, c) for c in (1, 2, 5, 3)))
    assert krippendorff_alpha_weighted(matrix) == 1.0
    rng = random.Random(5)
    start = time.perf_counter()
    for _ in range(100):
        rows = [tuple(rng.randint(1, 5) if rng.random() > 0.15 else None for _ in range(3))
                for _ in range(rng.randint(3, 10))]
        rows.append((rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)))
        expected = kripp_alpha_bruteforce(rows)
        got = krippendorff_alpha_weighted(CodingMatrix(tuple(rows)))
        assert abs(got - expected) <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_criterion_6_crossval_determinism(tmp_path, capsys):
    lex = make_reference_lexicon(n_terms=50)
    corpus = make_synthetic_corpus(lex, n_texts=300, seed=31)
    lex_dir = str(tmp_path / "lex")
    save_lexicon_set(lex, lex_dir)
    corpus_path = str(tmp_path / "corpus.tsv")
    save_corpus(corpus, corpus_path)

    outputs = []
    start = time.perf_counter()
    for run_idx in ("a", "b"):
        log = str(tmp_path / f"cv_{run_idx}.tsv")
        code = main(["evaluate", "--lexicon-dir", lex_dir, corpus_path, "--supervised",
                     "--k", "10", "--reps", "30", "--seed", "7", "--log", log])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append((captured.out.encode(), Path(log).read_bytes()))
    elapsed = time.perf_counter() - start

    assert outputs[0] == outputs[1]  # byte-identical stdout and detailed log
    assert elapsed < 60.0
    # fold partition: no held-out id in its training set (crossval derives
    # plans exactly this way and asserts disjointness internally too)
    from tensilex.corpus import make_folds
    for rep in range(30):
        fold_of = make_folds(corpus, 10, 7 * 1_000_003 + rep)
        seen = set()
        for fold in range(10):
            ids = {ex.id for ex, f in zip(corpus, fold_of) if f == fold}
            assert not ids & seen
            seen |= ids
        assert seen == {ex.id for ex in corpus}


def test_criterion_7_baseline_sanity():
    from .test_baseline import injected_token_corpus
    start = time.perf_counter()
    corpus = injected_token_corpus(n=60, seed=11)
    vectors = [extract_features(ex.text) for ex in corpus]
    labels = [ex.gold_stress for ex in corpus]
    table = information_gain(vectors, labels)
    ranked = sorted(zip(table.vocabulary, table.gains), key=lambda fg: -fg[1])
    assert ranked[0][0] == "zzzq"
    presence = [v.counts.get("zzzq", 0) > 0 for v in vectors]
    assert abs(ranked[0][1] - information_gain_bruteforce(presence, labels)) <= 1e-12

    for kind in ("nb", "logistic"):
        rpt = crossval_baseline(corpus, "stress", kind, 1, k=5, reps=1, base_seed=3)
        assert rpt.exact_pct == 100.0

    model = train("nb", vectors, labels, select_top(table, 10))
    for vec in vectors:
        assert abs(sum(posterior(model, vec).values()) - 1.0) <= 1e-9
    assert time.perf_counter() - start < 10.0


def test_criterion_8_ngram_boundary_property():
    rng = random.Random(77)
    vocab = ["stream", "quiet", "brisk", "delay", "queue", "mellow", "rush", "drift"]
    for _ in range(1000):
        sentences = [[rng.choice(vocab) for _ in range(rng.randint(1, 6))]
                     for _ in range(rng.randint(2, 5))]
        terminators = [rng.choice([".", "!", "?"]) for _ in sentences]
        text = " ".join(" ".join(words) + term
                        for words, term in zip(sentences, terminators))
        # independent boundary oracle: the only legal bigrams/trigrams are
        # those within one constructed sentence (its words plus its own
        # terminator token)
        allowed = set()
        for words, term in zip(sentences, terminators):
            toks = words + [term]
            for size in (2, 3):
                for i in range(len(toks) - size + 1):
                    allowed.add(" ".join(toks[i:i + size]))
        vec = extract_features(text)
        for feature in vec.counts:
            if " " in feature:
                assert feature in allowed, (text, feature)


def test_criterion_9_published_corpus_optional():
    """Optional check with the published lexicon and evaluation corpus.

    The headline corpus numbers (MAD 0.642 stress / 0.454 relaxation on the
    combined evaluation corpus) need the externally published lexicon and
    tweet corpus, which are not shipped. Point these environment variables
    at local copies converted to this repo's formats to enable the check:

        TENSILEX_FIGSHARE_LEXICON  - lexicon directory
        TENSILEX_FIGSHARE_CORPUS   - corpus TSV

    Unsupervised evaluation should then land within +/-0.10 MAD of the
    published values; rule-interpretation differences are documented in the
    README.
    """
    lex_dir = os.environ.get("TENSILEX_FIGSHARE_LEXICON")
    corpus_path = os.environ.get("TENSILEX_FIGSHARE_CORPUS")
    if not lex_dir or not corpus_path:
        pytest.skip("published lexicon/corpus not provided (see docstring)")
    lex = load_lexicon_set(lex_dir)
    corpus = load_corpus(corpus_path)
    reports = evaluate_lexicon(lex, corpus)
    assert abs(reports["stress"].mad - 0.642) <= 0.10
    assert abs(reports["relax"].mad - 0.454) <= 0.10
