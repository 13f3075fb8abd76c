from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tensilex import lexicon, optimizer
from tensilex.corpus import make_example
from tensilex.errors import EmptyCorpus
from tensilex.lexicon import (
    BoosterEntry,
    EmoticonEntry,
    IdiomEntry,
    Kind,
    LexiconEntry,
    LexiconSet,
    set_strength,
)
from tensilex.optimizer import (
    OptimizerConfig,
    Plan,
    compile_plan,
    compile_plans,
    hill_climb,
    rescore,
    term_keys,
    tokenize_corpus,
    total_absolute_error,
)
from tensilex.scorer import DualScore, replay_trace, score_text

from .conftest import make_reference_lexicon, make_synthetic_corpus
from .oracles import hill_climb_bruteforce


def test_total_error_zero_on_perfect_corpus():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=20, seed=1)
    assert total_absolute_error(lex, corpus) == 0


def test_total_error_single_example():
    lex = make_reference_lexicon()
    # gold (-3, 1) while the lexicon predicts (-1, 1): nothing matches
    ex = make_example("x", "s", "the journey today", (-3,), (1,))
    assert total_absolute_error(lex, [ex]) == 2


def test_total_error_matches_hand_sum():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=5, seed=2)
    perturbed = set_strength(lex, Kind.STRESS, "strainword0", 5)
    expected = 0
    for ex in corpus:
        score, _ = score_text(ex.text, perturbed)
        expected += abs(score.stress - ex.gold_stress) + abs(score.relaxation - ex.gold_relax)
    assert total_absolute_error(perturbed, corpus) == expected


def test_empty_corpus_rejected():
    lex = make_reference_lexicon()
    with pytest.raises(EmptyCorpus):
        total_absolute_error(lex, [])
    with pytest.raises(EmptyCorpus):
        hill_climb(lex, [])


def test_already_optimal_terminates_in_one_pass():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=50, seed=3)
    optimized, report = hill_climb(lex, corpus, OptimizerConfig(seed=9))
    assert report.changes_made == 0
    assert report.passes_run == 1
    assert optimized == lex


def test_recovers_single_perturbation():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=100, seed=4)
    # strainword1 has strength 3; weakening it misscores its 4+ texts
    perturbed = set_strength(lex, Kind.STRESS, "strainword1", 2)
    initial = total_absolute_error(perturbed, corpus)
    assert initial >= 2
    # exhaustive check: the single +1 edit on strainword1 is the best move
    best = min(
        (total_absolute_error(set_strength(perturbed, kind, e.pattern, s), corpus)
         for kind in (Kind.STRESS, Kind.RELAXATION)
         for e in perturbed.terms(kind)
         for s in (e.strength - 1, e.strength + 1) if 1 <= s <= 5),
    )
    assert best == 0
    optimized, report = hill_climb(perturbed, corpus, OptimizerConfig(seed=5))
    assert report.final_error < report.initial_error
    assert optimized == lex


def test_same_seed_reproducible():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=60, seed=6)
    perturbed = set_strength(lex, Kind.RELAXATION, "soothword2", 5)
    a_lex, a_rep = hill_climb(perturbed, corpus, OptimizerConfig(seed=11))
    b_lex, b_rep = hill_climb(perturbed, corpus, OptimizerConfig(seed=11))
    assert a_lex == b_lex
    assert list(a_rep.log_lines()) == list(b_rep.log_lines())


def test_error_strictly_decreasing_per_change():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=200, seed=7)
    perturbed = lex
    for pattern in ("strainword0", "strainword5", "soothword3"):
        kind = Kind.STRESS if pattern.startswith("strain") else Kind.RELAXATION
        entry = next(e for e in perturbed.terms(kind) if e.pattern == pattern)
        delta = 1 if entry.strength < 5 else -1
        perturbed = set_strength(perturbed, kind, pattern, entry.strength + delta)
    _, report = hill_climb(perturbed, corpus, OptimizerConfig(seed=3))
    for change in report.changes:
        assert change.error_before - change.error_after >= 2
    errors = [report.initial_error] + [c.error_after for c in report.changes]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert report.final_error == errors[-1]
    assert report.final_error <= report.initial_error


def test_local_optimality_at_convergence():
    lex = make_reference_lexicon(n_terms=10)
    corpus = make_synthetic_corpus(lex, n_texts=40, seed=8)
    perturbed = set_strength(lex, Kind.STRESS, "strainword2", 3)
    optimized, report = hill_climb(perturbed, corpus, OptimizerConfig(seed=2))
    assert report.passes_run < OptimizerConfig().max_passes  # zero-change pass ended it
    base = total_absolute_error(optimized, corpus)
    for kind in (Kind.STRESS, Kind.RELAXATION):
        for entry in optimized.terms(kind):
            for s in (entry.strength - 1, entry.strength + 1):
                if 1 <= s <= 5:
                    candidate = set_strength(optimized, kind, entry.pattern, s)
                    assert base - total_absolute_error(candidate, corpus) < 2


def test_min_improvement_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(min_improvement=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_passes=0)


def test_plans_hold_only_terms_that_score():
    lex = LexiconSet(
        stress_terms=(LexiconEntry("late", Kind.STRESS, 3),),
        relax_terms=(LexiconEntry("chill", Kind.RELAXATION, 2),),
        boosters=(), negators=frozenset({"not"}),
        idioms=(IdiomEntry(("chill", "out"), Kind.RELAXATION, 4),), emoticons=(),
        dictionary=frozenset("late chill out not so".split()))
    texts = ["chill out so late", "not late. chill"]
    plan_a, plan_b = compile_plans(lex, [score_text(text, lex)[1] for text in texts])
    # "chill" inside the idiom is masked, so only text b can move with it, and
    # "not late" scores 1 at every strength of "late", so text b cannot.
    assert term_keys(lex) == ((Kind.STRESS, "late"), (Kind.RELAXATION, "chill"))
    assert [term for term, _ in plan_a.stress_matches + plan_a.relax_matches] == [0]
    assert [term for term, _ in plan_b.stress_matches + plan_b.relax_matches] == [1]


def test_compile_plan_boosts_each_match_and_folds_what_no_table_moves():
    lex = LexiconSet(
        stress_terms=(LexiconEntry("late", Kind.STRESS, 3),),
        relax_terms=(LexiconEntry("chill", Kind.RELAXATION, 2),),
        boosters=(), negators=frozenset(), idioms=(IdiomEntry(("chill", "out"), Kind.RELAXATION, 4),),
        emoticons=(), dictionary=frozenset("chill out today late and".split()))
    trace = score_text("chill out today. late and chill!", lex)[1]
    # The "!" boost (1, 2, 3, 4, 5 -> 1, 3, 4, 5, 5) is in each match of the
    # second sentence; the idiom in the first is the fixed relaxation, 4.
    boosted = (0, 1, 3, 4, 5, 5)
    plan = compile_plan(trace, {(Kind.STRESS, "late"): 0, (Kind.RELAXATION, "chill"): 1})
    assert plan == Plan(1, 4, ((0, boosted),), ((1, boosted),))
    assert rescore(plan, [3, 2]) == trace.score == DualScore(-4, 4)
    assert rescore(plan, [1, 4]) == DualScore(-1, 5)


def _climb_recording_tries(monkeypatch, cfg):
    """The climb over a set where "rush" is matched only under negation: its
    (optimized lexicon, report, set of (Kind, pattern) tried) under ``cfg``."""
    lex = LexiconSet(
        stress_terms=(LexiconEntry("late", Kind.STRESS, 3), LexiconEntry("rush", Kind.STRESS, 2)),
        relax_terms=(LexiconEntry("chill", Kind.RELAXATION, 2),),
        boosters=(), negators=frozenset({"not"}), idioms=(), emoticons=(),
        dictionary=frozenset("late rush chill not again today".split()))
    corpus = [make_example("a", "s", "late again", (-4,), (1,)),
              make_example("b", "s", "not rush. late", (-4,), (1,)),
              make_example("c", "s", "chill", (-1,), (3,)),
              make_example("d", "s", "not rush today", (-1,), (1,))]
    # The climb's first call of the error function scores every text; each later
    # call is one try, over the texts of the term tried, which here name it.
    keys, plans = term_keys(lex), compile_plans(lex, tokenize_corpus(lex, corpus))
    term_of = {tuple(i for i, plan in enumerate(plans)
                     if term in {t for t, _ in plan.stress_matches + plan.relax_matches}): keys[term]
               for term in range(len(keys))}
    calls = []
    errors = optimizer._errors

    def recorded(plans, golds, texts, table):
        calls.append(tuple(texts))
        return errors(plans, golds, texts, table)

    monkeypatch.setattr(optimizer, "_errors", recorded)
    optimized, report = hill_climb(lex, corpus, cfg)
    return lex, optimized, report, {term_of[texts] for texts in calls[1:]}


def test_climb_never_tries_a_term_matched_only_under_negation(monkeypatch):
    # "chill"'s only text has error 1, below the default min_improvement of 2,
    # so it is skipped too; "rush" moves no text and its texts sum to 0.
    lex, optimized, report, tried = _climb_recording_tries(monkeypatch, OptimizerConfig(seed=1))
    assert tried == {(Kind.STRESS, "late")}
    # The report is the same as when every term is tried: no skipped edit could be kept.
    assert list(report.log_lines()) == ["initial_error\t3", "change\tstress\tlate\t3->4\t3->1",
                                        "passes_run\t2", "changes_made\t1", "final_error\t1"]
    assert optimized == set_strength(lex, Kind.STRESS, "late", 4)


def test_climb_tries_a_term_whose_texts_can_fall_by_min_improvement(monkeypatch):
    # At min_improvement 1, "chill"'s text (error 1) can pay for an edit; "rush",
    # matched only under negation, still moves no text and is never tried.
    lex, optimized, report, tried = _climb_recording_tries(
        monkeypatch, OptimizerConfig(seed=1, min_improvement=1))
    assert tried == {(Kind.STRESS, "late"), (Kind.RELAXATION, "chill")}
    assert list(report.log_lines()) == ["initial_error\t3", "change\trelax\tchill\t2->3\t3->2",
                                        "change\tstress\tlate\t3->4\t2->0",
                                        "passes_run\t2", "changes_made\t2", "final_error\t0"]
    assert optimized == set_strength(set_strength(lex, Kind.STRESS, "late", 4),
                                     Kind.RELAXATION, "chill", 3)


def test_climb_tries_a_term_whose_one_text_can_fall_by_two():
    # The "!" boost maps strengths 1 and 2 to 1 and 3, so one edit of "late"
    # lowers its one text's error by 2: the skip bound is the texts' summed
    # error, not their count or one per text.
    lex = LexiconSet(stress_terms=(LexiconEntry("late", Kind.STRESS, 1),), relax_terms=(),
                     boosters=(), negators=frozenset(), idioms=(), emoticons=(),
                     dictionary=frozenset({"late"}))
    optimized, report = hill_climb(lex, [make_example("a", "s", "late!", (-3,), (1,))],
                                   OptimizerConfig(seed=1))
    assert list(report.log_lines()) == ["initial_error\t2", "change\tstress\tlate\t1->2\t2->0",
                                        "passes_run\t2", "changes_made\t1", "final_error\t0"]
    assert optimized == set_strength(lex, Kind.STRESS, "late", 2)


# Words whose wildcard stems overlap ("cal*" and "calm*", "ten*" and "tens*"),
# idioms that share words with terms, boosters and negators, and glyphs.
_WORDS = ("calm", "calming", "calmer", "tense", "tension", "tens", "late", "later", "chill", "rush")
_PATTERNS = _WORDS + ("calm*", "cal*", "tens*", "ten*", "lat*", "rush*", "chil*")
_BOOSTERS = ("very", "so", "bit")
_NEGATORS = ("not", "never")
_FILLERS = ("the", "out", "down", "train")
_IDIOMS = (("chill", "out"), ("calm", "down"), ("very", "late"), ("not", "calm", "down"))
_GLYPHS = (":)", ":(", ":/")
_TERMINATORS = ("", ".", "!", "?!", "???", "!!!")
_STRENGTH = st.integers(1, 5)
_KIND = st.sampled_from((Kind.STRESS, Kind.RELAXATION, Kind.NEUTRAL))


@st.composite
def _elongated(draw, word):
    """``word``, or it with one letter repeated 1-3 extra times."""
    if not word.isalpha() or not draw(st.booleans()):
        return word
    at = draw(st.integers(0, len(word) - 1))
    return word[:at] + word[at] * draw(st.integers(1, 3)) + word[at:]


@st.composite
def _sentence(draw):
    words = []
    for _ in range(draw(st.integers(1, 5))):
        # A term after an optional negator and booster, in either order, or
        # any other word; then, at times, a glyph and an idiom's words.
        prefix = draw(st.sampled_from(((), ("neg",), ("boost",), ("neg", "boost"), ("boost", "neg"))))
        for part in prefix:
            words.append(draw(_elongated(draw(st.sampled_from(_NEGATORS if part == "neg" else _BOOSTERS)))))
        pool = _WORDS if prefix else _WORDS + _FILLERS + _BOOSTERS + _NEGATORS
        words.append(draw(_elongated(draw(st.sampled_from(pool)))))
        if draw(st.integers(0, 3)) == 0:
            words.append(draw(st.sampled_from(_GLYPHS)))
        if draw(st.integers(0, 3)) == 0:
            words.extend(draw(st.sampled_from(_IDIOMS)))
    return " ".join(words) + draw(st.sampled_from(_TERMINATORS))


@st.composite
def _rescore_cases(draw):
    """A random lexicon, texts, and a random strength for every term."""
    terms = [(kind, p) for kind in (Kind.STRESS, Kind.RELAXATION)
             for p in draw(st.lists(st.sampled_from(_PATTERNS), unique=True, max_size=8))]
    boosters = draw(st.dictionaries(st.sampled_from(_BOOSTERS), st.sampled_from((-2, -1, 1, 2))))
    lex = LexiconSet(
        tuple(LexiconEntry(p, kind, draw(_STRENGTH)) for kind, p in terms if kind is Kind.STRESS),
        tuple(LexiconEntry(p, kind, draw(_STRENGTH)) for kind, p in terms if kind is Kind.RELAXATION),
        tuple(BoosterEntry(word, delta) for word, delta in boosters.items()),
        frozenset(_NEGATORS),
        tuple(IdiomEntry(tokens, draw(_KIND), draw(_STRENGTH))
              for tokens in draw(st.lists(st.sampled_from(_IDIOMS), unique=True))),
        tuple(EmoticonEntry(glyph, draw(_KIND), draw(_STRENGTH))
              for glyph in draw(st.lists(st.sampled_from(_GLYPHS), unique=True))),
        frozenset(_WORDS + _BOOSTERS + _NEGATORS + _FILLERS))
    texts = [" ".join(draw(st.lists(_sentence(), min_size=1, max_size=3)))
             for _ in range(draw(st.integers(1, 6)))]
    return lex, texts, {key: draw(_STRENGTH) for key in terms}


@settings(max_examples=200, deadline=None)
@given(_rescore_cases())
def test_climb_errors_match_scorer(case):
    # The climb's per-text errors: each text's plan under the table errs as the
    # scorer does under a lexicon holding the table's strengths.
    lex, texts, table = case
    # Golds (-1, 1) and (-1, 5) give errors s + r - 2 and s - r + 4 for
    # magnitudes s and r, so equal errors on both mean equal scores.
    corpus = [make_example(f"t{i}r{gold}", "s", text, (-1,), (gold,))
              for i, text in enumerate(texts) for gold in (1, 5)]
    plans = compile_plans(lex, tokenize_corpus(lex, corpus))
    golds = [(ex.gold_stress, ex.gold_relax) for ex in corpus]
    by_id = [table[key] for key in term_keys(lex)]
    edited = lexicon.set_strengths(lex, table)
    expected = []
    for ex in corpus:
        score, trace = score_text(ex.text, edited)
        assert replay_trace(trace) == score
        expected.append(abs(score.stress - ex.gold_stress) + abs(score.relaxation - ex.gold_relax))
    assert optimizer._errors(plans, golds, range(len(plans)), by_id) == expected


@settings(max_examples=200, deadline=None)
@given(_rescore_cases())
def test_rescore_matches_scorer(case):
    # The held-out evaluator: each text's plan under the table scores as the
    # scorer does under a lexicon holding the table's strengths.
    lex, texts, table = case
    plans = compile_plans(lex, [score_text(text, lex)[1] for text in texts])
    by_id = [table[key] for key in term_keys(lex)]
    edited = lexicon.set_strengths(lex, table)
    assert [rescore(plan, by_id) for plan in plans] == [score_text(text, edited)[0] for text in texts]


@settings(max_examples=30, deadline=None)
@given(_rescore_cases(), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**16), st.data())
def test_climb_matches_bruteforce_climb(case, min_improvement, max_passes, seed, data):
    # The skip rule and the plan re-scores against the literal climb: every
    # term tried each pass, each candidate scored by editing the lexicon. Each
    # text comes 1-3 times, each copy with the text's score under the drawn
    # table as its gold, at times one off. So the climb has edits to find,
    # and a term's texts can hold several small errors that one edit clears.
    lex, texts, table = case
    target = lexicon.set_strengths(lex, table)
    off = st.sampled_from((0, 0, 1, -1))
    corpus = []
    for i, text in enumerate(texts):
        score = score_text(text, target)[0]
        for copy in range(data.draw(st.integers(1, 3))):
            corpus.append(make_example(f"t{i}c{copy}", "s", text,
                                       (min(-1, max(-5, score.stress + data.draw(off))),),
                                       (min(5, max(1, score.relaxation + data.draw(off))),)))
    cfg = OptimizerConfig(seed=seed, min_improvement=min_improvement, max_passes=max_passes)
    optimized, report = hill_climb(lex, corpus, cfg)
    expected_lex, expected = hill_climb_bruteforce(lex, corpus, cfg)
    assert list(report.log_lines()) == list(expected.log_lines())
    assert optimized == expected_lex


def test_climb_compiles_no_lexicon_per_candidate(monkeypatch):
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=100, seed=4)
    perturbed = set_strength(set_strength(lex, Kind.STRESS, "strainword1", 2),
                             Kind.RELAXATION, "soothword2", 5)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Each text is scored once, and the result is built once, from the table.
    for name in ("set_strength", "set_strengths"):
        monkeypatch.setattr(lexicon, name, counted(name, getattr(lexicon, name)))
    monkeypatch.setattr(optimizer, "score_text", counted("score", optimizer.score_text))
    optimized, report = hill_climb(perturbed, corpus, OptimizerConfig(seed=5))
    assert report.changes_made >= 2
    assert calls == {"score": len(corpus), "set_strengths": 1}
    assert optimized == lex
