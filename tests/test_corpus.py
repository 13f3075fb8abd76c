from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tensilex import baseline as bl, corpus as cp, lexicon, optimizer, scorer
from tensilex.corpus import (
    crossval_supervised,
    evaluate_lexicon,
    load_corpus,
    make_example,
    make_folds,
    round_half_away,
    save_corpus,
    slice_corpus,
)
from tensilex.errors import EmptyCorpus, ParseError, TooSmall, WriteError
from tensilex.lexicon import Kind, set_strength
from tensilex.metrics import PairedSeries, report

from .conftest import make_reference_lexicon, make_synthetic_corpus


def write_corpus(tmp_path, rows, header="id\tsubcorpus\ttext\tstress_codes\trelax_codes"):
    path = tmp_path / "corpus.tsv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return str(path)


def test_round_half_away():
    assert round_half_away(-1.5) == -2
    assert round_half_away(1.5) == 2
    assert round_half_away(-1.667) == -2
    assert round_half_away(-1.4) == -1
    assert round_half_away(2.5) == 3


def test_load_gold_aggregation(tmp_path):
    path = write_corpus(tmp_path, ["a\ttransport\tthe train\t-1,-2,-2\t1,1,2"])
    ex, = load_corpus(path)
    assert ex.gold_stress_raw == pytest.approx(-5 / 3)
    assert ex.gold_stress == -2
    assert ex.gold_relax_raw == pytest.approx(4 / 3)
    assert ex.gold_relax == 1


def test_load_tie_rounds_away_from_zero(tmp_path):
    path = write_corpus(tmp_path, ["a\ts\ttext\t-1,-2\t1,2"])
    ex, = load_corpus(path)
    assert ex.gold_stress == -2
    assert ex.gold_relax == 2


def test_load_header_only(tmp_path):
    assert load_corpus(write_corpus(tmp_path, [])) == []


def test_load_rejects_bad_rows(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_corpus(write_corpus(tmp_path, ["a\ts\ttext\t-1,-6\t1,1"]))
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        load_corpus(write_corpus(tmp_path, ["a\ts\ttext\t-1"]))
    with pytest.raises(ParseError, match="line 2: code is not an integer: 'x'"):
        load_corpus(write_corpus(tmp_path, ["a\ts\ttext\t-1,x\t1,1"]))


def test_load_rejects_coder_count_mismatch(tmp_path):
    rows = ["a\ts\tlate\t-2,-3\t1,1", "b\ts\tchill\t-1,-1\t3,3,2"]
    with pytest.raises(ParseError, match="coder count differs between scales") as exc:
        load_corpus(write_corpus(tmp_path, rows))
    assert exc.value.line == 3


def test_load_rejects_missing_or_short_header(tmp_path):
    # Without a header the first data row would be dropped as one.
    rows = ["a\ts\tlate\t-2\t1", "b\ts\tchill\t-1\t3"]
    with pytest.raises(ParseError) as exc:
        load_corpus(write_corpus(tmp_path, rows[1:], header=rows[0]))
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        load_corpus(write_corpus(tmp_path, rows, header="# comment\nid\ttext\tcodes"))
    assert exc.value.line == 2


def test_load_skips_byte_order_mark(tmp_path):
    # A leading BOM would otherwise turn the comment into a one-column data line.
    path = write_corpus(tmp_path, ["a\ts\tlate\t-2\t1"], header="\ufeff# exported\nid\ts\ttext\tstress\trelax")
    ex, = load_corpus(path)
    assert (ex.id, ex.gold_stress) == ("a", -2)


def test_corpus_roundtrip(tmp_path):
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=12, seed=1)
    corpus += [make_example("x#1", "", "  #not a comment, \"quoted\" ünïcode :) !!!  ", (-2, -3), (1, 4)),
               make_example("x2", "sub label", "", (-1,), (5,))]
    path = tmp_path / "round.tsv"
    save_corpus(corpus, str(path))
    assert load_corpus(str(path)) == corpus


def test_failed_save_leaves_the_old_corpus_whole(tmp_path):
    path = tmp_path / "corpus.tsv"
    good = [make_example("a", "s", "first", (-1,), (2,))]
    save_corpus(good, str(path))
    before = path.read_bytes()
    # A lone surrogate cannot be encoded in UTF-8, so the write fails part-way.
    with pytest.raises(UnicodeEncodeError):
        save_corpus([make_example("b", "s", "second", (-3,), (1,)),
                     make_example("c", "s", "odd \ud800 text", (-2,), (1,))], str(path))
    (tmp_path / "dir.tsv").mkdir()
    with pytest.raises(IsADirectoryError):
        save_corpus(good, str(tmp_path / "dir.tsv"))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["corpus.tsv", "dir.tsv"]


@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
@pytest.mark.parametrize("field", ["id", "subcorpus", "text"])
def test_save_rejects_unreadable_fields(tmp_path, char, field):
    values = {"id": "ok1", "subcorpus": "s", "text": "fine text"}
    values[field] = f"one{char}two"
    bad = make_example(values["id"], values["subcorpus"], values["text"], (-2,), (1,))
    good = make_example("ok0", "s", "first", (-1,), (2,))
    path = tmp_path / "bad.tsv"
    with pytest.raises(WriteError) as exc:
        save_corpus([good, bad], str(path))
    assert repr(bad.id) in str(exc.value) and field in str(exc.value)
    assert not path.exists()


def test_save_rejects_comment_like_id(tmp_path):
    path = tmp_path / "bad.tsv"
    with pytest.raises(WriteError, match="'  #x'"):
        save_corpus([make_example("  #x", "s", "text", (-1,), (1,))], str(path))
    assert not path.exists()


@pytest.mark.parametrize("fields", [("", "#sub", "text"), ("", "", "#tag stressed")])
def test_save_rejects_rows_read_back_as_comments(tmp_path, fields):
    # An empty id leaves the row to start with the next field; written, the
    # row would be skipped and a two-example corpus read back as one.
    good = make_example("ok0", "s", "first", (-1,), (2,))
    bad = make_example(*fields, (-1,), (1,))
    path = tmp_path / "bad.tsv"
    with pytest.raises(WriteError, match="example '': "):
        save_corpus([good, bad], str(path))
    assert not path.exists()


@pytest.mark.parametrize("stress, relax, message", [
    ((0,), (1,), "code 0 outside -5..-1"),
    ((-1,), (9,), "code 9 outside 1..5"),
    ((-1,), (True,), "code is not an integer: True"),
    ((-1, -2), (1,), "coder count differs between scales"),
    ((), (), "no coders"),
])
def test_make_example_enforces_the_reader_rules(stress, relax, message):
    # Each of these once saved a corpus that failed to load, or divided by zero.
    with pytest.raises(ParseError, match=message):
        make_example("a", "s", "text", stress, relax)


_FIELD_TEXT = st.text(alphabet="# \t\na", max_size=3)


@settings(max_examples=300, deadline=None)
@given(_FIELD_TEXT, _FIELD_TEXT, _FIELD_TEXT, st.lists(
    st.tuples(st.integers(-5, -1), st.integers(1, 5)), min_size=1, max_size=3))
def test_saved_corpus_reads_back_or_is_refused(tmp_path_factory, ex_id, sub, text, codes):
    corpus = [make_example("ok0", "s", "first", (-1,), (2,)),
              make_example(ex_id, sub, text, [s for s, _ in codes], [r for _, r in codes])]
    path = tmp_path_factory.mktemp("rt") / "corpus.tsv"
    try:
        save_corpus(corpus, str(path))
    except WriteError:
        assert not path.exists()
    else:
        assert load_corpus(str(path)) == corpus


def test_slice_by_label():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=30, seed=2)
    transport = slice_corpus(corpus, "transport")
    emotion = slice_corpus(corpus, "emotion")
    assert transport and emotion
    assert all(ex.subcorpus == "transport" for ex in transport)
    assert slice_corpus(corpus, "nosuchlabel") == []
    assert sorted(ex.id for ex in transport + emotion) == sorted(ex.id for ex in corpus)


def test_make_folds_balanced():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=20, seed=3)
    fold_of = make_folds(corpus, 10, seed=4)
    sizes = [fold_of.count(f) for f in range(10)]
    assert sizes == [2] * 10


def test_make_folds_sizes_differ_at_most_one():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=23, seed=5)
    fold_of = make_folds(corpus, 10, seed=6)
    sizes = sorted(fold_of.count(f) for f in range(10))
    # 23 = 3 folds of 3 + 7 folds of 2 under round-robin
    assert sizes == [2] * 7 + [3] * 3
    assert len(fold_of) == len(corpus) and set(fold_of) == set(range(10))  # each position has a fold


def test_make_folds_deterministic():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=20, seed=7)
    assert make_folds(corpus, 5, 1) == make_folds(corpus, 5, 1)
    assert make_folds(corpus, 5, 1) != make_folds(corpus, 5, 2)


def test_make_folds_too_small():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=5, seed=8)
    with pytest.raises(TooSmall):
        make_folds(corpus, 10, seed=0)


@pytest.mark.parametrize("k", [0, -1])
def test_make_folds_needs_two_folds(k):
    # Unchecked, k=0 divides by zero and k=-1 puts every example in fold 0.
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=3, seed=8)
    with pytest.raises(TooSmall):
        make_folds(corpus, k, seed=0)


def test_evaluate_perfect_lexicon():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=40, seed=9)
    reports = evaluate_lexicon(lex, corpus)
    for scale in ("stress", "relax"):
        assert reports[scale].exact_pct == 100.0
        assert reports[scale].mad == 0.0


def test_evaluate_unrounded_uses_raw_golds():
    lex = make_reference_lexicon()
    # two coders disagreeing by one: raw mean halfway between codes
    ex = make_example("a", "s", "the strainword0 today", (-2, -3), (1, 1))
    rounded = evaluate_lexicon(lex, [ex])["stress"]
    unrounded = evaluate_lexicon(lex, [ex], unrounded=True)["stress"]
    assert rounded.mad == 1.0  # prediction -2 vs rounded gold -3
    assert unrounded.mad == 0.5  # vs raw gold -2.5
    assert unrounded.exact_pct == rounded.exact_pct  # exact always vs rounded


def test_empty_corpus_rejected():
    lex = make_reference_lexicon()
    with pytest.raises(EmptyCorpus):
        evaluate_lexicon(lex, [])
    with pytest.raises(EmptyCorpus):
        cp.run_folds([], 2, 1, 0, lambda train, test, seed: {}, {})


def test_run_folds_hands_out_corpus_positions():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=23, seed=17)
    k, reps, base_seed = 5, 2, 4
    # Golds unrelated to the examples' own: only a lookup by position finds them.
    golds = {"g": [-1 - i % 5 for i in range(len(corpus))]}
    calls = []

    def fit_predict(train, test, fold_seed):
        preds = [-1 - (i * 7 + fold_seed) % 5 for i in test]
        calls.append((train, test, fold_seed, preds))
        return {"g": preds}

    result = cp.run_folds(corpus, k, reps, base_seed, fit_predict, golds)
    assert len(calls) == reps * k
    positions = range(len(corpus))
    for rep in range(reps):
        rep_seed = base_seed * 1_000_003 + rep
        fold_of = make_folds(corpus, k, rep_seed)
        rep_calls = calls[rep * k:(rep + 1) * k]
        for fold, (train, test, fold_seed, preds) in enumerate(rep_calls):
            assert test == [i for i in positions if fold_of[i] == fold]
            assert train == [i for i in positions if i not in test]
            assert fold_seed == rep_seed * 101 + fold
            fold_report = report(PairedSeries(tuple(preds), tuple(golds["g"][i] for i in test)))
            assert result.log_rows[rep * k + fold] == (rep, fold, "g", fold_report)
        held = [i for _, test, _, _ in rep_calls for i in test]
        assert sorted(held) == list(positions)  # disjoint, and together every position
        pooled = report(PairedSeries(tuple(p for *_, preds in rep_calls for p in preds),
                                     tuple(golds["g"][i] for i in held)))
        assert result.rep_reports[rep] == {"g": pooled}


def test_crossval_fixed_point_matches_unsupervised():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=40, seed=10)
    result = crossval_supervised(lex, corpus, k=5, reps=1, base_seed=0)
    flat = evaluate_lexicon(lex, corpus)
    for scale in ("stress", "relax"):
        assert result.averaged[scale].exact_pct == flat[scale].exact_pct == 100.0
        assert result.averaged[scale].mad == flat[scale].mad == 0.0


def test_crossval_deterministic():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=30, seed=11)
    a = crossval_supervised(lex, corpus, k=5, reps=2, base_seed=42)
    b = crossval_supervised(lex, corpus, k=5, reps=2, base_seed=42)
    assert a.averaged == b.averaged
    assert list(a.log_tsv()) == list(b.log_tsv())


def test_crossval_average_matches_rep_reports():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=30, seed=12)
    result = crossval_supervised(lex, corpus, k=5, reps=3, base_seed=1, supervised=False)
    for scale in ("stress", "relax"):
        mads = [r[scale].mad for r in result.rep_reports]
        assert result.averaged[scale].mad == pytest.approx(sum(mads) / len(mads))


def test_crossval_log_shape():
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=30, seed=13)
    result = crossval_supervised(lex, corpus, k=5, reps=2, base_seed=1, supervised=False)
    assert len(result.log_rows) == 2 * 5 * 2  # reps x folds x scales
    lines = list(result.log_tsv())
    assert lines[0].startswith("rep\tfold\tscale")


def _recording(log, name, fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        log.append((name, args, result))
        return result
    return wrapper


def test_crossval_never_trains_on_heldout(monkeypatch):
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=30, seed=14)
    base_seed, k, reps = 5, 5, 2
    log = []
    for name in ("compile_plans", "hill_climb_tokenized"):
        monkeypatch.setattr(cp, name, _recording(log, name, getattr(cp, name)))
    crossval_supervised(lex, corpus, k=k, reps=reps, base_seed=base_seed)
    # The run compiles its texts' plans once and every fold climbs on those
    # shared plans: map each back to its text.
    (_, _, compiled), *climbs = log
    text_of = {id(plan): ex.id for ex, plan in zip(corpus, compiled)}
    assert len(climbs) == reps * k
    for rep in range(reps):
        fold_of = make_folds(corpus, k, base_seed * 1_000_003 + rep)
        seen = set()
        for fold in range(k):
            name, (_, plans, examples, cfg), _ = climbs[rep * k + fold]
            held = {ex.id for ex, f in zip(corpus, fold_of) if f == fold}
            assert name == "hill_climb_tokenized"
            assert [text_of[id(p)] for p in plans] == [ex.id for ex in examples] == \
                [ex.id for ex in corpus if ex.id not in held]
            assert cfg.seed == (base_seed * 1_000_003 + rep) * 101 + fold
            assert not held & seen
            seen |= held
        assert seen == {ex.id for ex in corpus}


def test_crossval_scores_each_text_once(monkeypatch):
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=100, seed=15)
    perturbed = set_strength(lex, Kind.STRESS, "strainword1", 1)
    calls, climbs = [], []
    for module, name in ((optimizer, "score_text"), (scorer, "score_tokenized"),
                         (lexicon, "set_strength"), (lexicon, "set_strengths")):
        monkeypatch.setattr(module, name, _recording(calls, name, getattr(module, name)))
    monkeypatch.setattr(cp, "hill_climb_tokenized", _recording(climbs, "climb", cp.hill_climb_tokenized))
    crossval_supervised(perturbed, corpus, k=5, reps=2, base_seed=3)
    assert len(climbs) == 10 and any(report.changes_made for _, _, (_, report) in climbs)
    assert Counter(name for name, _, _ in calls) == {"score_text": len(corpus),
                                                     "score_tokenized": len(corpus)}


def test_crossval_compiles_each_plan_once(monkeypatch):
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=40, seed=16)
    perturbed = set_strength(lex, Kind.STRESS, "strainword1", 1)
    compiled = Counter()

    def counted(trace, ids):
        compiled[id(trace)] += 1
        return compile_plan(trace, ids)

    compile_plan = optimizer.compile_plan
    monkeypatch.setattr(optimizer, "compile_plan", counted)
    crossval_supervised(perturbed, corpus, k=5, reps=2, base_seed=3)
    assert len(compiled) == len(corpus) and set(compiled.values()) == {1}
    # The unsupervised paths read the first scoring's traces and compile nothing.
    compiled.clear()
    evaluate_lexicon(perturbed, corpus)
    crossval_supervised(perturbed, corpus, k=5, reps=2, base_seed=3, supervised=False)
    assert not compiled


@pytest.mark.parametrize("k, reps, edit, error", [(1, 1, None, TooSmall), (2, 0, None, TooSmall),
                                                  (400, 1, None, TooSmall), (2, 1, "duplicate", ParseError),
                                                  (2, 1, "empty", EmptyCorpus)])
def test_fold_arguments_are_checked_before_any_text_is_read(monkeypatch, k, reps, edit, error):
    lex = make_reference_lexicon()
    corpus = make_synthetic_corpus(lex, n_texts=30, seed=18)
    if edit == "duplicate":
        corpus[7] = make_example(corpus[3].id, "s", "late", (-2,), (1,))
    elif edit == "empty":
        corpus = []

    def unreached(*args):
        raise AssertionError("setup ran before the fold arguments were checked")

    monkeypatch.setattr(cp, "tokenize_corpus", unreached)
    monkeypatch.setattr(bl, "extract_features", unreached)
    with pytest.raises(error):
        crossval_supervised(lex, corpus, k=k, reps=reps)
    with pytest.raises(error):
        bl.sweep(corpus, "stress", k=k, reps=reps)
