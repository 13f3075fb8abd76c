import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from tensilex import textproc
from tensilex.scorer import score_text
from tensilex.textproc import (
    URL_TOKEN,
    Token,
    correct_spelling,
    process,
    segment_sentences,
    tokenize,
)

from .conftest import make_reference_lexicon
from .oracles import correct_spelling_bruteforce, process_composed, segment_masked


def test_segment_two_sentences():
    assert segment_sentences("I am late! The bus left.") == ["I am late!", "The bus left."]


def test_segment_no_terminator_is_one_sentence():
    assert segment_sentences("Almost home and the train is delayed") == [
        "Almost home and the train is delayed"]


def test_segment_empty():
    assert segment_sentences("") == []


def test_segment_newlines_and_ellipsis():
    assert segment_sentences("first line\nsecond line") == ["first line", "second line"]
    assert segment_sentences("wait... what") == ["wait...", "what"]


def test_tokenize_punct_run_kept_whole():
    tokens = tokenize("so stressed!!!")
    assert [t.raw for t in tokens] == ["so", "stressed", "!!!"]
    assert tokens[2].is_punct_run and not tokens[0].is_punct_run


def test_tokenize_plain_words():
    assert [t.raw for t in tokenize("never trust a man")] == ["never", "trust", "a", "man"]


def test_tokenize_emoticons_are_punct_runs():
    tokens = tokenize(":) :(")
    assert [t.raw for t in tokens] == [":)", ":("]
    assert all(t.is_punct_run for t in tokens)


def test_tokenize_apostrophe_does_not_split():
    assert [t.raw for t in tokenize("don't panic")] == ["don't", "panic"]


def test_segment_keeps_urls_whole():
    assert segment_sentences("see www.x.com/a?b=c. so late!") == ["see www.x.com/a?b=c.", "so late!"]
    assert segment_sentences("HTTP://t.co/x!! ok") == ["HTTP://t.co/x!!", "ok"]
    assert segment_sentences("a.www.x b") == ["a.", "www.", "x b"]  # not a URL chunk
    assert segment_sentences("see www.x.com. so late!") == ["see www.x.com.", "so late!"]
    assert segment_sentences("late http://t.co/x again!") == ["late http://t.co/x again!"]


def test_tokenize_url_and_hashtag():
    tokens = tokenize("see http://x.com #Fuming @Bob")
    assert [t.normalized for t in tokens] == ["see", URL_TOKEN, "#fuming", "@bob"]


def test_tokenize_splits_terminators_off_a_url():
    assert [t.normalized for t in tokenize("so late www.x.com!")] == ["so", "late", URL_TOKEN, "!"]
    tokens = tokenize("see HTTP://t.co/x?!. ok")
    assert [(t.raw, t.normalized, t.is_punct_run) for t in tokens[1:3]] == [
        ("HTTP://t.co/x", URL_TOKEN, False), ("?!.", "?!.", True)]


def test_glued_url_prefix_is_no_url():
    # URL-ness is decided once per whitespace chunk: these chunks start "again." and "a.".
    assert segment_sentences("Late again.http://t.co/abc") == ["Late again.", "http://t.", "co/abc"]
    doc = process("Late again.http://t.co/abc", frozenset())
    assert [[t.raw for t in sentence] for sentence in doc.sentences] == [
        ["Late", "again", "."], ["http", "://", "t", "."], ["co", "/", "abc"]]
    assert [t.raw for t in tokenize("a.www.x")] == ["a", ".", "www", ".", "x"]
    assert URL_TOKEN not in [t.normalized for t in tokenize("so late.www.x.com!")]


def test_tokenize_splits_a_run_after_its_terminators():
    # Where a sentence would end, so each sentence's tokens are the text's tokens.
    assert [t.raw for t in tokenize("a?:b")] == ["a", "?", ":", "b"]
    assert segment_sentences("a?:b") == ["a?", ":b"]
    assert [t.raw for t in tokenize(":).:( ok")] == [":).", ":(", "ok"]


def test_tokenize_never_merges_whitespace_chunks():
    tokens = tokenize("a! b")
    assert [t.raw for t in tokens] == ["a", "!", "b"]


def test_correct_spelling_paper_example():
    assert correct_spelling("wooorried", {"worried"}) == ("worried", 2)


def test_correct_spelling_identity():
    assert correct_spelling("worried", {"worried"}) == ("worried", 0)


def test_correct_spelling_two_stage_collapse():
    # brute-force enumeration of collapse sequences confirms "hello" is the
    # only recognised word reachable from "helllooo"
    assert correct_spelling("helllooo", {"hello"}) == ("hello", 3)


def test_correct_spelling_unreachable_keeps_two_cap():
    assert correct_spelling("zzzzz", set()) == ("zz", 3)


def test_correct_spelling_left_to_right_preference():
    # both single collapses recognised: the leftmost run collapses first
    assert correct_spelling("aabb", {"abb", "aab"}) == ("abb", 1)


def test_token_contract():
    token = Token("Sooo", "so", 2, False)
    assert repr(token) == "Token(raw='Sooo', normalized='so', letters_removed=2, is_punct_run=False)"
    assert repr(Token("!!", "!!", 0, True)) == "Token(raw='!!', normalized='!!', letters_removed=0, is_punct_run=True)"
    assert token == Token("Sooo", "so", 2, False) and hash(token) == hash(Token("Sooo", "so", 2, False))
    assert len({token, Token("Sooo", "so", 2, False)}) == 1
    assert token == ("Sooo", "so", 2, False)  # a token is a tuple of its fields
    with pytest.raises(AttributeError):
        token.normalized = "sooo"
    plain = Token("late", "late")
    assert (plain.letters_removed, plain.is_punct_run) == (0, False)
    assert process("sooo late!", {"so", "late"}).sentences == (
        (Token("sooo", "so", 2, False), Token("late", "late", 0, False), Token("!", "!", 0, True)),)


def test_process_paper_example_two():
    doc = process("Fell asleep and messed my hair up", {"fell", "asleep", "and",
                                                        "messed", "my", "hair", "up"})
    assert len(doc.sentences) == 1
    assert len(doc.sentences[0]) == 7
    assert all(t.letters_removed == 0 for t in doc.sentences[0])


def test_process_repeat_letters_counted():
    doc = process("sooo stressssed!!", {"so", "stressed"})
    tokens = doc.sentences[0]
    by_norm = {t.normalized: t for t in tokens}
    assert by_norm["stressed"].letters_removed >= 2
    assert by_norm["so"].letters_removed == 2
    assert by_norm["!!"].is_punct_run


def test_process_empty():
    assert process("", set()).sentences == ()


def test_process_hashtags_not_spell_corrected():
    doc = process("#worrried", {"worried"})
    token = doc.sentences[0][0]
    assert token.normalized == "#worrried" and token.letters_removed == 0


def test_correct_spelling_fewest_collapses_before_leftmost():
    # one collapse at the right beats two at the left
    assert correct_spelling("aabbcc", {"abcc", "aabbc"}) == ("aabbc", 1)


def test_correct_spelling_newline_is_no_run():
    # the run pattern does not see newlines, so they are neither capped nor collapsed
    assert correct_spelling("a\n\n\nbb", {"a\n\n\nb"}) == ("a\n\n\nb", 1)


@st.composite
def _run_tokens(draw):
    """A token of up to 10 runs, with recognised words that shorten its runs
    (reachable from it) or redraw them at up to three letters (mostly not)."""
    runs = []
    for ch, n in draw(st.lists(st.tuples(st.sampled_from("abcB\n"), st.integers(1, 4)), min_size=1, max_size=10)):
        if not runs or runs[-1][0] != ch.lower():  # adjacent runs of one letter would merge
            runs.append((ch.lower(), n))
    raw = "".join(ch.upper() if draw(st.booleans()) else ch for ch, n in runs for _ in range(n))
    # A newline run is never capped or collapsed, so a reachable word keeps it whole.
    cut = [[ch * (n if ch == "\n" else draw(st.integers(1, min(n, 2)))) for ch, n in runs]
           for _ in range(draw(st.integers(1, 4)))]
    grown = [[ch * draw(st.sampled_from((1, 2, 2, 3))) for ch, _ in runs] for _ in range(draw(st.integers(0, 3)))]
    recognised = {"".join(word) for word in cut + grown}
    recognised.update(draw(st.lists(st.text("abc", min_size=1, max_size=6), max_size=3)))
    return raw, recognised


@settings(max_examples=500, deadline=None)
@given(_run_tokens())
def test_correct_spelling_matches_subset_search(case):
    raw, recognised = case
    assert correct_spelling(raw, recognised) == correct_spelling_bruteforce(raw, recognised)


def test_correct_spelling_many_runs_is_fast():
    # 140 runs: the subset search would try up to 2**140 collapse sets
    runs = "ab" * 70
    raw = "".join(ch * 3 for ch in runs)
    last_cut = "".join(ch * 2 for ch in runs[:-1]) + runs[-1]
    recognised = frozenset({runs, last_cut, "ab"})
    start = time.perf_counter()
    result = correct_spelling(raw, recognised)
    elapsed = time.perf_counter() - start
    assert result == (last_cut, 141)
    assert elapsed < 0.1


WORDS = st.text(alphabet="abcdefgh", min_size=1, max_size=8)


@given(WORDS, st.frozensets(WORDS, max_size=10))
def test_correct_spelling_idempotent(raw, recognised):
    normalized, _ = correct_spelling(raw, recognised)
    again, removed = correct_spelling(normalized, recognised)
    assert again == normalized and removed == 0


@given(st.text(max_size=120))
def test_process_deterministic_and_total(text):
    recognised = {"hello", "worried"}
    first = process(text, recognised)
    assert first == process(text, recognised)
    for sentence in first.sentences:
        for token in sentence:
            if not token.is_punct_run and token.normalized != URL_TOKEN:
                assert token.letters_removed == len(token.raw.lower()) - len(token.normalized)


@given(st.lists(st.text(alphabet="abc!?.", min_size=1, max_size=5), min_size=1, max_size=8))
def test_tokens_never_cross_chunks(chunks):
    sentence = " ".join(chunks)
    for token in tokenize(sentence):
        assert " " not in token.raw
        assert any(token.raw in chunk for chunk in chunks)


def test_process_same_for_set_and_frozenset():
    words = {"so", "stressed", "hello", "worried", "aab", "abb"}
    text = "Sooo stressssed!!! HELLLOOO #wooorried aaabbb. worrried www.x.com!"
    assert process(text, set(words)) == process(text, frozenset(words))


_FRAGMENTS = st.one_of(
    st.sampled_from(("http://t.co/Ab!", "HTTPS://x.io/a.b.", "www.X.com!!", "www.y.org/?q=1.",
                     "#Sooo", "#calm", "@Bob", "@Wooorried!", "wooorried", "WORRIED", "Helllooo",
                     "soo", "sooo", "aabb", "aaabbb", "don't", "!!!", "?!", "...", ":)", ":-(",
                     "::", "a!", "b?c", "\n")),
    st.text(alphabet="abAB!?.:#@' ", min_size=1, max_size=6),
    st.text(alphabet=".!?", min_size=1, max_size=5))


# Recognised words the walk may meet: upper case, runs of three or more,
# hashtags, mentions and apostrophes among them.
_WORDS = st.one_of(
    st.sampled_from(("so", "worried", "hello", "helo", "ab", "aab", "abb", "calm", "Hello",
                     "WORRIED", "sooo", "Sooo", "helllooo", "aaabbb", "#calm", "#sooo", "#Sooo",
                     "@bob", "@Bob", "don't", "Don't", "b'")),
    st.text(alphabet="abAB#@'", min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FRAGMENTS, st.sampled_from(("", " ", "  "))), max_size=12),
       st.frozensets(_WORDS, max_size=8))
def test_process_matches_tokenize_then_correct(fragments, recognised):
    # Fragments joined with no space merge into one chunk: URLs then run on.
    text = "".join(fragment + gap for fragment, gap in fragments)
    assert process(text, recognised) == process_composed(text, recognised)
    assert process(text, set(recognised)) == process_composed(text, recognised)
    # A shared token is the one correction would build for its word.
    for word, token in textproc._corrector(recognised).shared.items():
        assert token == Token(word, *correct_spelling(word, recognised), False)


def test_a_recognised_word_is_one_shared_token():
    words = frozenset({"late", "so", "bus", "Calm", "sooo", "#calm"})
    first, = process("So late #calm!", words).sentences
    second, = process("the bus is late #calm", words).sentences
    assert first[1] is second[3] and first[2] is second[4]
    assert first[1] == Token("late", "late", 0, False)
    # Only words that correction maps to themselves unchanged are shared.
    assert sorted(textproc._corrector(words).shared) == ["#calm", "bus", "late", "so"]


def test_the_shared_tokens_do_not_grow_with_the_texts():
    lex = make_reference_lexicon()
    shared = textproc._corrector(lex.recognised_words).shared
    size = len(shared)
    for n in range(200):
        score_text(f"Unheard{n} wooords today x{n}y LATE strainword1 #tag{n} @who{n}", lex)
    assert len(shared) == size


def test_short_terminator_runs_are_shared_tokens():
    runs = {"".join(run) for n in (1, 2, 3) for run in itertools.product(".!?", repeat=n)}
    assert len(runs) == 39 and set(textproc._TERMINATORS) == runs
    for run, token in textproc._TERMINATORS.items():
        assert type(token) is Token and token == Token(run, run, 0, True)
    words = frozenset({"late", "so"})
    for run in (".", "!!!", "?!"):
        found = [token for text in (f"So late{run}", f"bus {run} late {run}")
                 for tokens in (*process(text, words).sentences, tokenize(text))
                 for token in tokens if token.raw == run]
        assert len(found) == 6 and all(token is textproc._TERMINATORS[run] for token in found)


def test_other_punctuation_runs_are_built_per_text():
    words = frozenset({"late"})
    for run in ("!!!!", ":)"):
        texts = (f"late {run}", f"x {run}")
        from_process = [process(text, words).sentences[-1][-1] for text in texts]
        from_tokenize = [tokenize(text)[-1] for text in texts]
        for first, second in (from_process, from_tokenize):
            assert first == second == Token(run, run, 0, True) and first is not second


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=60),
                 st.lists(_FRAGMENTS, max_size=12).map(" ".join)),
       st.frozensets(st.sampled_from(("so", "worried", "hello", "helo", "ab", "aab", "calm")),
                     max_size=4))
def test_every_token_is_a_token(text, recognised):
    # The walk builds tokens as plain tuples; each must still be a Token.
    tokens = [t for sentence in process(text, recognised).sentences for t in sentence]
    for token in tokens + tokenize(text):
        assert type(token) is Token
        assert [type(field) for field in token] == [str, str, int, bool]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FRAGMENTS, st.sampled_from(("", " ", "  "))), max_size=12))
def test_segment_matches_masked_segmenter(fragments):
    text = "".join(fragment + gap for fragment, gap in fragments)
    assert segment_sentences(text) == segment_masked(text)


_LONG_LINES = {
    "colons": ":" * 100_000,
    "www-dots": "www." + "." * 99_996,
    "dot-colon": ".:" * 50_000,
    "long-url": "http://" + "a.b/?" * 19_998 + "!",
    "glued-www": "a.www.x" * 14_285,
    "glued-http": "again.http://t.co/x" * 5_263,
}


@pytest.mark.parametrize("name", sorted(_LONG_LINES))
def test_process_is_linear_on_long_lines(name):
    # About 0.2 s at most on a 2-CPU machine; a walk that rescans would take minutes.
    start = time.perf_counter()
    process(_LONG_LINES[name], frozenset({"a", "x"}))
    assert time.perf_counter() - start < 2.0
