import random
import time
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from tensilex.lexicon import (
    BoosterEntry,
    EmoticonEntry,
    IdiomEntry,
    Kind,
    LexiconEntry,
    LexiconSet,
    load_lexicon_set,
    set_strength,
)
from tensilex.scorer import (
    DualScore,
    ScoreTrace,
    SentenceTrace,
    Source,
    TermContribution,
    explain,
    replay_trace,
    score_sentence,
    score_text,
)
from tensilex.textproc import Token, TokenizedText, process

from .conftest import DEFAULT_LEXICON
from .oracles import score_sentence_scan


def rich_lexicon():
    return LexiconSet(
        stress_terms=(LexiconEntry("delayed", Kind.STRESS, 3),
                      LexiconEntry("filthy", Kind.STRESS, 2),
                      LexiconEntry("worried", Kind.STRESS, 3),
                      LexiconEntry("stressed", Kind.STRESS, 3)),
        relax_terms=(LexiconEntry("asleep", Kind.RELAXATION, 4),
                     LexiconEntry("trust", Kind.RELAXATION, 2),
                     LexiconEntry("calm", Kind.RELAXATION, 3),
                     LexiconEntry("relaxed", Kind.RELAXATION, 3)),
        boosters=(BoosterEntry("very", 1), BoosterEntry("slightly", -1)),
        negators=frozenset({"never", "not", "no", "don't", "can't"}),
        idioms=(IdiomEntry(("over", "the", "moon"), Kind.RELAXATION, 4),
                IdiomEntry(("the", "moon"), Kind.STRESS, 5),
                IdiomEntry(("dead", "calm"), Kind.NEUTRAL, 1)),
        emoticons=(EmoticonEntry(":)", Kind.RELAXATION, 2),
                   EmoticonEntry(":(", Kind.STRESS, 2),
                   EmoticonEntry(":|", Kind.NEUTRAL, 1)),
        dictionary=frozenset("almost home and the train is i am a man with kitchen my hair up "
                             "fell messed over moon dead was very slightly so".split()),
    )


def score(text, lex=None):
    lex = lex or rich_lexicon()
    result, trace = score_text(text, lex)
    replay_trace(trace)
    return (result.stress, result.relaxation)


def test_worked_example_one():
    assert score("Almost home and the train is delayed") == (-3, 1)


def test_worked_example_two():
    assert score("Fell asleep and messed my hair up") == (-1, 4)


def test_worked_example_three():
    assert score("Never trust a man with a filthy kitchen") == (-2, 1)


def test_empty_tokens_baseline():
    result, trace = score_sentence((), rich_lexicon())
    assert (result.stress, result.relaxation) == (-1, 1)
    assert trace.contributions == ()


def test_multi_sentence_takes_extremes():
    # "delayed!" -> stress 3 boosted to 4 by the exclamation; calm gives relax 3
    assert score("I am calm. The train is delayed!") == (-4, 3)


def test_single_sentence_text_equals_sentence_score():
    lex = rich_lexicon()
    text = "the train is delayed"
    doc = process(text, lex.recognised_words)
    sent_score, _ = score_sentence(doc.sentences[0], lex)
    text_score, _ = score_text(text, lex)
    assert sent_score == text_score


def test_booster_strengthens():
    assert score("I am very worried") == (-4, 1)
    assert score("I am slightly worried") == (-2, 1)


def test_repeat_letters_boost():
    assert score("I am wooorried") == (-4, 1)
    # single extra letter is not enough
    assert score("I am worrried") == (-3, 1)


def test_negated_relax_becomes_stress():
    assert score("I am not relaxed") == (-3, 1)


def test_negated_boosted_relax_keeps_boost():
    # negation window allows one intervening booster
    assert score("I am not very relaxed") == (-4, 1)


def test_negated_stress_neutralised():
    assert score("I am not worried") == (-1, 1)


def test_exclamation_boost_only_above_baseline():
    assert score("so worried!!!") == (-4, 1)
    assert score("nothing here !!") == (-1, 1)  # no invented stress
    assert score("so worried???") == (-3, 1)  # question marks alone do not boost


def test_exclamation_boost_once_per_scale():
    assert score("worried!!! worried!!!") == (-4, 1)


def test_idiom_overrides_constituents():
    assert score("I am over the moon") == (-1, 4)


def test_idiom_longest_first():
    # "over the moon" (len 3, relax) wins over "the moon" (len 2, stress)
    assert score("over the moon") == (-1, 4)
    assert score("look at the moon") == (-5, 1)


def test_idiom_longest_first_whatever_the_spelling():
    # "moon rises" sorts before "the moon rises" by tokens, so only a
    # length-first order lets the longer idiom win.
    lex = LexiconSet((), (), (), frozenset(),
                     (IdiomEntry(("moon", "rises"), Kind.STRESS, 4),
                      IdiomEntry(("the", "moon", "rises"), Kind.RELAXATION, 3)),
                     (), frozenset("the moon rises".split()))
    assert score("the moon rises", lex) == (-1, 3)
    assert score("a moon rises", lex) == (-4, 1)


def test_neutral_idiom_masks_terms():
    assert score("dead calm") == (-1, 1)
    assert score("calm") == (-1, 3)


def test_emoticons():
    assert score("so happy :)") == (-1, 2)
    assert score("oh no :(") == (-2, 1)
    assert score(":|") == (-1, 1)


def test_url_never_matches():
    lex = rich_lexicon()
    lex2 = LexiconSet(lex.stress_terms + (LexiconEntry("<url>", Kind.STRESS, 5),),
                      lex.relax_terms, lex.boosters, lex.negators, lex.idioms,
                      lex.emoticons, lex.dictionary)
    assert score("see http://delayed.example", lex2) == (-1, 1)


def test_url_dots_do_not_split_sentences():
    lex = load_lexicon_set(DEFAULT_LEXICON)
    assert score("nice day www.delayed.com", lex) == (-1, 1)
    # The "!" boosts "late" only if the URL leaves the two in one sentence.
    assert score("late again!", lex) == (-3, 1)
    assert score("late http://t.co/x again!", lex) == (-3, 1)


def test_exclamation_after_url_still_boosts():
    lex = load_lexicon_set(DEFAULT_LEXICON)
    assert score("so late!", lex) == (-4, 1)
    assert score("so late www.x.com !", lex) == (-4, 1)
    assert score("so late www.x.com!", lex) == (-4, 1)


def test_trace_names_rules():
    lex = rich_lexicon()
    _, trace = score_text("Never trust a man with a filthy kitchen", lex)
    sources = {c.source for c in trace.sentences[0].contributions}
    assert Source.NEGATED_RELAX in sources and Source.STRESS_TERM in sources
    rendered = explain("Never trust a man with a filthy kitchen", lex)
    assert "negated-relax" in rendered and "stress-term" in rendered


def test_trace_records_are_frozen_slotted_and_hashable():
    lex = rich_lexicon()
    text = "very worried :("
    _, trace = score_text(text, lex)
    sentence = trace.sentences[0]
    records = (trace.score, sentence.contributions[0], sentence, trace,
               process(text, lex.recognised_words))
    assert [type(r) for r in records] == [DualScore, TermContribution, SentenceTrace, ScoreTrace,
                                          TokenizedText]
    _, again = score_text(text, lex)
    twins = (again.score, again.sentences[0].contributions[0], again.sentences[0], again,
             process(text, lex.recognised_words))
    for record, twin in zip(records, twins):
        assert not hasattr(record, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(record, fields(record)[0].name, None)
        assert record == twin and record is not twin and hash(record) == hash(twin)
    assert repr(trace) == (
        "ScoreTrace(sentences=(SentenceTrace(tokens=("
        "Token(raw='very', normalized='very', letters_removed=0, is_punct_run=False), "
        "Token(raw='worried', normalized='worried', letters_removed=0, is_punct_run=False), "
        "Token(raw=':(', normalized=':(', letters_removed=0, is_punct_run=True)), "
        "contributions=("
        "TermContribution(token_index=2, source=<Source.EMOTICON: 'emoticon'>, base_strength=2, "
        "booster_delta=0, repeat_boost=0, final_strength=2, scale=<Kind.STRESS: 'stress'>, "
        "label=':('), "
        "TermContribution(token_index=1, source=<Source.STRESS_TERM: 'stress-term'>, "
        "base_strength=3, booster_delta=1, repeat_boost=0, final_strength=4, "
        "scale=<Kind.STRESS: 'stress'>, label='worried')), "
        "exclamation_present=False, stress_boosted=False, relax_boosted=False, "
        "score=DualScore(stress=-4, relaxation=1)),), "
        "score=DualScore(stress=-4, relaxation=1))")


def test_explain_text_is_pinned():
    text = "I was never calm and very worried over the moon :( !!"
    assert explain(text, rich_lexicon()).split("\n") == [
        "text score: stress -5, relaxation 5",
        f"  sentence 1: {text!r} -> stress -5, relaxation 5",
        "    idiom 'over the moon' at token 7: base 4, -> 4 on relax",
        "    emoticon ':(' at token 10: base 2, -> 2 on stress",
        "    negated-relax 'calm' at token 3: base 3, -> 3 on stress",
        "    stress-term 'worried' at token 6: base 3, booster +1, -> 4 on stress",
        "    exclamation boost +1 on stress",
        "    exclamation boost +1 on relaxation",
    ]


def _with_first_sentence(trace, **changes):
    return replace(trace, sentences=(replace(trace.sentences[0], **changes),) + trace.sentences[1:])


def _other_score(score):
    return DualScore(-2 if score.stress == -1 else -1, score.relaxation)


def _tamper_contribution(trace):
    first, *rest = trace.sentences[0].contributions
    bad = replace(first, final_strength=first.final_strength % 5 + 1)
    return _with_first_sentence(trace, contributions=(bad, *rest))


# Each tampers with one thing replay_trace checks; the boost flags are set on
# a sentence read as holding no "!".
TAMPERS = {
    "contribution arithmetic": _tamper_contribution,
    "stress boost flag": lambda trace: _with_first_sentence(
        trace, exclamation_present=False, stress_boosted=True),
    "relaxation boost flag": lambda trace: _with_first_sentence(
        trace, exclamation_present=False, stress_boosted=False, relax_boosted=True),
    "sentence trace does not replay": lambda trace: _with_first_sentence(
        trace, score=_other_score(trace.sentences[0].score)),
    "text trace does not replay": lambda trace: replace(trace, score=_other_score(trace.score)),
}


@pytest.mark.parametrize("text", ["I was never calm and very worried over the moon :( !!",
                                  "so worried. calm now"])
@pytest.mark.parametrize("message", list(TAMPERS))
def test_replay_trace_rejects_a_tampered_trace(text, message):
    result, trace = score_text(text, rich_lexicon())
    assert replay_trace(trace) == result
    with pytest.raises(AssertionError, match=message):
        replay_trace(TAMPERS[message](trace))


def test_explain_exclamation_and_neutral():
    lex = rich_lexicon()
    assert "exclamation boost" in explain("so worried!!!", lex)
    neutral = explain("plain words here", lex)
    assert "no matches" in neutral and "stress -1" in neutral


def test_monotonicity_in_term_strength():
    lex = rich_lexicon()
    text = "the train is delayed"
    magnitudes = []
    for strength in range(1, 6):
        adjusted = set_strength(lex, Kind.STRESS, "delayed", strength)
        result, _ = score_text(text, adjusted)
        magnitudes.append(-result.stress)
    assert magnitudes == sorted(magnitudes)


def test_negation_inversion_property():
    lex = rich_lexicon()
    for pattern, strength in (("trust", 2), ("calm", 3), ("relaxed", 3)):
        plain, _ = score_text(pattern, lex)
        negated, _ = score_text(f"not {pattern}", lex)
        assert plain.relaxation == strength and plain.stress == -1
        assert negated.stress == -strength and negated.relaxation == 1


def test_sentence_permutation_invariance():
    lex = rich_lexicon()
    a, _ = score_text("I am calm. The train is delayed!", lex)
    b, _ = score_text("The train is delayed! I am calm.", lex)
    assert a == b


@settings(max_examples=300)
@given(st.text(max_size=200))
def test_ranges_and_replay_on_arbitrary_text(text):
    lex = rich_lexicon()
    result, trace = score_text(text, lex)
    assert -5 <= result.stress <= -1
    assert 1 <= result.relaxation <= 5
    assert replay_trace(trace) == result


def test_determinism():
    lex = rich_lexicon()
    text = "not very relaxed :( over the moon!!!"
    assert score_text(text, lex) == score_text(text, lex)


def test_dualscore_range_enforced():
    with pytest.raises(ValueError):
        DualScore(0, 1)
    with pytest.raises(ValueError):
        DualScore(-1, 6)


def test_contribution_scales_consistent():
    lex = rich_lexicon()
    _, trace = score_text("not relaxed and very worried :(", lex)
    for c in trace.sentences[0].contributions:
        assert c.scale in (Kind.STRESS, Kind.RELAXATION)
        assert 1 <= c.final_strength <= 5


# Words shared by lexicons and sentences, so idioms, terms, boosters and
# negators overlap; glyphs double as punctuation-run boosters and negators.
_WORDS = ("over", "the", "moon", "calm", "calmer", "worried", "very", "not")
_IDIOM_WORDS = ("over", "the", "moon", "calm", "worried", "<url>")
_GLYPHS = ("!", "!!", ":)", ":(", "?", ":|")
_STRENGTH = st.integers(1, 5)


@st.composite
def _idiom_phrases(draw):
    """Random phrases, plus windows of one longer phrase: prefixes that share
    its first token at different widths, and shifted windows that overlap them."""
    phrases = draw(st.lists(st.lists(st.sampled_from(_IDIOM_WORDS), min_size=2, max_size=3), max_size=5))
    long = draw(st.lists(st.sampled_from(_IDIOM_WORDS), min_size=2, max_size=4))
    windows = [long[i:j] for i in range(len(long)) for j in range(i + 2, len(long) + 1)]
    phrases += draw(st.lists(st.sampled_from(windows), max_size=4))
    return [tuple(p) for p in draw(st.permutations(phrases))]


@st.composite
def _glyph_lists(draw):
    """Random glyphs, some of them listed twice (the two entries may differ)."""
    glyphs = draw(st.lists(st.sampled_from(_GLYPHS), max_size=4))
    return glyphs + draw(st.lists(st.sampled_from(glyphs), max_size=2)) if glyphs else glyphs


@st.composite
def _sentence_cases(draw):
    """A random lexicon and a random token sequence to score under it."""
    patterns = st.lists(st.sampled_from(("calm", "calm*", "calme*", "worried", "wor*", "moon", "<url>")),
                        unique=True, min_size=1, max_size=4)
    lex = LexiconSet(
        tuple(LexiconEntry(p, Kind.STRESS, draw(_STRENGTH)) for p in draw(patterns)),
        tuple(LexiconEntry(p, Kind.RELAXATION, draw(_STRENGTH)) for p in draw(patterns)),
        tuple(BoosterEntry(w, draw(st.sampled_from((-2, -1, 1, 2))))
              for w in draw(st.lists(st.sampled_from(("very", "not", "!!", ":(")), min_size=1, unique=True))),
        frozenset(draw(st.lists(st.sampled_from(("not", "very", "!", ":(")), min_size=1))),
        tuple(IdiomEntry(phrase, draw(st.sampled_from(tuple(Kind))), draw(_STRENGTH))
              for phrase in draw(_idiom_phrases())),
        tuple(EmoticonEntry(glyph, draw(st.sampled_from(tuple(Kind))), draw(_STRENGTH))
              for glyph in draw(_glyph_lists())),
        frozenset())
    tokens = []
    for _ in range(draw(st.integers(0, 8))):
        removed = draw(st.integers(0, 3))
        form = draw(st.sampled_from(("word", "word", "word", "idiom", "punct", "punct", "url", "hashtag")))
        if form == "idiom" and lex.idioms:  # an idiom's words, to be matched or overlapped
            tokens.extend(Token(word, word, removed) for word in draw(st.sampled_from(lex.idioms)).tokens)
        elif form in ("word", "idiom"):  # a word, at times after a negator or booster or both
            for word in draw(st.lists(st.sampled_from(("not", "very", "!!", ":(")), max_size=2)):
                tokens.append(Token(word, word, is_punct_run=not word.isalpha()))
            word = draw(st.sampled_from(_WORDS))
            tokens.append(Token(word.upper(), word, removed))
        elif form == "punct":
            tokens.append(Token(draw(st.sampled_from(_GLYPHS)), draw(st.sampled_from(_GLYPHS)), removed,
                                is_punct_run=True))
        elif form == "url":
            tokens.append(Token("http://t.co/x", "<url>", removed))
        else:
            tokens.append(Token("#Calm", "#calm", removed))
    return lex, tokens


@settings(max_examples=300, deadline=None)
@given(_sentence_cases())
def test_score_sentence_matches_token_scan(case):
    lex, tokens = case
    assert score_sentence(tokens, lex) == score_sentence_scan(tokens, lex)


def _fastest_passes(texts, base, grown, repeats=7, rounds=3):
    """The least CPU time of ``repeats`` passes under ``base`` and under
    ``grown``, a pass scoring ``texts`` ``rounds`` times. The two sides'
    rounds alternate, so a slowdown of a shared host that starts or ends
    part-way falls on both sides alike; the fastest pass is the least
    disturbed."""
    def seconds(lex):
        recognised = lex.recognised_words
        start = time.process_time()
        for text in texts:
            score_text(text, lex, recognised)
        return time.process_time() - start

    seconds(base), seconds(grown)  # compile both sets' tables
    passes = []
    for _ in range(repeats):
        timed = [(seconds(base), seconds(grown)) for _ in range(rounds)]
        passes.append((sum(b for b, _ in timed), sum(g for _, g in timed)))
    return min(b for b, _ in passes), min(g for _, g in passes)


def test_scoring_time_flat_in_idiom_and_emoticon_count():
    # A stream-sized setting: 3,000 terms over a 7,000-word dictionary and 200
    # texts with emoticons, "!" runs and elongated words, scored under the
    # default idioms and emoticons and under 3,000 more idioms (random
    # dictionary-word phrases) and 300 more emoticons (punctuation glyphs).
    rng = random.Random(14)
    words = set()
    while len(words) < 7000:
        words.add("".join(rng.choice("bcdfghklmnprstvz") + rng.choice("aeiou")
                          for _ in range(rng.randint(2, 4))))
    words = sorted(words)
    default = load_lexicon_set(DEFAULT_LEXICON)
    terms = rng.sample(words, 3000)
    base = LexiconSet(
        tuple(LexiconEntry(w + "*" * (i % 5 == 0), Kind.STRESS, 1 + i % 5) for i, w in enumerate(terms[:1500])),
        tuple(LexiconEntry(w, Kind.RELAXATION, 1 + i % 5) for i, w in enumerate(terms[1500:])),
        default.boosters, default.negators, default.idioms, default.emoticons,
        frozenset(words) | default.dictionary)
    grown = LexiconSet(
        base.stress_terms, base.relax_terms, base.boosters, base.negators,
        base.idioms + tuple(IdiomEntry(tuple(rng.sample(words, rng.randint(2, 4))), Kind.STRESS, 3)
                            for _ in range(3000)),
        base.emoticons + tuple(EmoticonEntry("".join(rng.choices(":;-()[]/|<>^=*", k=rng.randint(2, 4))),
                                             Kind.RELAXATION, 2) for _ in range(300)),
        base.dictionary)
    glyphs = [e.glyph for e in default.emoticons] + ["!", "!!!", "?"]
    texts = []
    for _ in range(200):
        sentences = []
        for _ in range(rng.randint(1, 3)):
            tokens = rng.choices(words, k=rng.randint(5, 12))
            tokens[0] = tokens[0][0] + tokens[0][0] * rng.randint(0, 3) + tokens[0][1:]
            sentences.append(" ".join(tokens + rng.choices(glyphs, k=rng.randint(0, 2))))
        texts.append(". ".join(sentences))
    base_s, grown_s = _fastest_passes(texts, base, grown)
    assert grown_s <= 1.5 * base_s


def test_scoring_time_flat_in_term_count():
    # 200 texts scored under 50 terms, and under the same 50 plus 2,950 terms
    # that never match: their letters never start or spell a text word. Every
    # fifth term is a wildcard; the extra stems have lengths 3 to 8, so the
    # grown set probes more stem lengths. Both sets share one dictionary.
    rng = random.Random(15)

    def word(consonants):
        return "".join(rng.choice(consonants) + rng.choice("aeiou") for _ in range(rng.randint(2, 4)))

    vocabulary = sorted({word("bcdfghklmnprstvz") for _ in range(3000)})
    matched = rng.sample(vocabulary, 50)
    extra = []
    while len(extra) < 2950:
        pattern = word("jqwxy")
        if len(extra) % 5 == 0:
            pattern = pattern[:rng.randint(3, min(8, len(pattern)))] + "*"
        if pattern not in extra:
            extra.append(pattern)
    default = load_lexicon_set(DEFAULT_LEXICON)

    def entries(patterns, kind, wildcards):
        return tuple(LexiconEntry(p + "*" * (wildcards and i % 5 == 0), kind, 1 + i % 5)
                     for i, p in enumerate(patterns))

    base = LexiconSet(entries(matched[:25], Kind.STRESS, True), entries(matched[25:], Kind.RELAXATION, True),
                      default.boosters, default.negators, default.idioms, default.emoticons,
                      frozenset(vocabulary) | default.dictionary)
    grown = LexiconSet(base.stress_terms + entries(extra[:1475], Kind.STRESS, False),
                       base.relax_terms + entries(extra[1475:], Kind.RELAXATION, False),
                       base.boosters, base.negators, base.idioms, base.emoticons, base.dictionary)
    texts = []
    for _ in range(200):
        sentences = []
        for _ in range(rng.randint(1, 3)):
            tokens = rng.choices(vocabulary, k=rng.randint(5, 12)) + rng.sample(matched, 2)
            rng.shuffle(tokens)
            tokens[0] = tokens[0][0] + tokens[0][0] * rng.randint(0, 3) + tokens[0][1:]
            sentences.append(" ".join(tokens) + rng.choice(("", " !", " !!!")))
        texts.append(". ".join(sentences))
    assert [score_text(t, base)[0] for t in texts] == [score_text(t, grown)[0] for t in texts]
    base_s, grown_s = _fastest_passes(texts, base, grown)
    assert grown_s <= 1.5 * base_s


def test_scoring_time_linear_in_emoticons_between_terms():
    # One 160,000-token sentence with its 80,000 emoticons between its 80,000
    # term matches, or all before them. Both give the same contributions,
    # emoticons' first, so the interleaved line is as fast only if an
    # emoticon costs no more when term matches precede it.
    lex = load_lexicon_set(DEFAULT_LEXICON)
    interleaved, emoticons_first = "late :( " * 80000, ":( " * 80000 + "late " * 80000
    traces = {}

    def seconds(text):
        start = time.process_time()
        traces[text] = score_text(text, lex)[1]
        return time.process_time() - start

    timed = [(seconds(interleaved), seconds(emoticons_first)) for _ in range(2)]
    sources = [[c.source for c in traces[text].sentences[0].contributions]
               for text in (interleaved, emoticons_first)]
    assert sources[0] == sources[1] == [Source.EMOTICON] * 80000 + [Source.STRESS_TERM] * 80000
    assert min(t for t, _ in timed) <= 1.5 * min(f for _, f in timed)
