import os
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from tensilex import errors, lexicon
from tensilex.corpus import load_corpus
from tensilex.lexicon import (
    EMPTY_LEXICON,
    BoosterEntry,
    EmoticonEntry,
    IdiomEntry,
    Kind,
    LexiconEntry,
    LexiconSet,
    TermIndex,
    load_lexicon_set,
    lookup,
    save_lexicon_set,
    set_strength,
    set_strengths,
)
from tensilex.scorer import score_text

from .oracles import data_lines_linewise, lookup_linear_scan

FILES = ("stress_terms.tsv", "relax_terms.tsv", "boosters.tsv", "negators.txt",
         "idioms.tsv", "emoticons.tsv", "dictionary.txt")


def write_dir(tmp_path, **contents):
    d = tmp_path / "lex"
    d.mkdir(exist_ok=True)
    for name in FILES:
        (d / name).write_text(contents.get(name, ""), encoding="utf-8")
    return str(d)


def test_load_simple_stress_term(tmp_path):
    d = write_dir(tmp_path, **{"stress_terms.tsv": "delayed\t3\n"})
    lex = load_lexicon_set(d)
    entry, strength = lookup("delayed", lex.stress_terms)
    assert strength == 3 and entry.pattern == "delayed"


def test_load_all_empty(tmp_path):
    lex = load_lexicon_set(write_dir(tmp_path))
    assert lex == EMPTY_LEXICON


def test_missing_file(tmp_path):
    d = write_dir(tmp_path)
    os.remove(os.path.join(d, "boosters.tsv"))
    with pytest.raises(errors.MissingResource):
        load_lexicon_set(d)


def test_duplicate_pattern_names_line(tmp_path):
    d = write_dir(tmp_path, **{"stress_terms.tsv": "worr*\t4\nworr*\t4\n"})
    with pytest.raises(errors.DuplicateTerm) as exc:
        load_lexicon_set(d)
    assert exc.value.line == 2


def test_strength_out_of_range(tmp_path):
    d = write_dir(tmp_path, **{"relax_terms.tsv": "calm\t3\nchill\t6\n"})
    with pytest.raises(errors.ParseError) as exc:
        load_lexicon_set(d)
    assert exc.value.line == 2


def test_wrong_column_count(tmp_path):
    d = write_dir(tmp_path, **{"stress_terms.tsv": "delayed\t3\textra\n"})
    with pytest.raises(errors.ParseError) as exc:
        load_lexicon_set(d)
    assert exc.value.line == 1


def test_emoticon_row_error_names_line(tmp_path):
    d = write_dir(tmp_path, **{"emoticons.tsv": ":)\trelax\t2\n\tstress\t3\n"})
    with pytest.raises(errors.ParseError) as exc:
        load_lexicon_set(d)
    assert exc.value.line == 2
    assert "empty emoticon glyph" in str(exc.value)


@pytest.mark.parametrize("token", ["!!", "so!!", "fed-up", ":)", "two words", ""])
def test_idiom_rejects_tokens_that_never_match(token):
    # Idioms match word tokens only; these tokenize as punctuation or as two tokens.
    with pytest.raises(errors.ParseError, match=re.escape(repr(token))):
        IdiomEntry(("so", token), Kind.STRESS, 3)


@pytest.mark.parametrize("tokens", [("#fed", "up"), ("fed", "don't"), ("<url>", "again")])
def test_idiom_accepts_word_tokens(tokens):
    assert IdiomEntry(tokens, Kind.STRESS, 3).tokens == tokens


def test_idiom_row_error_names_line(tmp_path):
    d = write_dir(tmp_path, **{"idioms.tsv": "fed up\tstress\t3\nso !!\tstress\t4\n"})
    with pytest.raises(errors.ParseError) as exc:
        load_lexicon_set(d)
    assert exc.value.line == 2
    assert "'!!'" in str(exc.value)


def test_non_integer_strength_names_line(tmp_path):
    d = write_dir(tmp_path, **{"stress_terms.tsv": "late\t2\ndelayed\tthree\n"})
    with pytest.raises(errors.ParseError, match="strength is not an integer: 'three'") as exc:
        load_lexicon_set(d)
    assert exc.value.line == 2


def test_unknown_kind_names_line(tmp_path):
    d = write_dir(tmp_path, **{"idioms.tsv": "fed up\tstress\t3\n# note\nat ease\tcalm\t2\n"})
    with pytest.raises(errors.ParseError, match="unknown kind 'calm'") as exc:
        load_lexicon_set(d)
    assert exc.value.line == 3


def test_comments_and_blanks_skipped(tmp_path):
    d = write_dir(tmp_path, **{"stress_terms.tsv": "# comment\n\ndelayed\t3\n"})
    assert len(load_lexicon_set(d).stress_terms) == 1


def test_full_directory_loads(tmp_path):
    d = write_dir(tmp_path, **{
        "stress_terms.tsv": "delayed\t3\nworr*\t4\n",
        "relax_terms.tsv": "calm\t3\n",
        "boosters.tsv": "very\t1\nslightly\t-1\n",
        "negators.txt": "not\nnever\n",
        "idioms.tsv": "over the moon\trelax\t4\n",
        "emoticons.tsv": ":)\trelax\t2\n:(\tstress\t2\n:|\tneutral\t1\n",
        "dictionary.txt": "delayed\ncalm\nvery\n",
    })
    lex = load_lexicon_set(d)
    assert lex.booster_deltas == {"very": 1, "slightly": -1}
    assert "never" in lex.negators
    assert lex.idioms[0].tokens == ("over", "the", "moon")
    assert {e.glyph for e in lex.emoticons} == {":)", ":(", ":|"}


def test_lookup_exact_beats_wildcard():
    entries = (LexiconEntry("worr*", Kind.STRESS, 4), LexiconEntry("worried", Kind.STRESS, 3))
    entry, strength = lookup("worried", entries)
    assert (entry.pattern, strength) == ("worried", 3)


def test_lookup_longest_wildcard_stem_wins():
    entries = (LexiconEntry("worr*", Kind.STRESS, 4), LexiconEntry("worri*", Kind.STRESS, 2))
    entry, _ = lookup("worriedly", entries)
    assert entry.pattern == "worri*"


def test_lookup_no_match():
    assert lookup("zzz", (LexiconEntry("delayed", Kind.STRESS, 3),)) is None


_STEMS = st.text(alphabet="abc", min_size=1, max_size=4)
_TERM_LISTS = st.lists(
    st.builds(LexiconEntry, st.tuples(_STEMS, st.booleans()).map(lambda t: t[0] + "*" * t[1]),
              st.just(Kind.STRESS), st.integers(1, 5)),
    max_size=12)


@given(_TERM_LISTS, st.data())
def test_lookup_matches_linear_scan(entries, data):
    # Small alphabets make wildcard stems overlap and exact patterns share
    # stems; tokens are drawn both freely and from the stems themselves.
    stems = [e.pattern.rstrip("*") for e in entries]
    tokens = data.draw(st.lists(
        st.text(alphabet="abc", max_size=6) | (st.sampled_from(stems) if stems else st.nothing()),
        min_size=1, max_size=8))
    for token in tokens:
        assert lookup(token, entries) == lookup_linear_scan(token, entries)
    if len({e.pattern for e in entries}) == len(entries):  # a LexiconSet rejects duplicates
        lex = LexiconSet(tuple(entries), (), (), frozenset(), (), (), frozenset())
        for token in tokens:
            expected = lookup_linear_scan(token, entries)
            assert lex.term_index(Kind.STRESS).lookup(token) == ((expected[0],) if expected else ())


_PATTERNS = st.tuples(_STEMS, st.booleans()).map(lambda t: t[0] + "*" * t[1])


@given(st.lists(_PATTERNS, max_size=10), st.lists(_PATTERNS, max_size=10), st.data())
def test_two_list_lookup_matches_linear_scan_on_each_list(stress, relax, data):
    # Free draws over a small alphabet, plus three planted cases: a pattern in
    # both lists, a word exact in one list and under a wildcard of the other,
    # and stems of different lengths, one in each list, both prefixing a word.
    shared, stem = data.draw(_PATTERNS), data.draw(_STEMS)
    word = stem + data.draw(st.text("abc", max_size=2))
    longer = stem + data.draw(st.text("abc", min_size=1, max_size=2))
    first, second = data.draw(st.permutations([Kind.STRESS, Kind.RELAXATION]))
    lists = {Kind.STRESS: [LexiconEntry(p, Kind.STRESS, 1 + i % 5) for i, p in enumerate(stress)],
             Kind.RELAXATION: [LexiconEntry(p, Kind.RELAXATION, 1 + i % 5) for i, p in enumerate(relax)]}
    for kind, pattern in ((first, shared), (second, shared), (first, word), (second, stem + "*"),
                          (first, longer + "*")):
        lists[kind].append(LexiconEntry(pattern, kind, 3))
    # The second list also holds patterns over a partly overlapping alphabet, so
    # that some keys of each list share no head with the other list's stems.
    for pattern in data.draw(st.lists(st.tuples(st.text("cde", min_size=1, max_size=4), st.booleans())
                                      .map(lambda t: t[0] + "*" * t[1]), max_size=6)):
        lists[second].append(LexiconEntry(pattern, second, 2))
    tokens = data.draw(st.lists(st.text(alphabet="abcde", max_size=6), max_size=8))
    tokens += [e.pattern.rstrip("*") for e in lists[Kind.STRESS] + lists[Kind.RELAXATION]]
    tokens += [word, longer + "a", shared.rstrip("*") + "b"]

    def expected(token):
        found = (lookup_linear_scan(token, lists[Kind.STRESS]),
                 lookup_linear_scan(token, lists[Kind.RELAXATION]))
        return tuple(f[0] for f in found if f is not None)

    index = TermIndex(lists[Kind.STRESS], lists[Kind.RELAXATION])  # duplicates: first entry
    for token in tokens:
        assert index.lookup(token) == expected(token)
    lists = {kind: list({e.pattern: e for e in reversed(entries)}.values())
             for kind, entries in lists.items()}  # a LexiconSet holds each pattern once
    lex = LexiconSet(tuple(lists[Kind.STRESS]), tuple(lists[Kind.RELAXATION]),
                     (), frozenset(), (), (), frozenset())
    assert lex.term_index(Kind.STRESS) is lex.term_index(Kind.RELAXATION) is lex.compiled_terms
    for token in tokens:
        assert lex.term_index(Kind.RELAXATION).lookup(token) == expected(token)


def test_two_list_join_probes_only_keys_with_a_stem_head(monkeypatch):
    # Stems "ab" and "cd" (heads of length 2): "a" is shorter than every stem,
    # "xyz" shares no head, and only "abx" is probed.
    calls = []
    probe = lexicon._longest_stem

    def counting(stems, lengths, token):
        calls.append(token)
        return probe(stems, lengths, token)

    stress = [LexiconEntry(p, Kind.STRESS, 2) for p in ("a", "abx", "xyz")]
    relax = [LexiconEntry(p, Kind.RELAXATION, 3) for p in ("ab*", "cd*")]
    monkeypatch.setattr(lexicon, "_longest_stem", counting)
    index = TermIndex(stress, relax)
    monkeypatch.undo()
    assert calls == ["abx"]
    for token in ("a", "abx", "xyz", "abc", "cd"):
        found = (lookup_linear_scan(token, stress), lookup_linear_scan(token, relax))
        assert index.lookup(token) == tuple(f[0] for f in found if f is not None)


def test_set_strength_does_not_reuse_compiled_index(paper_lexicon):
    text = "Almost home and the train is delayed"
    assert score_text(text, paper_lexicon)[0].stress == -3  # builds the index
    updated = set_strength(paper_lexicon, Kind.STRESS, "delayed", 5)
    assert updated.term_index(Kind.STRESS) is not paper_lexicon.term_index(Kind.STRESS)
    assert score_text(text, updated)[0].stress == -5
    assert score_text(text, paper_lexicon)[0].stress == -3


def test_set_strength_roundtrip(paper_lexicon):
    updated = set_strength(paper_lexicon, Kind.STRESS, "delayed", 4)
    assert lookup("delayed", updated.stress_terms)[1] == 4
    # original untouched
    assert lookup("delayed", paper_lexicon.stress_terms)[1] == 3


def test_set_strength_changes_exactly_one_entry(paper_lexicon):
    updated = set_strength(paper_lexicon, Kind.STRESS, "delayed", 5)
    for kind in (Kind.STRESS, Kind.RELAXATION):
        for entry in paper_lexicon.terms(kind):
            if (kind, entry.pattern) != (Kind.STRESS, "delayed"):
                assert lookup(entry.pattern, updated.terms(kind)) == lookup(entry.pattern, paper_lexicon.terms(kind))


def test_set_strength_errors(paper_lexicon):
    with pytest.raises(errors.StrengthRangeError):
        set_strength(paper_lexicon, Kind.STRESS, "delayed", 6)
    with pytest.raises(errors.UnknownTerm):
        set_strength(paper_lexicon, Kind.STRESS, "nosuchword", 3)


def test_save_load_roundtrip(tmp_path, paper_lexicon):
    target = str(tmp_path / "out")
    save_lexicon_set(paper_lexicon, target)
    assert load_lexicon_set(target) == paper_lexicon


def test_save_empty_set(tmp_path):
    target = str(tmp_path / "empty")
    save_lexicon_set(EMPTY_LEXICON, target)
    for name in FILES:
        assert (tmp_path / "empty" / name).read_text() == ""


def test_save_sorted_order(tmp_path):
    lex = LexiconSet((LexiconEntry("zebra", Kind.STRESS, 2), LexiconEntry("apple", Kind.STRESS, 3)),
                     (), (), frozenset(), (), (), frozenset())
    target = str(tmp_path / "sorted")
    save_lexicon_set(lex, target)
    lines = (tmp_path / "sorted" / "stress_terms.tsv").read_text().splitlines()
    assert lines == sorted(lines) == ["apple\t3", "zebra\t2"]


def _snapshot(directory):
    """Each entry under ``directory``: a file's bytes, or None for a directory."""
    return {path.relative_to(directory).as_posix(): None if path.is_dir() else path.read_bytes()
            for path in sorted(directory.rglob("*"))}


@pytest.mark.parametrize("blocked", FILES)
def test_failed_save_leaves_the_old_set_whole(tmp_path, paper_lexicon, blocked):
    target = tmp_path / "lex"
    save_lexicon_set(EMPTY_LEXICON, str(target))
    (target / blocked).unlink()
    (target / blocked).mkdir()
    before = _snapshot(target)
    with pytest.raises(IsADirectoryError):
        save_lexicon_set(paper_lexicon, str(target))
    assert _snapshot(target) == before


def test_save_over_a_set_leaves_only_the_new_set(tmp_path, paper_lexicon):
    save_lexicon_set(EMPTY_LEXICON, str(tmp_path / "over"))
    save_lexicon_set(paper_lexicon, str(tmp_path / "over"))
    save_lexicon_set(paper_lexicon, str(tmp_path / "fresh"))
    assert _snapshot(tmp_path / "over") == _snapshot(tmp_path / "fresh")
    assert sorted(_snapshot(tmp_path / "over")) == sorted(FILES)


@given(st.lists(st.tuples(st.text(alphabet="abcdef", min_size=1, max_size=6),
                          st.integers(1, 5)), max_size=8, unique_by=lambda t: t[0]))
def test_roundtrip_property(tmp_path_factory, terms):
    lex = LexiconSet(tuple(LexiconEntry(p, Kind.STRESS, s) for p, s in terms),
                     (), (), frozenset(), (), (), frozenset(p for p, _ in terms))
    target = str(tmp_path_factory.mktemp("rt"))
    save_lexicon_set(lex, target)
    assert load_lexicon_set(target) == lex


def _with(**fields):
    return replace(EMPTY_LEXICON, **fields)


# A line starting with "#" reads back as a comment. Explicit ids keep these
# cases' test names stable.
@pytest.mark.parametrize("name, lex", [
    ("stress_terms.tsv", _with(stress_terms=(LexiconEntry("#stressed", Kind.STRESS, 4),))),
    ("negators.txt", _with(negators=frozenset({"#not"}))),
    ("idioms.tsv", _with(idioms=(IdiomEntry(("#fed", "up"), Kind.STRESS, 3),))),
    ("emoticons.tsv", _with(emoticons=(EmoticonEntry("#)", Kind.STRESS, 2),))),
    ("dictionary.txt", _with(dictionary=frozenset({"#tag"}))),
], ids=["stress_terms.tsv-lex0", "negators.txt-lex4", "idioms.tsv-lex6", "emoticons.tsv-lex8",
        "dictionary.txt-lex10"])
def test_save_rejects_entries_that_read_back_differently(tmp_path, name, lex):
    target = tmp_path / "out"
    with pytest.raises(errors.WriteError, match=name):
        save_lexicon_set(lex, str(target))
    assert not target.exists()  # nothing written


@pytest.mark.parametrize("word, fields", [
    ("Calm", dict(relax_terms=(LexiconEntry("Calm", Kind.RELAXATION, 3),))),
    ("late\nr", dict(stress_terms=(LexiconEntry("late\nr", Kind.STRESS, 2),))),
    ("Very", dict(boosters=(BoosterEntry("Very", 1),))),
    ("Never", dict(negators=frozenset({"Never"}))),
    ("Out", dict(idioms=(IdiomEntry(("chill", "Out"), Kind.RELAXATION, 3),))),
    (":\r", dict(emoticons=(EmoticonEntry(":\r", Kind.STRESS, 2),))),
    ("Home", dict(dictionary=frozenset({"Home"}))),
    ("", dict(dictionary=frozenset({""}))),
    ("\ufeffhome", dict(dictionary=frozenset({"\ufeffhome"}))),
], ids=["relax-Calm", "stress-late-nr", "booster-Very", "negator-Never", "idiom-Out",
        "emoticon-colon-cr", "dictionary-Home", "dictionary-empty", "dictionary-zwnbsp"])
def test_set_rejects_words_that_never_match(word, fields):
    # Words match lowercased, whitespace-free tokens; glyphs match verbatim.
    with pytest.raises(errors.ParseError, match=re.escape(repr(word))):
        _with(**fields)


def test_hashtag_term_builds_and_scores():
    lex = _with(stress_terms=(LexiconEntry("#stressed", Kind.STRESS, 4),))
    assert score_text("so #Stressed today", lex)[0].stress == -4


_BODY_PIECES = st.lists(st.sampled_from(["\n", "\r\n", "\r", "#", "\t", " ", "late\t2", "\ufeff",
                                         "\x0b\x1c\x85\u2028"])
                        | st.text(st.characters(blacklist_categories=("Cs",)), max_size=3), max_size=24)


@given(st.booleans(), _BODY_PIECES, st.data())
def test_reader_matches_the_line_by_line_oracle(tmp_path_factory, bom, pieces, data):
    # Line endings of each kind, characters that str.splitlines would also
    # split at, comments, blanks, a body without a final newline and, now and
    # then, a byte that is not UTF-8.
    body = (("\ufeff" if bom else "") + "".join(pieces)).encode()
    if data.draw(st.integers(0, 3)) == 0:
        at = data.draw(st.integers(0, len(body)))
        body = body[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + body[at:]
    path = tmp_path_factory.mktemp("reader") / "rows.tsv"
    path.write_bytes(body)
    try:
        expected = data_lines_linewise(path)
    except ValueError as exc:
        with pytest.raises(errors.ParseError) as err:
            lexicon._data_lines(path)
        assert str(err.value) == str(exc)
        return
    assert lexicon._data_lines(path) == expected
    assert lexicon._words(path) == frozenset(text.strip().lower() for _, text in expected)


def test_file_with_bad_bytes_is_rejected_before_its_rows_are_read(tmp_path):
    # Line 2 holds a bad row and line 4 a bad byte. The file is decoded whole
    # first, so the byte is reported, whatever the file's size.
    d = write_dir(tmp_path)
    path = os.path.join(d, "relax_terms.tsv")
    with open(path, "wb") as fh:
        fh.write(b"calm\t3\nchill\t6\n" + b"# pad\n" * 3000 + b"caf\xff\t2\n")
    with pytest.raises(errors.ParseError) as exc:
        load_lexicon_set(d)
    assert str(exc.value) == f"{path}: line 3003: not valid UTF-8"


def test_bad_bytes_line_counts_every_line_break(tmp_path):
    # \r ends a line for the reader, so it ends one for the bad-bytes finder too.
    d = write_dir(tmp_path)
    path = os.path.join(d, "relax_terms.tsv")
    with open(path, "wb") as fh:
        fh.write(b"calm\t3\rchill\t2\rcaf\xff\t2\r")
    with pytest.raises(errors.ParseError) as exc:
        load_lexicon_set(d)
    assert str(exc.value) == f"{path}: line 3: not valid UTF-8"


@pytest.mark.parametrize("name, bad_row", [
    ("stress_terms.tsv", "late\tlots"),
    ("relax_terms.tsv", "chill\t9"),
    ("boosters.tsv", "very\t3"),
    ("idioms.tsv", "fed up\tcalm\t3"),
    ("emoticons.tsv", ":(\tstress"),
    ("corpus.tsv", "id\tsubcorpus\ttext\tcodes"),
])
def test_row_error_names_its_file_and_line(tmp_path, name, bad_row):
    # A comment on line 1, the bad row on line 2, every line ended by \r\n.
    d = write_dir(tmp_path)
    path = os.path.join(d, name)
    with open(path, "wb") as fh:
        fh.write(f"# note\r\n{bad_row}\r\n".encode())
    with pytest.raises(errors.ParseError) as exc:
        load_corpus(path) if name == "corpus.tsv" else load_lexicon_set(d)
    assert exc.value.line == 2
    assert str(exc.value).startswith(f"{path}: line 2: ")


@pytest.mark.parametrize("name, good_row, bad_row, message", [
    ("negators.txt", "not", "No way", "negator 'no way' must be nonempty, lowercase and free of whitespace"),
    ("dictionary.txt", "home", "no way", "dictionary word 'no way' must be nonempty, lowercase and free of whitespace"),
    ("stress_terms.tsv", "late\t2", "so late\t3",
     "stress pattern 'so late' must be nonempty, lowercase and free of whitespace"),
    ("relax_terms.tsv", "calm\t3", " so  calm\t3",
     "relax pattern 'so  calm' must be nonempty, lowercase and free of whitespace"),
    ("boosters.tsv", "very\t2", "very much\t1", "booster 'very much' must be nonempty, lowercase and free of whitespace"),
    ("emoticons.tsv", ":(\tstress\t2", ": )\trelax\t2", "emoticon glyph ': )' must be nonempty and free of whitespace"),
], ids=["negators", "dictionary", "stress", "relax", "boosters", "emoticons"])
def test_set_level_word_error_names_its_file_and_line(tmp_path, name, good_row, bad_row, message):
    # Each row parses, and the set rejects the word it gives, read as the loader
    # reads it (stripped and lowercased, a glyph verbatim). The error names the
    # first such line, 3, after a comment and a good row. A word file's set is
    # checked in hash order, so one with more bad words after it names line 3
    # on every run too.
    rows = [bad_row, "at all", bad_row] if name.endswith(".txt") else [bad_row]
    d = write_dir(tmp_path, **{name: "\n".join(["# note", good_row, *rows, ""])})
    path = os.path.join(d, name)
    with pytest.raises(errors.ParseError) as exc:
        load_lexicon_set(d)
    assert (exc.value.path, exc.value.line) == (path, 3)
    assert str(exc.value) == f"{path}: line 3: {message}"


def test_set_level_word_error_of_a_built_set_names_no_file():
    with pytest.raises(errors.ParseError) as exc:
        _with(negators=frozenset({"no way"}))
    assert (exc.value.path, exc.value.line) == (None, None)
    assert str(exc.value) == "negator 'no way' must be nonempty, lowercase and free of whitespace"


def test_byte_order_mark_is_skipped(tmp_path):
    d = write_dir(tmp_path, **{"stress_terms.tsv": "\ufeffdelayed\t3\n",
                               "negators.txt": "\ufeff# negators\nnot\n"})
    lex = load_lexicon_set(d)
    assert [e.pattern for e in lex.stress_terms] == ["delayed"]
    assert lex.negators == {"not"}
    assert score_text("the train is delayed", lex)[0].stress == -3


def test_save_keeps_entries_that_read_back(tmp_path):
    lex = _with(stress_terms=(LexiconEntry("a#b", Kind.STRESS, 2),), negators=frozenset({"don't"}),
                emoticons=(EmoticonEntry(":D", Kind.RELAXATION, 3), EmoticonEntry(":#", Kind.STRESS, 1)))
    save_lexicon_set(lex, str(tmp_path / "out"))
    assert load_lexicon_set(str(tmp_path / "out")) == lex


def test_set_strengths_applies_a_table(paper_lexicon):
    table = {(Kind.STRESS, "delayed"): 5, (Kind.RELAXATION, "calm"): 1}
    updated = set_strengths(paper_lexicon, table)
    assert updated == set_strength(set_strength(paper_lexicon, Kind.STRESS, "delayed", 5),
                                   Kind.RELAXATION, "calm", 1)
    assert set_strengths(paper_lexicon, {}) == paper_lexicon
    with pytest.raises(errors.UnknownTerm):
        set_strengths(paper_lexicon, {**table, (Kind.RELAXATION, "delayed"): 2})


def test_recognised_words_includes_patterns(paper_lexicon):
    rec = paper_lexicon.recognised_words
    assert "delayed" in rec and "trust" in rec
    assert rec >= paper_lexicon.dictionary


def test_invalid_entries_rejected():
    with pytest.raises(errors.StrengthRangeError):
        LexiconEntry("x", Kind.STRESS, 0)
    with pytest.raises(errors.ParseError):
        LexiconEntry("a*b", Kind.STRESS, 3)
    with pytest.raises(errors.ParseError):
        BoosterEntry("very", 0)
    with pytest.raises(errors.ParseError):
        IdiomEntry(("single",), Kind.STRESS, 2)
    with pytest.raises(errors.ParseError):
        EmoticonEntry("", Kind.NEUTRAL, 1)
    with pytest.raises(errors.DuplicateTerm):
        LexiconSet((LexiconEntry("a", Kind.STRESS, 1), LexiconEntry("a", Kind.STRESS, 2)),
                   (), (), frozenset(), (), (), frozenset())


@pytest.mark.parametrize("build", [
    lambda: LexiconEntry("late", Kind.STRESS, True),
    lambda: IdiomEntry(("fed", "up"), Kind.STRESS, True),
    lambda: EmoticonEntry(":(", Kind.STRESS, True),
], ids=["term", "idiom", "emoticon"])
def test_bool_strength_rejected(build):
    # True is an int, but it would save as "True" and fail to load.
    with pytest.raises(errors.StrengthRangeError):
        build()


@pytest.mark.parametrize("delta", [True, 1.5], ids=["bool", "float"])
def test_booster_delta_must_be_an_integer(delta):
    with pytest.raises(errors.ParseError, match="integer"):
        BoosterEntry("very", delta)


@pytest.mark.parametrize("fields, pattern", [
    (dict(stress_terms=(LexiconEntry("calm", Kind.RELAXATION, 3),)), "calm"),
    (dict(relax_terms=(LexiconEntry("meh", Kind.NEUTRAL, 1),)), "meh"),
], ids=["relax-in-stress", "neutral-in-relax"])
def test_set_rejects_a_term_of_another_kind(fields, pattern):
    # A term's kind is its list's, so (kind, pattern) names a term.
    with pytest.raises(errors.ParseError, match=re.escape(repr(pattern))):
        _with(**fields)


@pytest.mark.parametrize("fields, error, message", [
    (dict(stress_terms=(LexiconEntry("a", Kind.STRESS, 1), LexiconEntry("a", Kind.STRESS, 2),
                        LexiconEntry("b", Kind.RELAXATION, 1))),
     errors.DuplicateTerm, "duplicate stress pattern 'a'"),
    (dict(stress_terms=(LexiconEntry("b", Kind.RELAXATION, 1), LexiconEntry("a", Kind.STRESS, 1),
                        LexiconEntry("a", Kind.STRESS, 2))),
     errors.ParseError, "stress pattern 'b' has kind relax"),
    (dict(stress_terms=(LexiconEntry("a", Kind.STRESS, 1),),
          relax_terms=(LexiconEntry("c", Kind.RELAXATION, 1), LexiconEntry("d", Kind.NEUTRAL, 1),
                       LexiconEntry("c", Kind.RELAXATION, 2))),
     errors.ParseError, "relax pattern 'd' has kind neutral"),
    (dict(relax_terms=(LexiconEntry("c*", Kind.RELAXATION, 1), LexiconEntry("c*", Kind.RELAXATION, 2))),
     errors.DuplicateTerm, "duplicate relax pattern 'c*'"),
], ids=["stress-duplicate-first", "stress-kind-first", "relax-kind", "relax-duplicate"])
def test_set_names_the_first_bad_term_in_list_order(fields, error, message):
    with pytest.raises(errors.ParseError) as exc:
        _with(**fields)
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_terms_has_no_neutral_list(paper_lexicon):
    with pytest.raises(ValueError, match="no term list for kind"):
        paper_lexicon.terms(Kind.NEUTRAL)


def test_equal_sets_share_recognised_words(tmp_path):
    d = write_dir(tmp_path, **{"stress_terms.tsv": "delayed\t3\n", "dictionary.txt": "home\n"})
    assert load_lexicon_set(d).recognised_words is load_lexicon_set(d).recognised_words
