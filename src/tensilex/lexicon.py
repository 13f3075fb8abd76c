"""Lexical resources: term lists, boosters, negators, idioms, emoticons, dictionary.

A lexicon lives on disk as a directory of seven UTF-8 files:

    stress_terms.tsv   pattern<TAB>strength
    relax_terms.tsv    pattern<TAB>strength
    boosters.tsv       word<TAB>delta
    negators.txt       one word per line
    idioms.tsv         space-joined phrase<TAB>kind<TAB>strength
    emoticons.tsv      glyph<TAB>kind<TAB>strength
    dictionary.txt     one word per line

Each file is read whole: ``\n``, ``\r\n`` and ``\r`` end a line alike, and a
file holding bytes that are not UTF-8 is rejected before any of its rows is
parsed. Blank lines, lines whose first non-blank character is ``#`` (comments)
and a leading UTF-8 byte-order mark are skipped. A bad row, or a line's bad
bytes, is reported as ``PATH: line N: message``, in a corpus and ``score``
input too; rows read from stdin are ``stdin: line N: message``. So is a word
that parses but that :class:`LexiconSet` rejects (one holding whitespace),
at the first line in its file giving such a word; a set built in code names
no file.

A term pattern may end in a single ``*`` wildcard meaning "any suffix".
Strengths are integers 1..5.

Loaded sets are immutable; :func:`set_strengths` returns a new set with
the strengths of a ``{(Kind, pattern): strength}`` table. The optimizer
climbs on such a table and builds its result once, at the end. Each set
compiles its stress and relaxation lists once, on first use, into one
:class:`TermIndex`, so a word costs one lookup for both scales, and its
idioms and emoticons into lookup tables; a set made by :func:`set_strengths`
compiles its own.
"""

from __future__ import annotations

import contextlib
import enum
import errno
import os
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from operator import attrgetter

from .errors import (
    DuplicateTerm,
    MissingResource,
    ParseError,
    StrengthRangeError,
    UnknownTerm,
    WriteError,
)
from .textproc import is_word_token


class Kind(enum.Enum):  # an entry's list, and the scale its score counts on
    STRESS = "stress"
    RELAXATION = "relax"
    NEUTRAL = "neutral"


@dataclass(frozen=True, slots=True)
class LexiconEntry:
    pattern: str  # lowercase, optional single trailing '*'
    kind: Kind
    strength: int  # magnitude 1..5; sign applied at scoring time

    def __post_init__(self):
        if type(self.strength) is not int or not 1 <= self.strength <= 5:  # an exact int in range skips the call
            _check_strength(self.strength)
        if "*" in self.pattern[:-1] or self.pattern == "*":
            raise ParseError(f"wildcard must be a single trailing '*': {self.pattern!r}")


class TermIndex:
    """Term lists compiled for lookups in O(token length), not O(list size).

    :meth:`lookup` gives a token's match in each list, in list order, for one
    exact-dict ``get`` and one probe per stem length any list holds. Within a
    list, an exact pattern beats any wildcard, the longest matching stem wins,
    a stem equal to the whole token matches, and a pattern's first entry is
    used. Both dicts hold finished answers, joined one list at a time, so a
    stem holds each list's longest stem prefixing it.
    """

    __slots__ = ("_exact", "_stems", "_stem_lengths")

    def __init__(self, *term_lists):
        # Each exact pattern's and each wildcard stem's matches, and the stems' lengths, longest first.
        self._exact, self._stems, self._stem_lengths = {}, {}, []
        for entries in term_lists:
            exact, stems = {}, {}  # the next list's own matches; a pattern's first entry is kept
            for entry in entries:
                pattern = entry.pattern
                if pattern[-1:] == "*":
                    stems.setdefault(pattern[:-1], (entry,))
                else:
                    exact.setdefault(pattern, (entry,))
            lengths = sorted({len(stem) for stem in stems}, reverse=True)
            if self._exact or self._stems:  # each key either side holds: the held matches, then the list's
                held_stems, held_lengths = self._stems, self._stem_lengths
                cut, heads = _heads(stems, lengths)
                held_cut, held_heads = _heads(held_stems, held_lengths)
                joined = {p: found + _longest_stem(stems, lengths, p) if p[:cut] in heads else found
                          for p, found in self._exact.items()}
                for p, found in exact.items():
                    joined[p] = (self._exact.get(p) or (_longest_stem(held_stems, held_lengths, p)
                                                        if p[:held_cut] in held_heads else ())) + found
                exact = joined
                joined = {s: found + _longest_stem(stems, lengths, s) if s[:cut] in heads else found
                          for s, found in held_stems.items()}
                for s, found in stems.items():
                    joined[s] = (_longest_stem(held_stems, held_lengths, s)
                                 if s[:held_cut] in held_heads else ()) + found
                stems, lengths = joined, sorted(set(held_lengths + lengths), reverse=True)
            self._exact, self._stems, self._stem_lengths = exact, stems, lengths

    def lookup(self, token: str) -> tuple[LexiconEntry, ...]:
        """Each list's match for ``token``, in list order; a list without one is left out."""
        found = self._exact.get(token)
        return found if found is not None else _longest_stem(self._stems, self._stem_lengths, token)


def _heads(stems, lengths) -> tuple[int, set]:
    """The shortest of ``stems``' ``lengths`` (longest first) and each stem's first that
    many characters. A stem prefixing a key shares this head with it, and a key
    shorter than every stem has none, so only a key whose head is here needs a probe."""
    cut = lengths[-1] if lengths else 0
    return cut, {stem[:cut] for stem in stems}


def _longest_stem(stems, lengths, token) -> tuple:
    """What the longest of ``stems`` (of ``lengths``, longest first) prefixing ``token`` holds, or ``()``."""
    for length in lengths:
        if length <= len(token):
            found = stems.get(token[:length])
            if found is not None:
                return found
    return ()


@dataclass(frozen=True)
class BoosterEntry:
    word: str
    delta: int  # in {-2,-1,+1,+2}

    def __post_init__(self):
        if not _is_int(self.delta) or self.delta == 0 or abs(self.delta) > 2:
            raise ParseError(f"booster delta must be an integer in -2..2, not 0: {self.delta!r}")


@dataclass(frozen=True)
class IdiomEntry:
    tokens: tuple[str, ...]  # >= 2 lowercase word tokens
    kind: Kind
    strength: int

    def __post_init__(self):
        _check_strength(self.strength)
        if len(self.tokens) < 2:
            raise ParseError(f"idiom needs >= 2 tokens: {self.tokens!r}")
        for token in self.tokens:
            # Idioms match words only, so a punctuation run or a token that
            # splits in two could never match.
            if not is_word_token(token):
                raise ParseError(f"idiom token {token!r} is not one word token")


@dataclass(frozen=True)
class EmoticonEntry:
    glyph: str  # matched case-sensitively, verbatim
    kind: Kind
    strength: int

    def __post_init__(self):
        _check_strength(self.strength)
        if not self.glyph:
            raise ParseError("empty emoticon glyph")


def _check_tokens(fields, lowercase):
    """Raise ParseError naming the first text in ``fields`` (a list per field
    name) that is empty, holds whitespace (U+FEFF, the zero-width no-break
    space, included) or, if ``lowercase``, upper case. One bulk pass; texts
    are checked one by one only to name a failure."""
    def valid(texts):
        joined = " ".join(texts)
        return (joined.split() == texts and "\ufeff" not in joined
                and (not lowercase or joined.lower() == joined))

    if not valid([t for ts in fields.values() for t in ts]):
        what, text = next((what, t) for what, ts in fields.items() for t in ts if not valid([t]))
        case = ", lowercase" if lowercase else ""
        error = ParseError(f"{what} {text!r} must be nonempty{case} and free of whitespace")
        error.field = what  # for load_lexicon_set to find the word's file and line
        raise error


@dataclass(frozen=True)
class LexiconSet:
    stress_terms: tuple[LexiconEntry, ...]
    relax_terms: tuple[LexiconEntry, ...]
    boosters: tuple[BoosterEntry, ...]
    negators: frozenset[str]
    idioms: tuple[IdiomEntry, ...]
    emoticons: tuple[EmoticonEntry, ...]
    dictionary: frozenset[str]

    def __post_init__(self):
        stress, relax = [e.pattern for e in self.stress_terms], [e.pattern for e in self.relax_terms]
        # Words match lowercased tokens; glyphs match verbatim.
        _check_tokens({
            "stress pattern": stress,
            "relax pattern": relax,
            "booster": [b.word for b in self.boosters],
            "negator": list(self.negators),
            "idiom token": [t for i in self.idioms for t in i.tokens],
            "dictionary word": list(self.dictionary),
        }, lowercase=True)
        _check_tokens({"emoticon glyph": [e.glyph for e in self.emoticons]}, lowercase=False)
        for entries, patterns, kind in ((self.stress_terms, stress, Kind.STRESS),
                                        (self.relax_terms, relax, Kind.RELAXATION)):
            # One bulk test; the entries are walked one by one only to name a failure.
            if len(set(patterns)) == len(patterns) and [e.kind for e in entries].count(kind) == len(entries):
                continue
            seen = set()
            for e in entries:
                if e.kind is not kind:
                    raise ParseError(f"{kind.value} pattern {e.pattern!r} has kind {e.kind.value}")
                if e.pattern in seen:
                    raise DuplicateTerm(f"duplicate {kind.value} pattern {e.pattern!r}")
                seen.add(e.pattern)
        # Canonical ordering so equality and the save/load round trip are
        # insensitive to insertion order. Idioms come longest first, the
        # order in which the scorer matches them.
        object.__setattr__(self, "stress_terms", tuple(sorted(self.stress_terms, key=attrgetter("pattern"))))
        object.__setattr__(self, "relax_terms", tuple(sorted(self.relax_terms, key=attrgetter("pattern"))))
        object.__setattr__(self, "boosters", tuple(sorted(self.boosters, key=lambda b: b.word)))
        object.__setattr__(self, "idioms", tuple(sorted(self.idioms, key=lambda i: (-len(i.tokens), i.tokens))))
        object.__setattr__(self, "emoticons", tuple(sorted(self.emoticons, key=lambda e: e.glyph)))

    # The cached properties below are computed once per set and stored in the
    # instance __dict__, which dataclasses.replace does not copy, so a
    # modified set never sees its parent's values. Callers must not mutate them.

    @cached_property
    def booster_deltas(self) -> dict[str, int]:
        return {b.word: b.delta for b in self.boosters}

    @cached_property
    def recognised_words(self) -> frozenset[str]:
        """Dictionary plus every non-wildcard term pattern. Sets with the same
        words share one object, so caches keyed by it hit by identity."""
        return _interned(frozenset(self.dictionary).union(
            [e.pattern for e in self.stress_terms + self.relax_terms if e.pattern[-1:] != "*"]))

    def terms(self, kind: Kind) -> tuple[LexiconEntry, ...]:
        if kind is Kind.STRESS:
            return self.stress_terms
        if kind is Kind.RELAXATION:
            return self.relax_terms
        raise ValueError(f"no term list for kind {kind}")

    @cached_property
    def compiled_terms(self) -> TermIndex:
        """The stress and relaxation lists compiled once into one :class:`TermIndex`:
        a token's lookup gives its stress match, then its relaxation match."""
        return TermIndex(self.stress_terms, self.relax_terms)

    def term_index(self, kind: Kind) -> TermIndex:
        """:attr:`compiled_terms`, the one index for both lists, whichever list
        ``kind`` names; raises ValueError for a kind without a term list."""
        self.terms(kind)
        return self.compiled_terms

    @cached_property
    def idioms_by_first(self) -> dict[str, list[tuple[int, IdiomEntry]]]:
        """Each idiom with its position in ``idioms``, keyed by its first token."""
        table: dict[str, list[tuple[int, IdiomEntry]]] = {}
        for rank, idiom in enumerate(self.idioms):
            table.setdefault(idiom.tokens[0], []).append((rank, idiom))
        return table

    @cached_property
    def emoticons_by_glyph(self) -> dict[str, EmoticonEntry]:
        """Each glyph's first entry in ``emoticons``."""
        table: dict[str, EmoticonEntry] = {}
        for emo in self.emoticons:
            table.setdefault(emo.glyph, emo)
        return table


EMPTY_LEXICON = LexiconSet((), (), (), frozenset(), (), (), frozenset())

_FILES = ("stress_terms.tsv", "relax_terms.tsv", "boosters.tsv", "negators.txt",
          "idioms.tsv", "emoticons.tsv", "dictionary.txt")


@lru_cache(maxsize=4)
def _interned(words: frozenset) -> frozenset:
    """The first of the recently seen sets equal to ``words``."""
    return words


def _is_int(value) -> bool:
    # bool is an int subclass, but True would save as "True" and not read back.
    return isinstance(value, int) and not isinstance(value, bool)


def _check_strength(strength):
    if not _is_int(strength) or not 1 <= strength <= 5:
        raise StrengthRangeError(f"strength must be an integer in 1..5, got {strength!r}")


def _is_skipped(line) -> bool:  # what the readers skip: blank, or "#" after leading whitespace
    return line.lstrip()[:1] in ("", "#")


def _text_lines(path) -> list[str]:
    """The lines of the UTF-8 file at ``path``, past a leading BOM, from one decode
    and one split; ``\r\n`` and ``\r`` read as ``\n``. Bytes that are not UTF-8
    raise :func:`_not_utf8`'s error."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.read().split("\n")
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _data_lines(path) -> list[tuple[int, str]]:
    """(line_number, text) for each line of :func:`_text_lines` that is not :func:`_is_skipped`."""
    # The test of _is_skipped, inlined: a call per line would nearly double this filter's time.
    return [(i, line) for i, line in enumerate(_text_lines(path), start=1)
            if (head := line.lstrip()[:1]) and head != "#"]


def _words(path) -> frozenset[str]:
    """The stripped, lowercased words of a one-word-per-line file's data lines."""
    # word[:1] tests what _is_skipped does: a stripped line starts as its left-stripped one.
    return frozenset([word.lower() for line in _text_lines(path)
                      if (head := (word := line.strip())[:1]) and head != "#"])


def _not_utf8(path) -> ParseError:
    """The error for a file at ``path`` that does not decode as UTF-8, naming its
    first bad line. The decoder reads ahead, so the line is found only here, by
    decoding again each line that ``bytes.splitlines`` gives: it ends lines where
    the reader does, and no line break byte falls inside a UTF-8 sequence."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return ParseError("not valid UTF-8", line=lineno, path=path)
    return ParseError("not valid UTF-8", path=path)


def _parse_int(text, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {text!r}") from None


def _parse_kind(text):
    try:
        return Kind(text.strip().lower())
    except ValueError:
        raise ParseError(f"unknown kind {text!r}") from None


def _read_rows(path, n_cols, build):
    """``build(rows)`` for a TSV file whose data lines hold ``n_cols`` columns:
    ``rows`` yields each line's column list, read lazily, after checking its
    count. A ParseError from a row is re-raised as ``PATH: line N: message``."""
    lines, lineno = _data_lines(path), None  # bad bytes raise here, before any row is built

    def rows():
        nonlocal lineno
        for lineno, text in lines:
            cols = text.split("\t")
            if len(cols) != n_cols:
                raise ParseError(f"expected {n_cols} columns, got {len(cols)}")
            yield cols

    try:
        return build(rows())
    except ParseError as exc:
        raise type(exc)(str(exc), line=lineno, path=path) from None


def _terms(rows, kind):
    """The entries of a term file's ``rows``, of ``kind``; a pattern may appear once."""
    entries = {}
    for pattern, strength in rows:
        pattern = pattern.strip().lower()
        if pattern in entries:
            raise DuplicateTerm(f"duplicate pattern {pattern!r}")
        entries[pattern] = LexiconEntry(pattern, kind, _parse_int(strength, "strength"))
    return tuple(entries.values())


def load_lexicon_set(directory_path) -> LexiconSet:
    """Load and validate the seven-file lexicon directory."""
    paths = {name: os.path.join(directory_path, name) for name in _FILES}
    for path in paths.values():
        if not os.path.isfile(path):
            raise MissingResource(f"missing lexicon file: {path}")

    parts = (
        _read_rows(paths["stress_terms.tsv"], 2, lambda rows: _terms(rows, Kind.STRESS)),
        _read_rows(paths["relax_terms.tsv"], 2, lambda rows: _terms(rows, Kind.RELAXATION)),
        _read_rows(paths["boosters.tsv"], 2, lambda rows: tuple(
            BoosterEntry(word.strip().lower(), _parse_int(delta, "booster delta")) for word, delta in rows)),
        _words(paths["negators.txt"]),
        _read_rows(paths["idioms.tsv"], 3, lambda rows: tuple(
            IdiomEntry(tuple(phrase.strip().lower().split()), _parse_kind(kind),
                       _parse_int(strength, "strength")) for phrase, kind, strength in rows)),
        _read_rows(paths["emoticons.tsv"], 3, lambda rows: tuple(
            EmoticonEntry(glyph, _parse_kind(kind), _parse_int(strength, "strength"))
            for glyph, kind, strength in rows)),
        _words(paths["dictionary.txt"]),
    )
    try:
        return LexiconSet(*parts)
    except ParseError as exc:  # a word that LexiconSet rejects: name its file and first line
        raise _located(exc, paths) from None


# The file each word that LexiconSet checks is read from, and whether it is a
# row's first column (else the whole line). An idiom token is not here: each
# is checked as an IdiomEntry is built, with its row's line.
_WORD_FILES = {"stress pattern": ("stress_terms.tsv", True), "relax pattern": ("relax_terms.tsv", True),
               "booster": ("boosters.tsv", True), "negator": ("negators.txt", False),
               "dictionary word": ("dictionary.txt", False), "emoticon glyph": ("emoticons.tsv", True)}


def _located(exc, paths) -> ParseError:
    """``exc``, a word error of a set that :func:`load_lexicon_set` read from ``paths``,
    as the same error for the first data line of the word's file that gives a
    rejected word, read as ``PATH: line N: message``; else ``exc``. The set checks
    a word file's words in hash order, so this also names one word on every run."""
    what = getattr(exc, "field", None)
    if what not in _WORD_FILES:
        return exc
    name, in_column = _WORD_FILES[what]
    verbatim = what == "emoticon glyph"
    for lineno, line in _data_lines(paths[name]):
        word = line.split("\t")[0] if in_column else line
        try:  # the word as the loader reads it: a glyph verbatim, the rest stripped and lowercased
            _check_tokens({what: [word if verbatim else word.strip().lower()]}, lowercase=not verbatim)
        except ParseError as first:
            return type(first)(str(first), line=lineno, path=paths[name])
    return exc


def lookup(token: str, entries) -> tuple[LexiconEntry, int] | None:
    """Match a normalized token against a term list.

    An exact pattern beats any wildcard; among wildcard matches the
    longest stem wins. Returns None when nothing matches. This compiles
    ``entries`` on every call; to match many tokens against a set's terms,
    use :attr:`LexiconSet.compiled_terms`.
    """
    found = TermIndex(entries).lookup(token)
    return (found[0], found[0].strength) if found else None


def set_strengths(lex: LexiconSet, table) -> LexiconSet:
    """Return a copy of the lexicon with the strengths of a ``{(Kind, pattern):
    strength}`` table; a term the table does not name keeps its own."""
    terms = {(e.kind, e.pattern): e for e in lex.stress_terms + lex.relax_terms}
    for (kind, pattern), strength in table.items():
        if (kind, pattern) not in terms:
            raise UnknownTerm(f"no {kind.value} term with pattern {pattern!r}")
        terms[kind, pattern] = replace(terms[kind, pattern], strength=strength)
    return replace(lex, stress_terms=tuple(e for (k, _), e in terms.items() if k is Kind.STRESS),
                   relax_terms=tuple(e for (k, _), e in terms.items() if k is Kind.RELAXATION))


def set_strength(lex: LexiconSet, kind: Kind, pattern: str, strength: int) -> LexiconSet:
    """Return a copy of the lexicon with one term's strength changed."""
    return set_strengths(lex, {(kind, pattern): strength})


def save_lexicon_set(lex: LexiconSet, directory_path) -> None:
    """Write the seven-file directory, entries sorted for deterministic diffs, whole
    or not at all (the old files stay when a write fails). A line the readers would
    skip, one starting with ``#``, raises :class:`WriteError` naming the file and
    the line, before any file opens."""
    files = _lexicon_files(lex, directory_path)
    os.makedirs(directory_path, exist_ok=True)
    _write_whole(files)


def _lexicon_files(lex: LexiconSet, directory_path) -> dict[str, list[str]]:
    """The seven files of :func:`save_lexicon_set` as ``{path: lines}``; a line
    that would read back as a comment raises :class:`WriteError`."""
    files = {
        "stress_terms.tsv": [f"{e.pattern}\t{e.strength}" for e in lex.stress_terms],
        "relax_terms.tsv": [f"{e.pattern}\t{e.strength}" for e in lex.relax_terms],
        "boosters.tsv": [f"{b.word}\t{b.delta}" for b in lex.boosters],
        "negators.txt": sorted(lex.negators),
        "idioms.tsv": [f"{' '.join(i.tokens)}\t{i.kind.value}\t{i.strength}"
                       for i in sorted(lex.idioms, key=lambda i: i.tokens)],
        "emoticons.tsv": [f"{e.glyph}\t{e.kind.value}\t{e.strength}" for e in lex.emoticons],
        "dictionary.txt": sorted(lex.dictionary),
    }
    for name, lines in files.items():
        for lineno, line in enumerate(lines, start=1):
            if _is_skipped(line):
                raise WriteError(f"{os.path.join(directory_path, name)}: line {lineno} {line!r} "
                                 "would read back as a comment")
    return {os.path.join(directory_path, name): lines for name, lines in files.items()}


def _write_whole(files) -> None:
    """Write each ``{path: lines}`` file, all of them or none: every file is written
    and synced as a temporary file beside its target, and only then are they renamed
    into place. A failure before the first rename, such as a target that is a
    directory, removes the temporary files and leaves every target as it was."""
    temps = []
    try:
        for path, lines in files.items():
            temp = os.path.join(os.path.dirname(path),
                                f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
            with open(temp, "x", encoding="utf-8") as fh:
                temps.append(temp)
                fh.writelines(line + "\n" for line in lines)
                fh.flush()
                os.fsync(fh.fileno())  # the data is on disk before a rename can be
        for path in files:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for temp, path in zip(temps, files):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise
