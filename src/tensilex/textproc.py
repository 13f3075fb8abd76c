"""Sentence splitting, tweet-aware tokenization and repeat-letter correction.

One walk over each line cuts it into sentences and tokens at once, so no two
readers disagree on where a URL or a sentence ends. The scorer consumes the
output of :func:`process`: sentences of tokens, each token carrying its raw
form, a lowercase corrected form, and the number of letters removed while
collapsing repeats (two or more removals trigger the scorer's +1 emphasis rule).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import NamedTuple

# One piece of a line per match: (1) a URL, the body of a whitespace chunk that
# starts like one, without the chunk's trailing ``.!?`` run; (2) a word, which may
# start with # or @ (hashtags and mentions stay whole) and keeps inner apostrophes;
# (3) a punctuation run through a run of ``.!?``, which ends a sentence; (4) any
# other punctuation run.
_PIECE_RE = re.compile(r"(?<!\S)((?=(?i:https?://|www\.))\S*[^\s.!?])"
                       r"|([#@]?\w[\w']*)|([^\w\s.!?]*[.!?]+)|([^\w\s.!?]+)")
_RUN_RE = re.compile(r"(.)\1+")
# In a two-capped form, exactly its length-two runs (a newline is never in a run).
_PAIR_RE = re.compile(r"(.)\1")

URL_TOKEN = "<url>"


class Token(NamedTuple):
    """A token's raw form, its lowercase corrected form, the letters correction
    removed, and whether it is a punctuation run. Immutable and hashable; as a
    tuple, it also compares equal to a plain tuple of its fields."""
    raw: str
    normalized: str
    letters_removed: int = 0
    is_punct_run: bool = False


@dataclass(frozen=True, slots=True)
class TokenizedText:
    sentences: tuple[tuple[Token, ...], ...]


# Builds a Token from its four fields in one C call, past NamedTuple's Python __new__.
_new_token = tuple.__new__


def _sentences(text: str, recognised):
    """Each sentence of ``text`` as its slice of a line and its tokens, from one
    walk over each line's pieces. Given a ``recognised`` word set, each word
    but a hashtag or mention is spell-corrected as its token is built; only a
    word holding a repeated character calls :func:`correct_spelling`, since
    any other word it would only lowercase."""
    for line in text.splitlines():
        start, tokens = None, []
        for match in _PIECE_RE.finditer(line):
            url, word, stop, punct = match.groups()
            if start is None:
                start = match.start()
            if url:
                tokens.append(_new_token(Token, (url, URL_TOKEN, 0, False)))
            elif word:
                lowered = word.lower()
                if recognised is None or word[0] in "#@" or not _RUN_RE.search(lowered):
                    tokens.append(_new_token(Token, (word, lowered, 0, False)))
                else:
                    tokens.append(_new_token(Token, (word, *correct_spelling(word, recognised), False)))
            else:
                run = stop or punct
                tokens.append(_new_token(Token, (run, run, 0, True)))
                if stop:
                    yield line[start:match.end()], tokens
                    start, tokens = None, []
        if tokens:
            yield line[start:].rstrip(), tokens


def segment_sentences(text: str) -> list[str]:
    """Split on newlines and runs of ``.!?``; terminators stay attached.

    A URL never splits: of the terminators in a URL's whitespace chunk,
    only a run that ends the chunk can end a sentence.
    """
    return [sentence for sentence, _ in _sentences(text, None)]


def tokenize(sentence: str) -> list[Token]:
    """Split a sentence into word tokens and punctuation-run tokens.

    Whitespace chunks are never merged; within a chunk, maximal punctuation
    runs (emoticons, ``!!!``) become their own tokens, except that a run
    ends after a run of ``.!?``, as a sentence does. A whitespace chunk that
    starts like a URL collapses to the neutral ``<url>`` token; a ``.!?`` run
    ending it is a punctuation run after it. A URL glued inside a chunk, as
    in ``a.www.x``, is no URL.
    """
    return [token for _, tokens in _sentences(sentence, None) for token in tokens]


def is_word_token(text: str) -> bool:
    """Whether ``text`` is exactly one word token under :func:`tokenize`, or
    the ``<url>`` token: the forms a scorer can match a token's normalized
    form against."""
    if text == URL_TOKEN:
        return True
    match = _PIECE_RE.fullmatch(text)
    return match is not None and match.lastindex == 2


def correct_spelling(raw: str, recognised) -> tuple[str, int]:
    """Collapse repeated letters until a recognised word appears.

    Runs longer than two always shrink to two. If that form is still not
    recognised, length-two runs are collapsed to one: the recognised result
    with the fewest collapsed runs wins, then the one whose collapsed runs
    come first left to right. Falls back to the two-capped form. A word with
    no repeated character is only lowercased.
    """
    lowered = raw.lower()
    if not _RUN_RE.search(lowered):
        return lowered, 0
    capped = _RUN_RE.sub(lambda m: m.group(1) * 2, lowered)
    if capped in recognised:
        return capped, len(lowered) - len(capped)
    skeleton, doubles = _runs(capped)

    # A recognised word is reachable when it has the same skeleton and its
    # length-two runs are some of the capped form's; it collapses the others.
    best = None
    for word, kept in _skeleton_index(frozenset(recognised)).get(skeleton, ()):
        if set(kept).issubset(doubles):
            collapsed = [run for run in doubles if run not in kept]
            if best is None or (len(collapsed), collapsed) < best[0]:
                best = (len(collapsed), collapsed), word
    corrected = capped if best is None else best[1]
    return corrected, len(lowered) - len(corrected)


def _runs(word: str) -> tuple[str, list[int]]:
    """A word with each length-two run kept once, and those runs' positions in it.

    A longer run keeps a pair, so a word holding one shares no skeleton
    with any two-capped form.
    """
    skeleton = _PAIR_RE.sub(lambda m: m.group(1), word)
    return skeleton, [m.start() - k for k, m in enumerate(_PAIR_RE.finditer(word))]


@functools.lru_cache(maxsize=4)
def _skeleton_index(recognised: frozenset) -> dict[str, tuple[tuple[str, tuple[int, ...]], ...]]:
    """Each recognised word and its kept runs' positions, by skeleton; built once per word set."""
    index: dict[str, list] = {}
    for word in recognised:
        skeleton, kept = _runs(word)
        index.setdefault(skeleton, []).append((word, tuple(kept)))
    return {skeleton: tuple(words) for skeleton, words in index.items()}


def process(text: str, recognised) -> TokenizedText:
    """Segment, tokenize and spell-correct a whole text. Punctuation runs,
    URLs, hashtags and mentions are kept as tokenized.

    Pass ``recognised`` as a frozenset, such as ``lex.recognised_words``: a
    plain ``set`` works but costs about 0.45 ms more per text, because it is
    copied into a fresh frozenset that the spelling corrector's cache then
    hashes and compares."""
    # Frozen once here, not once per corrected token.
    recognised = frozenset(recognised)
    return TokenizedText(tuple(tuple(tokens) for _, tokens in _sentences(text, recognised)))
