"""Sentence splitting, tweet-aware tokenization and repeat-letter correction.

The scorer consumes the output of :func:`process`: sentences of tokens,
each token carrying its raw form, a lowercase corrected form, and the
number of letters removed while collapsing repeats (two or more removals
trigger the scorer's +1 emphasis rule).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

_SENTENCE_RE = re.compile(r"[^.!?]*[.!?]+|[^.!?]+")
# Word tokens may start with # or @ (hashtags/mentions stay whole) and keep
# internal apostrophes (group 1); everything else groups into maximal
# punctuation runs (group 2).
_TOKEN_RE = re.compile(r"([#@]?\w[\w']*)|([^\w\s]+)")
# A whitespace chunk that starts like a URL is one URL, whatever follows.
_URL_RE = re.compile(r"(?<!\S)(?:https?://|www\.)\S*", re.IGNORECASE)
_BLANK_TERMINATORS = str.maketrans(".!?", "___")
_RUN_RE = re.compile(r"(.)\1+")
# In a two-capped form, exactly its length-two runs (a newline is never in a run).
_PAIR_RE = re.compile(r"(.)\1")

URL_TOKEN = "<url>"


@dataclass(frozen=True)
class Token:
    raw: str
    normalized: str
    letters_removed: int = 0
    is_punct_run: bool = False


@dataclass(frozen=True)
class TokenizedText:
    sentences: tuple[tuple[Token, ...], ...]


def segment_sentences(text: str) -> list[str]:
    """Split on newlines and runs of ``.!?``; terminators stay attached.

    A URL never splits: of the terminators in a URL's whitespace chunk,
    only a run that ends the chunk can end a sentence.
    """
    sentences = []
    for line in text.splitlines():
        # Split a copy whose URL-inner terminators are blanked; slice the line.
        masked = _URL_RE.sub(_blank_url_terminators, line)
        for match in _SENTENCE_RE.finditer(masked):
            sentence = line[match.start():match.end()].strip()
            if sentence:
                sentences.append(sentence)
    return sentences


def _blank_url_terminators(match: re.Match) -> str:
    body, tail = _split_url(match.group())
    return body.translate(_BLANK_TERMINATORS) + tail


def _split_url(url: str) -> tuple[str, str]:
    """A URL chunk's body and its trailing ``.!?`` run, which is not part of it."""
    body = url.rstrip(".!?")
    return body, url[len(body):]


def tokenize(sentence: str) -> list[Token]:
    """Split a sentence into word tokens and punctuation-run tokens.

    Whitespace chunks are never merged; within a chunk, maximal punctuation
    runs (emoticons, ``!!!``) become their own tokens. URLs collapse to the
    neutral ``<url>`` token; a ``.!?`` run ending a URL chunk is a
    punctuation run after it.
    """
    return _tokens(sentence, None)


def _tokens(sentence: str, recognised) -> list[Token]:
    """:func:`tokenize`'s tokens; given a ``recognised`` word set, each word
    token but a hashtag or mention is spell-corrected as it is built."""
    tokens = []
    for chunk in sentence.split():
        if _URL_RE.match(chunk):
            url, tail = _split_url(chunk)
            tokens.append(Token(url, URL_TOKEN))
            if tail:
                tokens.append(Token(tail, tail, is_punct_run=True))
            continue
        for word, punct in _TOKEN_RE.findall(chunk):
            if not word:
                tokens.append(Token(punct, punct, is_punct_run=True))
            elif recognised is None or word[0] in "#@":
                tokens.append(Token(word, word.lower()))
            else:
                tokens.append(Token(word, *correct_spelling(word, recognised)))
    return tokens


def is_word_token(text: str) -> bool:
    """Whether ``text`` is exactly one word token under :func:`tokenize`'s
    token rule, or the ``<url>`` token: the forms a scorer can match a
    token's normalized form against."""
    if text == URL_TOKEN:
        return True
    match = _TOKEN_RE.fullmatch(text)
    return match is not None and match.group(1) is not None


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
    for word in _skeleton_index(frozenset(recognised)).get(skeleton, ()):
        kept = _runs(word)[1]
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
def _skeleton_index(recognised: frozenset) -> dict[str, tuple[str, ...]]:
    """The recognised words grouped by skeleton, built once per word set."""
    index: dict[str, list[str]] = {}
    for word in recognised:
        index.setdefault(_runs(word)[0], []).append(word)
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
    return TokenizedText(tuple(tuple(_tokens(sentence, recognised))
                               for sentence in segment_sentences(text)))
