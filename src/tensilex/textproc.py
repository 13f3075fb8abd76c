"""Sentence splitting, tweet-aware tokenization and repeat-letter correction.

The scorer consumes the output of :func:`process`: sentences of tokens,
each token carrying its raw form, a lowercase corrected form, and the
number of letters removed while collapsing repeats (two or more removals
trigger the scorer's +1 emphasis rule).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

_SENTENCE_RE = re.compile(r"[^.!?]*[.!?]+|[^.!?]+")
# Word tokens may start with # or @ (hashtags/mentions stay whole) and keep
# internal apostrophes; everything else groups into maximal punctuation runs.
_TOKEN_RE = re.compile(r"[#@]?\w[\w']*|[^\w\s]+")
# A whitespace chunk that starts like a URL is one URL, whatever follows.
_URL_RE = re.compile(r"(?<!\S)(?:https?://|www\.)\S*", re.IGNORECASE)
_BLANK_TERMINATORS = str.maketrans(".!?", "___")
_RUN_RE = re.compile(r"(.)\1+")

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
    tokens = []
    for chunk in sentence.split():
        if _URL_RE.match(chunk):
            url, tail = _split_url(chunk)
            tokens.append(Token(url, URL_TOKEN))
            if tail:
                tokens.append(Token(tail, tail, is_punct_run=True))
            continue
        for match in _TOKEN_RE.finditer(chunk):
            piece = match.group()
            if _is_punct_run(piece):
                tokens.append(Token(piece, piece, is_punct_run=True))
            else:
                tokens.append(Token(piece, piece.lower()))
    return tokens


def _is_punct_run(piece: str) -> bool:
    return not any(ch.isalnum() or ch == "_" for ch in piece)


def correct_spelling(raw: str, recognised) -> tuple[str, int]:
    """Collapse repeated letters until a recognised word appears.

    Runs longer than two always shrink to two. If that form is still not
    recognised, length-two runs are collapsed to one, trying collapse
    combinations smallest-first and left-to-right and keeping the first
    recognised result. Falls back to the two-capped form.
    """
    lowered = raw.lower()
    capped = _RUN_RE.sub(lambda m: m.group(1) * 2, lowered)
    if capped in recognised:
        return capped, len(lowered) - len(capped)

    # Positions of the remaining length-2 runs in the capped form.
    runs = [m.start() for m in re.finditer(r"(.)\1", capped)]
    for count in range(1, len(runs) + 1):
        for combo in itertools.combinations(range(len(runs)), count):
            collapsed = _collapse(capped, [runs[i] for i in combo])
            if collapsed in recognised:
                return collapsed, len(lowered) - len(collapsed)
    return capped, len(lowered) - len(capped)


def _collapse(capped: str, positions) -> str:
    drop = set(p + 1 for p in positions)
    return "".join(ch for i, ch in enumerate(capped) if i not in drop)


def process(text: str, recognised) -> TokenizedText:
    """Segment, tokenize and spell-correct a whole text."""
    sentences = []
    for sentence in segment_sentences(text):
        tokens = []
        for token in tokenize(sentence):
            if token.is_punct_run or token.normalized == URL_TOKEN:
                tokens.append(token)
            elif token.normalized.startswith(("#", "@")):
                # Hashtags and mentions are kept verbatim (lowercased only).
                tokens.append(token)
            else:
                normalized, removed = correct_spelling(token.raw, recognised)
                tokens.append(Token(token.raw, normalized, removed))
        sentences.append(tuple(tokens))
    return TokenizedText(tuple(sentences))
