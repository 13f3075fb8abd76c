"""The rule engine: dual-scale scoring of sentences and texts.

Each sentence receives the magnitude of its strongest stress term and its
strongest relaxation term (baseline 1 on each scale when nothing matches),
after idiom overrides, emoticons, booster words, repeated-letter emphasis,
negation, and the sentence-level exclamation boost. A text takes the
extreme sentence value on each scale. Every score comes with a trace that
replays to the same numbers.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

from .lexicon import Kind, LexiconSet
from .textproc import URL_TOKEN, Token, TokenizedText, process

STRESS_BASELINE = -1
RELAX_BASELINE = 1

_normalized = operator.attrgetter("normalized")  # a token's normalized form


class Source(enum.Enum):
    STRESS_TERM = "stress-term"
    RELAX_TERM = "relax-term"
    IDIOM = "idiom"
    EMOTICON = "emoticon"
    NEGATED_RELAX = "negated-relax"
    NEGATED_STRESS = "negated-stress"


@dataclass(frozen=True, slots=True)
class DualScore:
    stress: int  # -5..-1
    relaxation: int  # 1..5

    def __post_init__(self):
        if not -5 <= self.stress <= -1:
            raise ValueError(f"stress out of range: {self.stress}")
        if not 1 <= self.relaxation <= 5:
            raise ValueError(f"relaxation out of range: {self.relaxation}")


@dataclass(frozen=True, slots=True)
class TermContribution:
    token_index: int
    source: Source
    base_strength: int
    booster_delta: int
    repeat_boost: int
    final_strength: int
    scale: Kind  # STRESS or RELAXATION
    label: str  # matched pattern / idiom phrase / glyph


@dataclass(frozen=True, slots=True)
class SentenceTrace:
    tokens: tuple[Token, ...]
    contributions: tuple[TermContribution, ...]
    exclamation_present: bool
    stress_boosted: bool
    relax_boosted: bool
    score: DualScore


@dataclass(frozen=True, slots=True)
class ScoreTrace:
    sentences: tuple[SentenceTrace, ...]
    score: DualScore


def _clamp(value: int) -> int:
    return max(1, min(5, value))


def term_strength(source: Source, base: int, delta: int, repeat: int) -> int:
    """Rules 3-6: a matched term's final strength, ``base + delta + repeat``
    clamped to 1..5; a negated stress word is neutralised to 1."""
    if source is Source.NEGATED_STRESS:
        return 1
    return _clamp(base + delta + repeat)


def sentence_magnitudes(finals, exclaim: bool) -> tuple[int, int, bool, bool]:
    """Rules 7-9: ``(stress, relaxation, stress boosted, relaxation boosted)``
    from a sentence's ``(scale, final strength)`` pairs. Each scale takes its
    strongest (1 if none); a ``!`` adds 1, clamped, to a scale already at 2+."""
    stress_mag = relax_mag = 1
    for scale, final in finals:
        if scale is Kind.STRESS:
            stress_mag = max(stress_mag, final)
        else:
            relax_mag = max(relax_mag, final)
    stress_boosted = exclaim and stress_mag >= 2
    relax_boosted = exclaim and relax_mag >= 2
    return (_clamp(stress_mag + 1) if stress_boosted else stress_mag,
            _clamp(relax_mag + 1) if relax_boosted else relax_mag,
            stress_boosted, relax_boosted)


def score_sentence(tokens, lex: LexiconSet) -> tuple[DualScore, SentenceTrace]:
    """Score one tokenized sentence; see the module pipeline description."""
    tokens = tuple(tokens)
    contributions: list[TermContribution] = []
    masked = [False] * len(tokens)  # which tokens an idiom or an emoticon covers

    # 1. Idioms override their constituent words: longest first, leftmost.
    # Only idioms whose first token is a word here can match, and only where
    # that word is; sorting by their (unique) ranks tries them in their order
    # in lex.idioms. Every idiom token is a word token, so no punctuation run
    # matches one.
    by_first = lex.idioms_by_first
    if not by_first.keys().isdisjoint(map(_normalized, tokens)):
        words = tuple(map(_normalized, tokens))
        starts: dict[str, list[int]] = {}
        for i, word in enumerate(words):
            if word in by_first:
                starts.setdefault(word, []).append(i)
        for _, idiom in sorted(found for word in starts for found in by_first[word]):
            width = len(idiom.tokens)
            for i in starts[idiom.tokens[0]]:
                if words[i:i + width] == idiom.tokens and not any(masked[i:i + width]):
                    # An idiom masks its tokens and, unless neutral, scores its own strength.
                    masked[i:i + width] = [True] * width
                    if idiom.kind is not Kind.NEUTRAL:
                        contributions.append(TermContribution(
                            i, Source.IDIOM, idiom.strength, 0, 0, idiom.strength, idiom.kind,
                            " ".join(idiom.tokens)))

    # One left-to-right pass over the tokens does rules 2-6. A mask only ever
    # reaches back to earlier tokens, so each token's emoticon is known before
    # any later word reads it; emoticons' contributions are gathered apart and
    # spliced in once, after the idioms' and before any term's.
    exclaim = False
    emoticon_at, emoticons = len(contributions), []
    by_glyph = lex.emoticons_by_glyph
    boosters = lex.booster_deltas
    negators = lex.negators
    lookup = lex.compiled_terms.lookup
    for i, (raw, word, letters_removed, is_punct_run) in enumerate(tokens):
        if is_punct_run:
            # 2. Emoticons match punctuation runs verbatim and case-sensitively;
            # a run holding "!" also sets the sentence's exclamation flag for rule 9.
            if "!" in raw:
                exclaim = True
            emo = by_glyph.get(raw)
            if emo is not None:
                masked[i] = True
                if emo.kind is not Kind.NEUTRAL:
                    emoticons.append(TermContribution(
                        i, Source.EMOTICON, emo.strength, 0, 0, emo.strength, emo.kind, emo.glyph))
            continue
        if word == URL_TOKEN or masked[i]:
            continue
        found = lookup(word)
        if not found:
            continue

        # 3-6. Term matches with booster, repeated-letter emphasis and negation.
        j = i - 1  # booster immediately before, allowing one negator between
        if j >= 0 and tokens[j].normalized in negators:
            j -= 1
        delta = boosters.get(tokens[j].normalized, 0) if j >= 0 and not masked[j] else 0

        repeat = 1 if letters_removed >= 2 else 0

        j = i - 1  # negator immediately before, allowing one booster between
        if j >= 0 and tokens[j].normalized in boosters:
            j -= 1
        negated = j >= 0 and not masked[j] and tokens[j].normalized in negators

        for entry in found:  # the stress match, then the relaxation match
            base = entry.strength
            if entry.kind is Kind.RELAXATION:
                # A negated relaxing word becomes a stress word of the same (boosted) strength.
                source = Source.NEGATED_RELAX if negated else Source.RELAX_TERM
            else:
                source = Source.NEGATED_STRESS if negated else Source.STRESS_TERM
            contributions.append(TermContribution(
                i, source, base, delta, repeat, term_strength(source, base, delta, repeat),
                Kind.STRESS if negated else entry.kind, entry.pattern))

    contributions[emoticon_at:emoticon_at] = emoticons

    # 7-9. Per-scale maxima, exclamation boost, clamp.
    stress_mag, relax_mag, stress_boosted, relax_boosted = sentence_magnitudes(
        [(c.scale, c.final_strength) for c in contributions], exclaim)
    score = DualScore(-stress_mag, relax_mag)
    trace = SentenceTrace(tokens, tuple(contributions), exclaim, stress_boosted, relax_boosted, score)
    return score, trace


def score_tokenized(doc: TokenizedText, lex: LexiconSet) -> tuple[DualScore, ScoreTrace]:
    """Score an already-tokenized text; with no sentences, the baselines."""
    traces = [score_sentence(sentence, lex)[1] for sentence in doc.sentences]
    score = DualScore(min([t.score.stress for t in traces], default=STRESS_BASELINE),
                      max([t.score.relaxation for t in traces], default=RELAX_BASELINE))
    return score, ScoreTrace(tuple(traces), score)


def score_text(text: str, lex: LexiconSet, recognised=None) -> tuple[DualScore, ScoreTrace]:
    """Score a raw text; the text takes the extreme sentence value per scale."""
    if recognised is None:
        recognised = lex.recognised_words
    return score_tokenized(process(text, recognised), lex)


def replay_trace(trace: ScoreTrace) -> DualScore:
    """Recompute the score from the trace alone; used to validate traces."""
    if not trace.sentences:
        return DualScore(STRESS_BASELINE, RELAX_BASELINE)
    stress = STRESS_BASELINE
    relax = RELAX_BASELINE
    for sent in trace.sentences:
        s_mag, r_mag = 1, 1
        for c in sent.contributions:
            if c.source is Source.NEGATED_STRESS:
                expected = 1
            elif c.source in (Source.IDIOM, Source.EMOTICON):
                expected = c.base_strength
            else:
                expected = _clamp(c.base_strength + c.booster_delta + c.repeat_boost)
            if expected != c.final_strength:
                raise AssertionError(f"inconsistent contribution arithmetic: {c}")
            if c.scale is Kind.STRESS:
                s_mag = max(s_mag, c.final_strength)
            else:
                r_mag = max(r_mag, c.final_strength)
        if sent.stress_boosted:
            if not (sent.exclamation_present and s_mag >= 2):
                raise AssertionError("stress boost flag inconsistent with trace")
            s_mag = _clamp(s_mag + 1)
        if sent.relax_boosted:
            if not (sent.exclamation_present and r_mag >= 2):
                raise AssertionError("relaxation boost flag inconsistent with trace")
            r_mag = _clamp(r_mag + 1)
        if DualScore(-s_mag, r_mag) != sent.score:
            raise AssertionError("sentence trace does not replay to its score")
        stress = min(stress, -s_mag)
        relax = max(relax, r_mag)
    if DualScore(stress, relax) != trace.score:
        raise AssertionError("text trace does not replay to its score")
    return trace.score


def explain(text: str, lex: LexiconSet) -> str:
    """Human-readable rendering of the score trace for one text."""
    return format_trace(score_text(text, lex)[1])


def format_trace(trace: ScoreTrace) -> str:
    """Human-readable rendering of a score trace, as :func:`explain` prints it."""
    score = trace.score
    lines = [f"text score: stress {score.stress}, relaxation {score.relaxation}"]
    for s_idx, sent in enumerate(trace.sentences, start=1):
        words = " ".join(t.raw for t in sent.tokens)
        lines.append(f"  sentence {s_idx}: {words!r} -> stress {sent.score.stress}, "
                     f"relaxation {sent.score.relaxation}")
        if not sent.contributions:
            lines.append("    no matches; baseline scores")
        for c in sent.contributions:
            parts = [f"{c.source.value} {c.label!r} at token {c.token_index}: base {c.base_strength}"]
            if c.booster_delta:
                parts.append(f"booster {c.booster_delta:+d}")
            if c.repeat_boost:
                parts.append("repeated letters +1")
            parts.append(f"-> {c.final_strength} on {c.scale.value}")
            lines.append("    " + ", ".join(parts))
        if sent.stress_boosted:
            lines.append("    exclamation boost +1 on stress")
        if sent.relax_boosted:
            lines.append("    exclamation boost +1 on relaxation")
    return "\n".join(lines)
