"""Supervised mode: hill-climbing refinement of lexicon term strengths.

Each pass visits every stress and relaxation term in a seeded random
order (re-drawn per pass). For a term it first tries strength +1, keeping
the change only when the summed absolute error over both scales drops by
at least ``min_improvement``; otherwise it tries strength -1 the same
way; otherwise the term is left alone. The climb stops after a pass with
no kept changes, or at the safety cap.

The climb edits a table of term strengths, not a lexicon: each text is
scored once per climb, a candidate re-scores from the traces of the texts
that match the edited term, and only a kept change is written through
:func:`lexicon.set_strength` into the set the climb returns.

Randomness comes from ``random.Random(seed)`` (CPython's Mersenne
Twister); the reproducibility contract is determinism for a given seed,
not a particular bitstream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import lexicon as lx
from .errors import EmptyCorpus
from .scorer import Source, score_tokenized, sentence_magnitudes, term_strength
from .textproc import TokenizedText, process


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    min_improvement: int = 2
    max_passes: int = 1000

    def __post_init__(self):
        if self.min_improvement < 1:
            raise ValueError("min_improvement must be >= 1")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")


@dataclass(frozen=True)
class Change:
    kind: lx.Kind
    pattern: str
    old_strength: int
    new_strength: int
    error_before: int
    error_after: int


@dataclass
class OptimizationReport:
    passes_run: int = 0
    changes_made: int = 0
    initial_error: int = 0
    final_error: int = 0
    changes: list[Change] = field(default_factory=list)

    def log_lines(self):
        yield f"initial_error\t{self.initial_error}"
        for c in self.changes:
            yield (f"change\t{c.kind.value}\t{c.pattern}\t{c.old_strength}->{c.new_strength}"
                   f"\t{c.error_before}->{c.error_after}")
        yield f"passes_run\t{self.passes_run}"
        yield f"changes_made\t{self.changes_made}"
        yield f"final_error\t{self.final_error}"


def total_absolute_error(lex: lx.LexiconSet, corpus) -> int:
    """Summed |prediction - gold| over both scales, over the whole corpus."""
    if not corpus:
        raise EmptyCorpus("cannot evaluate an empty corpus")
    return _ErrorTracker(lex, tokenize_corpus(lex, corpus)).total


def tokenize_corpus(lex: lx.LexiconSet, corpus) -> list[tuple[TokenizedText, int, int]]:
    """``(doc, gold_stress, gold_relax)`` for each example, in corpus order.

    Tokens depend only on the lexicon's patterns and dictionary, never on
    strengths, so the result stays valid for every strength edit of ``lex``.
    """
    recognised = lex.recognised_words
    return [(process(ex.text, recognised), ex.gold_stress, ex.gold_relax) for ex in corpus]


# The trace sources of a lexicon term match, by the kind of term matched.
_TERM_SOURCES = {Source.STRESS_TERM: lx.Kind.STRESS, Source.NEGATED_STRESS: lx.Kind.STRESS,
                 Source.RELAX_TERM: lx.Kind.RELAXATION, Source.NEGATED_RELAX: lx.Kind.RELAXATION}


class _ErrorTracker:
    """Incremental corpus error over a ``{(Kind, pattern): strength}`` table.

    Each example is scored once, at the set's strengths, and its trace kept.
    Masking and term matching depend only on patterns, never on strengths,
    so an edit changes only the final strengths of the edited term's matches:
    just the examples whose trace names it are re-scored, from that trace, by
    the scorer's own rules (:func:`term_strength`, :func:`sentence_magnitudes`).
    """

    def __init__(self, lex, examples):
        self.strengths = {(kind, e.pattern): e.strength
                          for kind in (lx.Kind.STRESS, lx.Kind.RELAXATION) for e in lex.terms(kind)}
        self.golds = [(gs, gr) for _, gs, gr in examples]
        self.traces = [score_tokenized(doc, lex)[1] for doc, _, _ in examples]
        self.affected: dict[tuple[lx.Kind, str], list[int]] = {}
        for i, trace in enumerate(self.traces):
            hit = {(_TERM_SOURCES[c.source], c.label)
                   for sentence in trace.sentences for c in sentence.contributions
                   if c.source in _TERM_SOURCES}
            for key in hit:
                self.affected.setdefault(key, []).append(i)
        self.errors = [self._error(i) for i in range(len(self.traces))]
        self.total = sum(self.errors)

    def _error(self, i) -> int:
        """Example ``i``'s |stress - gold| + |relaxation - gold| under the table."""
        strengths = self.strengths
        stress = relax = 1  # text magnitudes: the extreme sentence on each scale
        for sentence in self.traces[i].sentences:
            s_mag, r_mag, _, _ = sentence_magnitudes(
                ((c.scale, term_strength(c.source, strengths[_TERM_SOURCES[c.source], c.label],
                                         c.booster_delta, c.repeat_boost)
                  if c.source in _TERM_SOURCES else c.final_strength)
                 for c in sentence.contributions),
                sentence.exclamation_present)
            stress, relax = max(stress, s_mag), max(relax, r_mag)
        gold_stress, gold_relax = self.golds[i]
        return abs(-stress - gold_stress) + abs(relax - gold_relax)

    def total_with(self, key, strength) -> tuple[int, list[int]]:
        """Total error with term ``key`` at ``strength``, and its examples' new errors."""
        kept, self.strengths[key] = self.strengths[key], strength
        affected = self.affected.get(key, ())
        updates = [self._error(i) for i in affected]
        self.strengths[key] = kept
        return self.total + sum(new - self.errors[i] for i, new in zip(affected, updates)), updates

    def accept(self, key, strength, total, updates):
        self.strengths[key] = strength
        for i, new in zip(self.affected.get(key, ()), updates):
            self.errors[i] = new
        self.total = total


def hill_climb(lex: lx.LexiconSet, corpus, cfg: OptimizerConfig = OptimizerConfig()):
    """Refine term strengths against the corpus; returns (lexicon, report)."""
    return hill_climb_tokenized(lex, tokenize_corpus(lex, corpus), cfg)


def hill_climb_tokenized(lex: lx.LexiconSet, examples, cfg: OptimizerConfig = OptimizerConfig()):
    """:func:`hill_climb` over :func:`tokenize_corpus` output for ``lex``.

    Lets a caller that climbs many times from one lexicon, such as the
    cross-validation driver, tokenize each text once.
    """
    if not examples:
        raise EmptyCorpus("cannot optimize against an empty corpus")
    rng = random.Random(cfg.seed)
    tracker = _ErrorTracker(lex, examples)
    report = OptimizationReport(initial_error=tracker.total)

    current = lex
    for _ in range(cfg.max_passes):
        report.passes_run += 1
        order = list(tracker.strengths)  # stress then relaxation terms, as the set holds them
        rng.shuffle(order)
        changed = False
        for key in order:
            old = tracker.strengths[key]
            for new in (old + 1, old - 1):
                if not 1 <= new <= 5:
                    continue
                total, updates = tracker.total_with(key, new)
                if tracker.total - total >= cfg.min_improvement:
                    report.changes.append(Change(*key, old, new, tracker.total, total))
                    report.changes_made += 1
                    tracker.accept(key, new, total, updates)
                    current = lx.set_strength(current, *key, new)
                    changed = True
                    break
        if not changed:
            break

    report.final_error = tracker.total
    return current, report
