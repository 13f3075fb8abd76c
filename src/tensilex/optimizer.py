"""Supervised mode: hill-climbing refinement of lexicon term strengths.

Each pass visits every stress and relaxation term in a seeded random
order (re-drawn per pass). For a term it first tries strength +1, keeping
the change only when the summed absolute error over both scales drops by
at least ``min_improvement``; otherwise it tries strength -1 the same
way; otherwise the term is left alone. The climb stops after a pass with
no kept changes, or at the safety cap.

The climb edits a ``{(Kind, pattern): strength}`` table, not a lexicon:
each text is scored once (:func:`tokenize_corpus`), a candidate re-scores
from the traces of the texts that match the edited term (:func:`rescore`),
and :func:`hill_climb` builds its lexicon once, from the final table.

Randomness comes from ``random.Random(seed)`` (CPython's Mersenne
Twister); the reproducibility contract is determinism for a given seed,
not a particular bitstream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import lexicon as lx
from .errors import EmptyCorpus, TooSmall
from .scorer import DualScore, ScoreTrace, Source, score_text, sentence_magnitudes, term_strength


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    min_improvement: int = 2
    max_passes: int = 1000

    def __post_init__(self):
        if self.min_improvement < 1:
            raise TooSmall("min_improvement must be >= 1")
        if self.max_passes < 1:
            raise TooSmall("max_passes must be >= 1")


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
    return _ErrorTracker(lex, tokenize_corpus(lex, corpus)).total


def tokenize_corpus(lex: lx.LexiconSet, corpus) -> list[tuple[ScoreTrace, int, int]]:
    """``(trace, gold_stress, gold_relax)`` for each example, in corpus order.

    Each text is scored once, at ``lex``'s strengths; its trace holds its
    tokens and matches. Matching never depends on strengths, so :func:`rescore`
    gives the text's score under any strength table for ``lex``'s terms.
    """
    recognised = lex.recognised_words
    return [(score_text(ex.text, lex, recognised)[1], ex.gold_stress, ex.gold_relax)
            for ex in corpus]


# The trace sources of a lexicon term match, by the kind of term matched.
_TERM_SOURCES = {Source.STRESS_TERM: lx.Kind.STRESS, Source.NEGATED_STRESS: lx.Kind.STRESS,
                 Source.RELAX_TERM: lx.Kind.RELAXATION, Source.NEGATED_RELAX: lx.Kind.RELAXATION}


def rescore(trace: ScoreTrace, strengths) -> DualScore:
    """The score of ``trace``'s text with its term matches at ``strengths``, a
    ``{(Kind, pattern): strength}`` table; idioms and emoticons keep theirs.

    Only rules 3-9 are redone, by the scorer's own :func:`term_strength` and
    :func:`sentence_magnitudes`; masking and matching stand as traced.
    """
    stress = relax = 1  # text magnitudes: the extreme sentence on each scale
    for sentence in trace.sentences:
        s_mag, r_mag, _, _ = sentence_magnitudes(
            ((c.scale, term_strength(c.source, strengths[_TERM_SOURCES[c.source], c.label],
                                     c.booster_delta, c.repeat_boost)
              if c.source in _TERM_SOURCES else c.final_strength)
             for c in sentence.contributions),
            sentence.exclamation_present)
        stress, relax = max(stress, s_mag), max(relax, r_mag)
    return DualScore(-stress, relax)


class _ErrorTracker:
    """Incremental corpus error over a ``{(Kind, pattern): strength}`` table.

    Reads the traces of :func:`tokenize_corpus` output and never calls the
    scorer. An edit changes only the final strengths of the edited term's
    matches, so just the examples whose trace names it are re-scored.
    """

    def __init__(self, lex, examples):
        if not examples:
            raise EmptyCorpus("no annotated examples to score against")
        self.strengths = {(kind, e.pattern): e.strength
                          for kind in (lx.Kind.STRESS, lx.Kind.RELAXATION) for e in lex.terms(kind)}
        self.traces = [trace for trace, _, _ in examples]
        self.golds = [(gs, gr) for _, gs, gr in examples]
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
        score = rescore(self.traces[i], self.strengths)
        gold_stress, gold_relax = self.golds[i]
        return abs(score.stress - gold_stress) + abs(score.relaxation - gold_relax)

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
    strengths, report = hill_climb_tokenized(lex, tokenize_corpus(lex, corpus), cfg)
    return lx.set_strengths(lex, strengths), report


def hill_climb_tokenized(lex: lx.LexiconSet, examples, cfg: OptimizerConfig = OptimizerConfig()):
    """:func:`hill_climb` over :func:`tokenize_corpus` output for ``lex``;
    returns (strength table, report), the table as :func:`rescore` takes it.

    Lets a caller that climbs many times from one lexicon, such as the
    cross-validation driver, score each text once and build no lexicon.
    """
    rng = random.Random(cfg.seed)
    tracker = _ErrorTracker(lex, examples)
    report = OptimizationReport(initial_error=tracker.total)

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
                    changed = True
                    break
        if not changed:
            break

    report.final_error = tracker.total
    return tracker.strengths, report
