"""Supervised mode: hill-climbing refinement of lexicon term strengths.

Each pass visits every stress and relaxation term in a seeded random
order (re-drawn per pass). For a term it first tries strength +1, keeping
the change only when the summed absolute error over both scales drops by
at least ``min_improvement``; otherwise it tries strength -1 the same
way; otherwise the term is left alone. The climb stops after a pass with
no kept changes, or at the safety cap.

Randomness comes from ``random.Random(seed)`` (CPython's Mersenne
Twister); the reproducibility contract is determinism for a given seed,
not a particular bitstream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import lexicon as lx
from .errors import EmptyCorpus
from .scorer import Source, score_tokenized
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


def _example_error(doc, lex, gold_stress, gold_relax):
    """``(|stress - gold| + |relaxation - gold|, score trace)`` for one text."""
    score, trace = score_tokenized(doc, lex)
    return abs(score.stress - gold_stress) + abs(score.relaxation - gold_relax), trace


def total_absolute_error(lex: lx.LexiconSet, corpus) -> int:
    """Summed |prediction - gold| over both scales, over the whole corpus."""
    if not corpus:
        raise EmptyCorpus("cannot evaluate an empty corpus")
    return sum(_example_error(doc, lex, gs, gr)[0] for doc, gs, gr in tokenize_corpus(lex, corpus))


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
    """Incremental corpus error: re-scores only the examples a term can touch.

    The affected-example index is read from the traces of the first scoring
    pass. Masking and term matching depend only on patterns, never on
    strengths, so a strength edit of the starting set can change an
    example's score only if its trace names the edited term.
    """

    def __init__(self, lex, examples):
        self.docs = [doc for doc, _, _ in examples]
        self.golds = [(gs, gr) for _, gs, gr in examples]
        self.affected: dict[tuple[lx.Kind, str], list[int]] = {}
        self.errors = []
        for i, (doc, (gs, gr)) in enumerate(zip(self.docs, self.golds)):
            error, trace = _example_error(doc, lex, gs, gr)
            self.errors.append(error)
            hit = {(_TERM_SOURCES[c.source], c.label)
                   for sentence in trace.sentences for c in sentence.contributions
                   if c.source in _TERM_SOURCES}
            for key in hit:
                self.affected.setdefault(key, []).append(i)
        self.total = sum(self.errors)

    def total_with(self, lex, key) -> tuple[int, list[int]]:
        """Total error under a candidate lexicon differing only at `key`."""
        total = self.total
        updates = []
        for i in self.affected.get(key, ()):
            gs, gr = self.golds[i]
            new, _ = _example_error(self.docs[i], lex, gs, gr)
            total += new - self.errors[i]
            updates.append(new)
        return total, updates

    def accept(self, key, total, updates):
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

    terms = ([(lx.Kind.STRESS, e.pattern) for e in lex.stress_terms]
             + [(lx.Kind.RELAXATION, e.pattern) for e in lex.relax_terms])

    current = lex
    for _ in range(cfg.max_passes):
        report.passes_run += 1
        order = list(terms)
        rng.shuffle(order)
        changed = False
        for key in order:
            kind, pattern = key
            entry = next(e for e in current.terms(kind) if e.pattern == pattern)
            for new_strength in (entry.strength + 1, entry.strength - 1):
                if not 1 <= new_strength <= 5:
                    continue
                candidate = lx.set_strength(current, kind, pattern, new_strength)
                total, updates = tracker.total_with(candidate, key)
                if tracker.total - total >= cfg.min_improvement:
                    report.changes.append(Change(kind, pattern, entry.strength, new_strength,
                                                 tracker.total, total))
                    report.changes_made += 1
                    tracker.accept(key, total, updates)
                    current = candidate
                    changed = True
                    break
        if not changed:
            break

    report.final_error = tracker.total
    return current, report
