"""Supervised mode: hill-climbing refinement of lexicon term strengths.

Each pass visits every stress and relaxation term in a seeded random
order (re-drawn per pass). For a term it first tries strength +1, keeping
the change only when the summed absolute error over both scales drops by
at least ``min_improvement``; otherwise it tries strength -1 the same
way; otherwise the term is left alone. The climb stops after a pass with
no kept changes, or at the safety cap.

The climb edits a strength table, not a lexicon: a list of strengths
indexed by term id, a term's position in the set's stress-then-relaxation
order (:func:`term_keys`). Each text is scored once (:func:`tokenize_corpus`)
and its trace compiled once into a :class:`Plan` (:func:`compile_plan`).
Per sentence, a plan holds the magnitudes no table can move (idioms,
emoticons, negated stress words), the ``!`` boost as a lookup table, and
each term match as its id and its final strength at each of the five table
strengths. The finals come from the scorer's :func:`term_strength` and the
boost table from :func:`sentence_magnitudes`, so rules 3-9 live only in the
scorer, and :func:`rescore` evaluates a plan by lookups and maxima alone. A
candidate re-scores only the texts whose score can move with the edited
term: those whose plan holds a match of it that the table moves. A term
matched only as a negated stress word moves no text, so it is never tried.
The cross-validation driver compiles each text once per run and predicts
its held-out texts with :func:`rescore` too. :func:`hill_climb` builds its
lexicon once, from the final table.

Randomness comes from ``random.Random(seed)`` (CPython's Mersenne
Twister); the reproducibility contract is determinism for a given seed,
not a particular bitstream.
"""

from __future__ import annotations

import functools
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
    if not corpus:
        raise EmptyCorpus("no annotated examples to score against")
    return sum(abs(trace.score.stress - ex.gold_stress) + abs(trace.score.relaxation - ex.gold_relax)
               for trace, ex in zip(tokenize_corpus(lex, corpus), corpus))


def tokenize_corpus(lex: lx.LexiconSet, corpus) -> list[ScoreTrace]:
    """The trace of each example's text, in corpus order.

    Each text is scored once, at ``lex``'s strengths; its trace holds its
    score, tokens and matches. Matching never depends on strengths, so the
    trace's :func:`compile_plan` gives the text's score under any strength
    table.
    """
    return [score_text(ex.text, lex)[1] for ex in corpus]


def term_keys(lex: lx.LexiconSet) -> tuple[tuple[lx.Kind, str], ...]:
    """``(Kind, pattern)`` of each stress, then each relaxation term of ``lex``.

    A term's id is its position here, and a strength table is a list of
    strengths indexed by term id.
    """
    return tuple((e.kind, e.pattern) for e in lex.stress_terms + lex.relax_terms)


# The trace sources of a lexicon term match, by the kind of term matched.
_TERM_SOURCES = {Source.STRESS_TERM: lx.Kind.STRESS, Source.NEGATED_STRESS: lx.Kind.STRESS,
                 Source.RELAX_TERM: lx.Kind.RELAXATION, Source.NEGATED_RELAX: lx.Kind.RELAXATION}

# Rule 9 as a lookup: a sentence with "!" takes _BOOST[m] for magnitude m on
# each scale (the rule is the same on both), one without keeps m.
_NO_BOOST = tuple(range(6))
_BOOST = (0,) + tuple(sentence_magnitudes(((lx.Kind.STRESS, m),), True)[0] for m in range(1, 6))


@functools.cache
def _finals(source: Source, delta: int, repeat: int) -> tuple[int, ...]:
    """A match's final strength at each table strength 1..5 (index 0 unused)."""
    return (0,) + tuple(term_strength(source, s, delta, repeat) for s in range(1, 6))


@dataclass(frozen=True)
class Plan:
    """A text's score as a function of a strength table; see :func:`compile_plan`."""
    stress: int  # magnitudes of the sentences that no table moves
    relax: int
    # Each other sentence: (fixed stress, fixed relaxation, boost, stress matches,
    # relaxation matches); a match (term id, finals) scores finals[table[term id]].
    sentences: tuple[tuple[int, int, tuple[int, ...], tuple, tuple], ...]


def compile_plan(trace: ScoreTrace, ids) -> Plan:
    """``trace``'s text as a :class:`Plan`; ``ids`` maps ``(Kind, pattern)`` to term id.

    Idioms, emoticons and matches whose final strength is the same at every
    table strength (a negated stress word) give a sentence's fixed
    magnitudes, by the scorer's :func:`sentence_magnitudes`. Every other
    match keeps its :func:`term_strength` at each table strength, and the
    sentence its ``!`` boost table, so :func:`rescore` only takes maxima and
    looks values up.
    """
    stress = relax = 1
    sentences = []
    for sentence in trace.sentences:
        fixed, stress_matches, relax_matches = [], [], []
        for c in sentence.contributions:
            kind = _TERM_SOURCES.get(c.source)
            if kind is None:  # an idiom or an emoticon
                fixed.append((c.scale, c.final_strength))
                continue
            term = ids[kind, c.label]
            finals = _finals(c.source, c.booster_delta, c.repeat_boost)
            if len(set(finals[1:])) == 1:
                fixed.append((c.scale, finals[1]))
            elif c.scale is lx.Kind.STRESS:
                stress_matches.append((term, finals))
            else:
                relax_matches.append((term, finals))
        if stress_matches or relax_matches:
            s, r, _, _ = sentence_magnitudes(fixed, False)
            sentences.append((s, r, _BOOST if sentence.exclamation_present else _NO_BOOST,
                              tuple(stress_matches), tuple(relax_matches)))
        else:
            s, r, _, _ = sentence_magnitudes(fixed, sentence.exclamation_present)
            stress, relax = max(stress, s), max(relax, r)
    return Plan(stress, relax, tuple(sentences))


def compile_plans(lex: lx.LexiconSet, traces) -> list[Plan]:
    """:func:`compile_plan` of each of ``traces``, scored with ``lex``, under its term ids."""
    ids = {key: term for term, key in enumerate(term_keys(lex))}
    return [compile_plan(trace, ids) for trace in traces]


def _magnitudes(plan: Plan, table) -> tuple[int, int]:
    """``plan``'s text magnitudes: each scale's extreme sentence under ``table``."""
    stress, relax = plan.stress, plan.relax
    for s, r, boost, stress_matches, relax_matches in plan.sentences:
        for term, finals in stress_matches:
            final = finals[table[term]]
            if final > s:
                s = final
        for term, finals in relax_matches:
            final = finals[table[term]]
            if final > r:
                r = final
        s, r = boost[s], boost[r]
        if s > stress:
            stress = s
        if r > relax:
            relax = r
    return stress, relax


def rescore(plan: Plan, table) -> DualScore:
    """The score of ``plan``'s text with its term matches at ``table``, a list of
    strengths by term id; idioms and emoticons keep theirs."""
    stress, relax = _magnitudes(plan, table)
    return DualScore(-stress, relax)


class _ErrorTracker:
    """Incremental corpus error over a strength table (a list by term id).

    Reads the examples' plans and golds and never calls the scorer. An edit
    changes only the final strengths of the edited term's matches, so just
    the examples whose plan holds a match that moves with it are re-scored.
    """

    def __init__(self, table, plans, golds):
        if not plans:
            raise EmptyCorpus("no annotated examples to score against")
        self.table, self.plans, self.golds = table, plans, golds
        self.hits: list[list[int]] = [[] for _ in table]  # by term id: examples it moves
        for i, plan in enumerate(plans):
            for term in {term for *_, stress_matches, relax_matches in plan.sentences
                         for term, _ in stress_matches + relax_matches}:
                self.hits[term].append(i)
        self.errors = [self._error(i) for i in range(len(plans))]
        self.total = sum(self.errors)

    def _error(self, i) -> int:
        """Example ``i``'s |stress - gold| + |relaxation - gold| under the table."""
        stress, relax = _magnitudes(self.plans[i], self.table)
        gold_stress, gold_relax = self.golds[i]
        return abs(stress + gold_stress) + abs(relax - gold_relax)

    def total_at(self, term, strength) -> tuple[int, list[int]]:
        """Total error with term id ``term`` at ``strength``, and its examples' new errors."""
        table, hits, errors = self.table, self.hits[term], self.errors
        kept, table[term] = table[term], strength
        updates = [self._error(i) for i in hits]
        table[term] = kept
        return self.total + sum(updates) - sum([errors[i] for i in hits]), updates

    def accept_at(self, term, strength, total, updates):
        self.table[term] = strength
        for i, new in zip(self.hits[term], updates):
            self.errors[i] = new
        self.total = total


def hill_climb(lex: lx.LexiconSet, corpus, cfg: OptimizerConfig = OptimizerConfig()):
    """Refine term strengths against the corpus; returns (lexicon, report)."""
    plans = compile_plans(lex, tokenize_corpus(lex, corpus))
    table, report = hill_climb_tokenized(lex, plans, corpus, cfg)
    return lx.set_strengths(lex, dict(zip(term_keys(lex), table))), report


def hill_climb_tokenized(lex: lx.LexiconSet, plans, examples,
                         cfg: OptimizerConfig = OptimizerConfig()):
    """:func:`hill_climb` from ``lex``'s strengths, over ``plans`` (the
    :func:`compile_plans` of ``examples``) against the examples' golds;
    returns (strength table, report), the table as :func:`rescore` takes it.

    Lets a caller that climbs many times from one lexicon, such as the
    cross-validation driver, score and compile each text once and build no
    lexicon.
    """
    rng = random.Random(cfg.seed)
    keys = term_keys(lex)
    table = [e.strength for e in lex.stress_terms + lex.relax_terms]
    tracker = _ErrorTracker(table, plans, [(ex.gold_stress, ex.gold_relax) for ex in examples])
    report = OptimizationReport(initial_error=tracker.total)

    for _ in range(cfg.max_passes):
        report.passes_run += 1
        order = list(range(len(table)))  # stress then relaxation terms, as the set holds them
        rng.shuffle(order)
        changed = False
        for term in order:
            if not tracker.hits[term]:
                continue  # no text moves with it
            old = table[term]
            for new in (old + 1, old - 1):
                if not 1 <= new <= 5:
                    continue
                total, updates = tracker.total_at(term, new)
                if tracker.total - total >= cfg.min_improvement:
                    report.changes.append(Change(*keys[term], old, new, tracker.total, total))
                    report.changes_made += 1
                    tracker.accept_at(term, new, total, updates)
                    changed = True
                    break
        if not changed:
            break

    report.final_error = tracker.total
    return table, report
