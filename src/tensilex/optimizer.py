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
A plan holds, per scale, the magnitude no table can move (idioms,
emoticons, negated stress words) and each other term match as its id and
its magnitude at each of the five table strengths, its sentence's ``!``
boost applied. The boost is non-decreasing, so the maximum of boosted
values is the boosted maximum, and a plan needs no sentences. The
magnitudes come from the scorer's :func:`term_strength` and
:func:`sentence_magnitudes`, so rules 3-9 live only in the scorer, and a
plan is evaluated by lookups and maxima alone, in one loop: the climb's
text errors and :func:`rescore`, which predicts the cross-validation
driver's held-out texts, both go through it.

The climb keeps the table, each term's texts (those whose plan holds a
match of it that the table moves), each text's error and their total. A
candidate sets the term's strength in the table and re-scores only that
term's texts, since no other text's score can move; a rejected candidate
puts the old strength back. Only those texts' errors can fall, and none
below 0, so a term whose texts' summed error is below ``min_improvement``
is skipped untried: no edit of it could be kept, and the climb ends as if
it had been tried. A term matched only as a negated stress word moves no
text, sums to 0 and is always skipped. :func:`hill_climb` builds its
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


def _boosted(scale: lx.Kind, final: int, exclaim: bool) -> int:
    """``final`` on ``scale`` after rule 9, as the sole match of a sentence with or without ``!``."""
    stress, relax, _, _ = sentence_magnitudes(((scale, final),), exclaim)
    return stress if scale is lx.Kind.STRESS else relax


@functools.cache
def _finals(source: Source, delta: int, repeat: int, scale: lx.Kind, exclaim: bool) -> tuple[int, ...]:
    """A match's boosted magnitude at each table strength 1..5 (index 0 unused)."""
    return (0,) + tuple(_boosted(scale, term_strength(source, s, delta, repeat), exclaim)
                        for s in range(1, 6))


@dataclass(frozen=True)
class Plan:
    """A text's score as a function of a strength table; see :func:`compile_plan`."""
    stress: int  # magnitudes that no table moves
    relax: int
    # Each other match as (term id, magnitudes); it scores magnitudes[table[term id]].
    stress_matches: tuple[tuple[int, tuple[int, ...]], ...]
    relax_matches: tuple[tuple[int, tuple[int, ...]], ...]


def compile_plan(trace: ScoreTrace, ids) -> Plan:
    """``trace``'s text as a :class:`Plan`; ``ids`` maps ``(Kind, pattern)`` to term id.

    Each contribution takes its sentence's ``!`` boost. Idioms, emoticons and
    matches whose boosted magnitude is the same at every table strength (a
    negated stress word) give the fixed magnitudes; every other match keeps
    its magnitude at each table strength, so :func:`rescore` only takes
    maxima and looks values up.
    """
    fixed = {lx.Kind.STRESS: 1, lx.Kind.RELAXATION: 1}
    matches = {lx.Kind.STRESS: [], lx.Kind.RELAXATION: []}
    for sentence in trace.sentences:
        exclaim = sentence.exclamation_present
        for c in sentence.contributions:
            kind = _TERM_SOURCES.get(c.source)
            if kind is None:  # an idiom or an emoticon
                magnitude = _boosted(c.scale, c.final_strength, exclaim)
            else:
                finals = _finals(c.source, c.booster_delta, c.repeat_boost, c.scale, exclaim)
                if len(set(finals[1:])) > 1:
                    matches[c.scale].append((ids[kind, c.label], finals))
                    continue
                magnitude = finals[1]
            fixed[c.scale] = max(fixed[c.scale], magnitude)
    return Plan(fixed[lx.Kind.STRESS], fixed[lx.Kind.RELAXATION],
                tuple(matches[lx.Kind.STRESS]), tuple(matches[lx.Kind.RELAXATION]))


def compile_plans(lex: lx.LexiconSet, traces) -> list[Plan]:
    """:func:`compile_plan` of each of ``traces``, scored with ``lex``, under its term ids."""
    ids = {key: term for term, key in enumerate(term_keys(lex))}
    return [compile_plan(trace, ids) for trace in traces]


def _magnitudes(plan: Plan, table) -> tuple[int, int]:
    """``plan``'s text magnitudes under ``table``: each scale's largest."""
    stress, relax = plan.stress, plan.relax
    for term, finals in plan.stress_matches:
        final = finals[table[term]]
        if final > stress:
            stress = final
    for term, finals in plan.relax_matches:
        final = finals[table[term]]
        if final > relax:
            relax = final
    return stress, relax


def rescore(plan: Plan, table) -> DualScore:
    """The score of ``plan``'s text with its term matches at ``table``, a list of
    strengths by term id; idioms and emoticons keep theirs."""
    stress, relax = _magnitudes(plan, table)
    return DualScore(-stress, relax)


def _errors(plans, golds, texts, table) -> list[int]:
    """Each of ``texts``' (positions in ``plans``) |stress - gold| + |relaxation - gold|
    under ``table``; ``golds`` holds each text's (gold stress, gold relaxation)."""
    errors = []
    for i in texts:
        stress, relax = _magnitudes(plans[i], table)
        gold_stress, gold_relax = golds[i]
        errors.append(abs(stress + gold_stress) + abs(relax - gold_relax))
    return errors


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
    lexicon. The skip (see the module docstring) draws no randomness and
    changes no state, so the result is that of trying every term. Raises
    :class:`EmptyCorpus` when there are no plans.
    """
    if not plans:
        raise EmptyCorpus("no annotated examples to score against")
    rng = random.Random(cfg.seed)
    keys = term_keys(lex)
    table = [e.strength for e in lex.stress_terms + lex.relax_terms]
    golds = [(ex.gold_stress, ex.gold_relax) for ex in examples]
    hits: list[list[int]] = [[] for _ in table]  # by term id: the texts it moves
    for i, plan in enumerate(plans):
        for term in {term for term, _ in plan.stress_matches + plan.relax_matches}:
            hits[term].append(i)
    errors = _errors(plans, golds, range(len(plans)), table)
    total = sum(errors)
    report = OptimizationReport(initial_error=total)

    for _ in range(cfg.max_passes):
        report.passes_run += 1
        order = list(range(len(table)))  # stress then relaxation terms, as the set holds them
        rng.shuffle(order)
        changed = False
        for term in order:
            texts = hits[term]
            hit_error = sum([errors[i] for i in texts])
            if hit_error < cfg.min_improvement:
                continue  # no edit of it can lower the total by min_improvement
            old = table[term]
            for new in (old + 1, old - 1):
                if not 1 <= new <= 5:
                    continue
                table[term] = new
                updates = _errors(plans, golds, texts, table)
                after = total + sum(updates) - hit_error
                if total - after >= cfg.min_improvement:
                    report.changes.append(Change(*keys[term], old, new, total, after))
                    for i, error in zip(texts, updates):
                        errors[i] = error
                    total = after
                    changed = True
                    break
            else:
                table[term] = old  # neither edit was kept
        if not changed:
            break

    report.changes_made = len(report.changes)
    report.final_error = total
    return table, report
