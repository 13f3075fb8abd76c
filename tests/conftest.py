import os
import random

import pytest

from tensilex.corpus import make_example
from tensilex.lexicon import Kind, LexiconEntry, LexiconSet
from tensilex.scorer import score_text

DEFAULT_LEXICON = os.path.join(os.path.dirname(__file__), os.pardir, "data", "default_lexicon")


@pytest.fixture
def paper_lexicon():
    """Fixture lexicon covering the three illustrative tweets."""
    return LexiconSet(
        stress_terms=(LexiconEntry("delayed", Kind.STRESS, 3),
                      LexiconEntry("filthy", Kind.STRESS, 2)),
        relax_terms=(LexiconEntry("asleep", Kind.RELAXATION, 4),
                     LexiconEntry("trust", Kind.RELAXATION, 2),
                     LexiconEntry("calm", Kind.RELAXATION, 3)),
        boosters=(),
        negators=frozenset({"never", "not", "no", "don't", "can't"}),
        idioms=(),
        emoticons=(),
        dictionary=frozenset(
            "almost home and the train is delayed fell asleep messed my hair "
            "up never trust a man with kitchen i am calm".split()),
    )


FILLERS = ("today", "the", "journey", "was", "quite", "again", "about",
           "yesterday", "morning", "evening", "while", "walking", "around")


def make_reference_lexicon(n_terms=50):
    """Synthetic lexicon: n_terms/2 stress and n_terms/2 relaxation terms."""
    half = n_terms // 2
    stress = tuple(LexiconEntry(f"strainword{i}", Kind.STRESS, 2 + i % 4) for i in range(half))
    relax = tuple(LexiconEntry(f"soothword{i}", Kind.RELAXATION, 2 + i % 4) for i in range(half))
    words = {e.pattern for e in stress + relax} | set(FILLERS)
    return LexiconSet(stress, relax, (), frozenset(), (), (), frozenset(words))


def make_synthetic_corpus(lex, n_texts=200, seed=0):
    """Texts each containing exactly one lexicon term; golds scored by lex."""
    rng = random.Random(seed)
    terms = [e.pattern for e in lex.stress_terms] + [e.pattern for e in lex.relax_terms]
    recognised = lex.recognised_words
    examples = []
    for i in range(n_texts):
        term = terms[i % len(terms)]
        left = " ".join(rng.choices(FILLERS, k=rng.randint(1, 3)))
        right = " ".join(rng.choices(FILLERS, k=rng.randint(1, 3)))
        text = f"{left} {term} {right}"
        score, _ = score_text(text, lex, recognised)
        label = "transport" if i % 3 == 0 else "emotion"
        examples.append(make_example(f"t{i:04d}", label, text,
                                     (score.stress,), (score.relaxation,)))
    return examples


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        print(f"\nACCEPTANCE {name}: {status}")
    elif report.when == "setup" and report.skipped:
        print(f"\nACCEPTANCE {name}: SKIP")
