"""Seeded inputs for the tensilex benchmark, with independently computed expected scores.

Every text is built from planted items (lexicon terms with optional booster,
negator and repeated-letter emphasis, idioms, emoticons) set apart by filler
words, plus neutral decoration (URLs, hashtags, mentions, elongated fillers,
capitals). The expected ``(stress, relaxation)`` of a text is computed here
from what was planted, by the rules in the project README, without calling
the scorer:

- a sentence takes, per scale, the strongest contribution (1 when none);
- a term contributes ``clamp(strength + booster delta + emphasis)``, where
  emphasis is 1 when the spelling corrector removes two or more letters;
- a negated relaxation term contributes that value to stress instead;
  a negated stress term is neutralised (contributes 1);
- idioms and non-neutral emoticons contribute their strength unmodified;
- a sentence containing ``!`` adds 1 to each scale already at 2 or more;
- a text takes the most extreme sentence on each scale.

Items are kept apart so that fillers never match a term, booster or
negator, and no modifier reaches a term it was not planted for. Term
patterns all have the same length and a prefix no other word has, so the
set of patterns and stems is prefix-free and each planted token matches
exactly the entry it was made from.

Run ``python3 perfbench/gen.py --workload score_stream --seed 1 --out DIR``
(from the repository root) to write one workload's inputs to DIR, with
``expected.tsv`` (each stream text's expected score under ``lexicon/``) and,
where the workload has a corpus, ``golds.tsv`` (each corpus text's score
under ``true_lexicon/``). The benchmark runs it in a child process, so the
generator's memory does not count in the benchmark's peak.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from dataclasses import dataclass, field

# These four mirror data/default_lexicon; they are copied so that editing
# the starter lexicon does not change the benchmark's inputs.
BOOSTERS = {"very": 1, "really": 1, "extremely": 2, "incredibly": 2, "so": 1, "totally": 1,
            "absolutely": 2, "quite": 1, "slightly": -1, "somewhat": -1, "barely": -2,
            "hardly": -2}
NEGATORS = ("not", "never", "no", "don't", "can't", "won't", "cannot", "isn't", "aren't",
            "wasn't", "neither", "nor", "without")
IDIOMS = (("chill out", "relax", 3), ("stressed out", "stress", 4), ("wound up", "stress", 3),
          ("at ease", "relax", 3), ("fed up", "stress", 3), ("put my feet up", "relax", 3))
EMOTICONS = ((":)", "relax", 2), (":-)", "relax", 2), (":D", "relax", 3), (":(", "stress", 2),
             (":-(", "stress", 2), (":/", "stress", 2), (":|", "neutral", 1), (";)", "relax", 2))
# ":D" is in the lexicon but never planted: the tokenizer splits it into ":"
# and "D", so it cannot match.
PLANTED_EMOTICONS = tuple(e for e in EMOTICONS if e[0] != ":D")
ELONGATED_BOOSTERS = ("so", "very")  # their repeats collapse back to a dictionary word

STRESS_PREFIX, RELAX_PREFIX = "kr", "vl"
CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
WILDCARD_SUFFIXES = ("", "s", "ly", "ng", "rs", "th", "nt")
_DOUBLED = re.compile(r"(.)\1")

# Shares of each planted feature (per sentence unless noted). No source in
# this repository gives these for real tweets: they are assumptions, chosen
# so that every rule of the scorer is exercised, and should be calibrated
# against an annotated tweet corpus once one is available.
SENTENCES_PER_TEXT = (1, 2, 3)  # dealt in equal shares
TERM_COUNTS = (0, 1, 1, 2)  # terms per sentence, dealt in these shares
P_BOOSTER = 0.25  # per term
P_NEGATOR = 0.20  # per term
P_ELONGATE_TERM = 0.20  # per exact-pattern term
P_UPPER_TERM = 0.05  # per term
P_IDIOM = 0.10
P_EMOTICON = 0.15
P_URL = 0.10  # only in sentences without "!"
P_HASHTAG = 0.15
P_MENTION = 0.05
P_ELONGATE_FILLER = 0.10
P_OOV_FILLER = 0.10  # per filler: a word not in the dictionary
# Fillers that open a sentence, and that follow each planted group. With
# these, a text averages about 20 tokens, the length of the tweets on which
# scoring throughput was first measured.
LEADING_FILLERS = (2, 4)
GAP_FILLERS = (1, 4)
ZIPF_EXPONENT = 0.8  # term frequencies fall off by rank, as word frequencies do
TERMINATORS = (("!", 0.20), ("!!!", 0.10), ("?!", 0.05), (".", 0.40), ("?", 0.15), ("", 0.10))


@dataclass(frozen=True)
class Term:
    kind: str  # "stress" | "relax"
    stem: str
    wildcard: bool
    strength: int

    @property
    def pattern(self) -> str:
        return self.stem + "*" if self.wildcard else self.stem


@dataclass
class Vocabulary:
    terms: list[Term]  # in rank order: term i is planted with weight 1 / (i + 1) ** ZIPF_EXPONENT
    dictionary: list[str]  # recognised words, fillers among them
    oov: list[str]  # fillers outside the dictionary

    def __post_init__(self):
        self.cum_weights = _cum_weights(len(self.terms))


@dataclass(frozen=True)
class Item:
    """One planted scoring item: a term (with modifiers), an idiom or an emoticon."""
    kind: str  # "term" | "idiom" | "emoticon"
    scale: str  # "stress" | "relax" | "neutral"
    key: str  # term pattern, idiom phrase or glyph
    strength: int = 0  # idioms and emoticons only; terms read theirs from the lexicon
    booster: int = 0
    negated: bool = False
    extra_letters: int = 0  # letters the corrector must remove from the term


@dataclass
class Sentence:
    items: list[Item] = field(default_factory=list)
    exclaimed: bool = False


@dataclass
class Text:
    id: str
    text: str
    sentences: list[Sentence]


def _word(rng, syllables) -> str:
    parts = []
    for _ in range(syllables):
        s = rng.choice(CONSONANTS) + rng.choice(VOWELS)
        if rng.random() < 0.3:
            s += rng.choice(CONSONANTS)
        parts.append(s)
    return "".join(parts)


def _reserved() -> set[str]:
    words = set(BOOSTERS) | set(NEGATORS)
    for phrase, _, _ in IDIOMS:
        words.update(phrase.split())
    return words


def make_vocabulary(rng, n_terms, wildcard_share, n_dictionary) -> Vocabulary:
    """Terms (half stress, half relaxation) and filler words, all distinct.

    Kind, wildcard and strength follow from a term's rank alone; the seed
    draws the spellings. So every seed poses the optimizer the same shape of
    problem, and its cost differs little from seed to seed.
    """
    stems = set()
    terms = []
    for i in range(n_terms):
        kind = "stress" if i % 2 == 0 else "relax"
        prefix = STRESS_PREFIX if kind == "stress" else RELAX_PREFIX
        while True:
            stem = prefix + "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(3))
            if stem not in stems:
                break
        stems.add(stem)
        wildcard = int((i + 1) * wildcard_share) > int(i * wildcard_share)
        terms.append(Term(kind, stem, wildcard, 1 + i * 3 % 5))

    reserved = _reserved()
    fillers = set()
    n_oov = max(1, n_dictionary // 10)
    while len(fillers) < n_dictionary + n_oov:
        w = _word(rng, rng.randint(2, 3))
        if (len(w) >= 4 and not _DOUBLED.search(w) and w not in reserved
                and not w.startswith((STRESS_PREFIX, RELAX_PREFIX))):
            fillers.add(w)
    fillers = sorted(fillers)
    rng.shuffle(fillers)
    return Vocabulary(terms, fillers[:n_dictionary], fillers[n_dictionary:])


def _cum_weights(n):
    total, out = 0.0, []
    for rank in range(n):
        total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
        out.append(total)
    return out


def _elongate(rng, word, extra) -> str:
    pos = rng.randrange(len(word))
    return word[:pos] + word[pos] * extra + word[pos:]


def _filler(rng, vocab) -> str:
    if rng.random() < P_OOV_FILLER:
        return rng.choice(vocab.oov)
    word = rng.choice(vocab.dictionary)
    if rng.random() < P_ELONGATE_FILLER:
        return _elongate(rng, word, rng.randint(1, 4))
    return word


def _plant_term(rng, vocab) -> tuple[Item, list[str]]:
    term = rng.choices(vocab.terms, cum_weights=vocab.cum_weights)[0]
    extra = 0
    if term.wildcard:
        token = term.stem + rng.choice(WILDCARD_SUFFIXES)
    elif rng.random() < P_ELONGATE_TERM:
        extra = rng.randint(1, 3)
        token = _elongate(rng, term.stem, extra)
    else:
        token = term.stem
    if rng.random() < P_UPPER_TERM:
        token = token.upper()
    words = [token]
    booster = 0
    if rng.random() < P_BOOSTER:
        word = rng.choice(sorted(BOOSTERS))
        booster = BOOSTERS[word]
        if word in ELONGATED_BOOSTERS and rng.random() < 0.5:
            word = _elongate(rng, word, rng.randint(1, 3))
        words.insert(0, word)
    negated = rng.random() < P_NEGATOR
    if negated:
        words.insert(0, rng.choice(NEGATORS))
    return Item("term", term.kind, term.pattern, 0, booster, negated, extra), words


def _terminator(rng, last: bool) -> str:
    while True:
        r = rng.random()
        for mark, p in TERMINATORS:
            if r < p:
                break
            r -= p
        else:
            mark = "."
        if mark or last:  # a sentence that is not the last one needs a terminator
            return mark


def make_text(rng, vocab, text_id, n_sentences, term_counts) -> Text:
    """A text of ``n_sentences``; ``term_counts`` yields each sentence's number of terms."""
    sentences, chunks = [], []
    for s_idx in range(n_sentences):
        mark = _terminator(rng, s_idx == n_sentences - 1)
        sentence = Sentence(exclaimed="!" in mark)
        groups = []  # planted item word groups, kept apart by fillers
        for _ in range(next(term_counts)):
            item, words = _plant_term(rng, vocab)
            sentence.items.append(item)
            groups.append(words)
        if rng.random() < P_IDIOM:
            phrase, scale, strength = rng.choice(IDIOMS)
            sentence.items.append(Item("idiom", scale, phrase, strength))
            groups.append(phrase.split())
        if rng.random() < P_EMOTICON:
            glyph, scale, strength = rng.choice(PLANTED_EMOTICONS)
            sentence.items.append(Item("emoticon", scale, glyph, strength))
            groups.append([glyph])
        # Decoration scores nothing. A URL's dots split the sentence, so it
        # only goes where no "!" follows.
        if rng.random() < P_URL and not sentence.exclaimed:
            groups.append([rng.choice(("https://t.co/", "http://example.com/", "www.example.org/"))
                           + str(rng.randrange(10**6))])
        if rng.random() < P_HASHTAG:
            groups.append(["#" + rng.choice(vocab.dictionary)])
        if rng.random() < P_MENTION:
            groups.append(["@" + rng.choice(vocab.dictionary)])
        rng.shuffle(groups)

        words = [_filler(rng, vocab) for _ in range(rng.randint(*LEADING_FILLERS))]
        for group in groups:
            words.extend(group)
            words.extend(_filler(rng, vocab) for _ in range(rng.randint(*GAP_FILLERS)))
        words[0] = words[0].capitalize()
        words[-1] += mark  # the last word is always a filler
        chunks.append(" ".join(words))
        sentences.append(sentence)
    text = " ".join(chunks)
    _check_text(text)
    return Text(text_id, text, sentences)


def _check_text(text):
    if "\t" in text or "\n" in text or "\r" in text:
        raise ValueError(f"generated text holds a tab or newline: {text!r}")
    for word in re.findall(r"[\w']+", text):
        if len(re.findall(r"(.)\1+", word.lower())) > 3:
            raise ValueError(f"generated word has too many doubled-letter runs: {word!r}")


def _clamp(value) -> int:
    return max(1, min(5, value))


def expected_score(text: Text, strengths: dict[str, int]) -> tuple[int, int]:
    """``(stress, relaxation)`` of a text, from its planted items alone.

    ``strengths`` maps each term pattern to the strength the lexicon under
    test gives it.
    """
    stress, relax = 1, 1
    for sentence in text.sentences:
        s_mag, r_mag = 1, 1
        for item in sentence.items:
            if item.kind == "term":
                emphasis = 1 if item.extra_letters >= 2 else 0
                value = _clamp(strengths[item.key] + item.booster + emphasis)
                if item.scale == "relax" and not item.negated:
                    r_mag = max(r_mag, value)
                elif not item.negated:
                    s_mag = max(s_mag, value)
                elif item.scale == "relax":
                    s_mag = max(s_mag, value)  # negated relaxation turns to stress
            elif item.scale == "stress":
                s_mag = max(s_mag, item.strength)
            elif item.scale == "relax":
                r_mag = max(r_mag, item.strength)
        if sentence.exclaimed:
            s_mag = _clamp(s_mag + 1) if s_mag >= 2 else s_mag
            r_mag = _clamp(r_mag + 1) if r_mag >= 2 else r_mag
        stress, relax = max(stress, s_mag), max(relax, r_mag)
    return -stress, relax


def _deck(rng, values, n):
    """``n`` values in random order, each value's share exact (a shuffled deck)."""
    deck = [values[i % len(values)] for i in range(n)]
    rng.shuffle(deck)
    return deck


def make_texts(rng, vocab, n_texts, prefix) -> list[Text]:
    """Texts of 1-3 sentences with 0, 1, 1 or 2 terms each, dealt from decks.

    Dealing rather than drawing fixes the totals of sentences and terms, the
    optimizer's rescoring work depends on them, and drawn independently they
    moved a cross-validation unit's cost by +-10% between seeds.
    """
    lengths = _deck(rng, SENTENCES_PER_TEXT, n_texts)
    term_counts = iter(_deck(rng, TERM_COUNTS, sum(lengths)))
    texts = [make_text(rng, vocab, f"{prefix}{i:06d}", n, term_counts)
             for i, n in enumerate(lengths)]
    if len({t.id for t in texts}) != len(texts):
        raise ValueError("generated ids are not unique")
    return texts


def perturb(terms, every) -> list[Term]:
    """A copy of ``terms`` with every ``every``-th term by rank moved 2 strengths.

    Striding by rank, rather than drawing, always perturbs some frequent
    terms, so the climb has errors it can find on every seed.
    """
    out = []
    for rank, term in enumerate(terms):
        strength = term.strength
        if every and rank % every == 0:
            strength += 2 if strength <= 3 else -2
        out.append(Term(term.kind, term.stem, term.wildcard, strength))
    return out


# Inputs of each workload: lexicon size, wildcard share, dictionary size,
# texts in the stream (texts.txt) and in the annotated corpus (corpus.tsv),
# and the stride by rank of the term strengths perturbed in the start
# lexicon (crossval_supervised only).
SIZES = {
    "score_stream": dict(n_terms=3000, wildcard_share=0.2, n_dictionary=5000, n_stream=2000,
                         n_corpus=0),
    "crossval_supervised": dict(n_terms=200, wildcard_share=0.2, n_dictionary=1000, n_stream=2000,
                                n_corpus=200, perturb_every=3),
    "baseline_sweep": dict(n_terms=300, wildcard_share=0.2, n_dictionary=1000, n_stream=2000,
                           n_corpus=200),
}


@dataclass
class Inputs:
    stream: list[Text]
    expected: dict[str, tuple[int, int]]  # stream id -> score under the lexicon on disk
    corpus: list[Text]
    golds: dict[str, tuple[int, int]]  # corpus id -> score under the hidden true lexicon


def write_inputs(workload: str, seed: int, out_dir: str) -> Inputs:
    """Generate one workload's inputs and write them to ``out_dir``.

    Writes ``lexicon/`` (the lexicon under test) and ``texts.txt`` (the
    stream, one text a line); where the workload has a corpus, also
    ``corpus.tsv``, coded by ``true_lexicon/``, which is written beside it.
    """
    from tensilex.corpus import make_example, save_corpus
    from tensilex.lexicon import save_lexicon_set

    sizes = SIZES[workload]
    rng = random.Random(f"{workload}:{seed}")
    vocab = make_vocabulary(rng, sizes["n_terms"], sizes["wildcard_share"], sizes["n_dictionary"])
    stream = make_texts(rng, vocab, sizes["n_stream"], "s")
    corpus = make_texts(rng, vocab, sizes["n_corpus"], "c")
    true_terms = vocab.terms
    start_terms = perturb(true_terms, sizes.get("perturb_every", 0))
    start_strengths = {t.pattern: t.strength for t in start_terms}
    true_strengths = {t.pattern: t.strength for t in true_terms}
    inputs = Inputs(stream, {t.id: expected_score(t, start_strengths) for t in stream},
                    corpus, {t.id: expected_score(t, true_strengths) for t in corpus})

    os.makedirs(out_dir, exist_ok=True)
    save_lexicon_set(to_lexicon_set(start_terms, vocab), os.path.join(out_dir, "lexicon"))
    with open(os.path.join(out_dir, "texts.txt"), "w", encoding="utf-8") as fh:
        for t in stream:
            fh.write(t.text + "\n")
    if corpus:
        save_lexicon_set(to_lexicon_set(true_terms, vocab), os.path.join(out_dir, "true_lexicon"))
        save_corpus([make_example(t.id, rng.choice(("commute", "leisure")), t.text,
                                  (inputs.golds[t.id][0],), (inputs.golds[t.id][1],))
                     for t in corpus], os.path.join(out_dir, "corpus.tsv"))
    return inputs


def to_lexicon_set(terms, vocab):
    from tensilex.lexicon import (BoosterEntry, EmoticonEntry, IdiomEntry, Kind, LexiconEntry,
                                  LexiconSet)
    kinds = {"stress": Kind.STRESS, "relax": Kind.RELAXATION, "neutral": Kind.NEUTRAL}
    words = set(vocab.dictionary) | _reserved()
    return LexiconSet(
        stress_terms=tuple(LexiconEntry(t.pattern, Kind.STRESS, t.strength)
                           for t in terms if t.kind == "stress"),
        relax_terms=tuple(LexiconEntry(t.pattern, Kind.RELAXATION, t.strength)
                          for t in terms if t.kind == "relax"),
        boosters=tuple(BoosterEntry(w, d) for w, d in BOOSTERS.items()),
        negators=frozenset(NEGATORS),
        idioms=tuple(IdiomEntry(tuple(p.split()), kinds[k], s) for p, k, s in IDIOMS),
        emoticons=tuple(EmoticonEntry(g, kinds[k], s) for g, k, s in EMOTICONS),
        dictionary=frozenset(words),
    )


def write_scores(path, texts, scores):
    """One line per text, in order: id, stress, relaxation, text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tstress\trelaxation\ttext\n")
        for t in texts:
            fh.write("%s\t%d\t%d\t%s\n" % ((t.id,) + scores[t.id] + (t.text,)))


def read_scores(path) -> list[tuple[str, tuple[int, int], str]]:
    """``(id, (stress, relaxation), text)`` per line of a file written by :func:`write_scores`."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        rows = [line.rstrip("\n").split("\t", 3) for line in fh]
    return [(i, (int(s), int(r)), text) for i, s, r, text in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs to")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    inputs = write_inputs(args.workload, args.seed, args.out)
    write_scores(os.path.join(args.out, "expected.tsv"), inputs.stream, inputs.expected)
    if inputs.corpus:
        write_scores(os.path.join(args.out, "golds.tsv"), inputs.corpus, inputs.golds)
    print(f"wrote {len(inputs.stream)} stream texts and {len(inputs.corpus)} corpus texts "
          f"to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
