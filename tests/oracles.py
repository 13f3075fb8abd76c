"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's code paths: plain Python loops,
no shared helpers, so a bug cannot hide on both sides of a comparison.
"""

import itertools
import math
import random
import re

import numpy as np

from tensilex.baseline import LOGISTIC_L2
from tensilex.lexicon import Kind, set_strength
from tensilex.optimizer import Change, OptimizationReport, total_absolute_error
from tensilex.scorer import DualScore, SentenceTrace, Source, TermContribution
from tensilex.textproc import Token, TokenizedText, correct_spelling


def kripp_alpha_bruteforce(rows, metric="linear"):
    """Krippendorff alpha by explicit pair enumeration over items."""
    if metric == "linear":
        delta = lambda a, b: abs(a - b)
    else:
        delta = lambda a, b: (a - b) ** 2

    units = [[v for v in row if v is not None] for row in rows]
    units = [u for u in units if len(u) >= 2]
    if not units:
        raise ValueError("no codeable pairs")
    n = sum(len(u) for u in units)

    d_observed = 0.0
    for u in units:
        m = len(u)
        pair_sum = sum(delta(u[i], u[j]) for i in range(m) for j in range(m) if i != j)
        d_observed += pair_sum / (m - 1)
    d_observed /= n

    pooled = [v for u in units for v in u]
    d_expected = sum(delta(a, b) for a in pooled for b in pooled) / (n * (n - 1))
    if d_expected == 0.0:
        return 1.0
    return 1.0 - d_observed / d_expected


def information_gain_bruteforce(presence, labels):
    """Gain of one binary feature, straight from the entropy definition."""

    def entropy(ys):
        h = 0.0
        for y in set(ys):
            p = ys.count(y) / len(ys)
            h -= p * math.log2(p)
        return h

    with_f = [y for p, y in zip(presence, labels) if p]
    without_f = [y for p, y in zip(presence, labels) if not p]
    h = entropy(labels)
    if with_f:
        h -= (len(with_f) / len(labels)) * entropy(with_f)
    if without_f:
        h -= (len(without_f) / len(labels)) * entropy(without_f)
    return h


def entropy_of_counts(label_counts):
    """Label entropy from per-label counts, term by term in label order."""
    total = sum(label_counts)
    h = 0.0
    for c in label_counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def gains_per_distinct_vector(vectors, labels):
    """Each feature some text has (a positive count), in name order, and its
    information gain, with the arithmetic of a loop over the distinct
    vectors of per-label presence counts: one gain per vector, from the
    entropies of its with- and without-feature label counts, in label order."""
    label_values = sorted(set(labels))
    n = len(labels)
    total_counts = [labels.count(v) for v in label_values]
    h_y = entropy_of_counts(total_counts)
    presence = {}
    for vec, y in zip(vectors, labels):
        for feature, count in vec.counts.items():
            if count > 0:
                presence.setdefault(feature, [0] * len(label_values))[label_values.index(y)] += 1
    names = sorted(presence)
    gain_of = {}
    for counts in map(tuple, (presence[name] for name in names)):
        if counts not in gain_of:
            n_with = sum(counts)
            without_f = [t - w for t, w in zip(total_counts, counts)]
            n_without = n - n_with
            h_cond = (n_with / n) * entropy_of_counts(counts)
            if n_without:
                h_cond += (n_without / n) * entropy_of_counts(without_f)
            gain_of[counts] = max(0.0, h_y - h_cond)
    return names, [gain_of[tuple(presence[name])] for name in names]


def pearson_bruteforce(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = sum((a - mx) ** 2 for a in xs)
    vy = sum((b - my) ** 2 for b in ys)
    if vx == 0 or vy == 0:
        return None
    return cov / math.sqrt(vx * vy)


def lookup_linear_scan(token, entries):
    """Term lookup by scanning every entry, as the library did before it
    compiled term lists: an exact pattern returns at once; otherwise the
    longest wildcard stem prefixing the token wins (the first of equal
    length). Returns (entry, strength) or None."""
    best = None
    best_stem = None
    for entry in entries:
        if entry.pattern.endswith("*"):
            stem = entry.pattern[:-1]
            if token.startswith(stem):
                if best is None or len(stem) > len(best_stem):
                    best, best_stem = entry, stem
        elif token == entry.pattern:
            return entry, entry.strength
    if best is None:
        return None
    return best, best.strength


def data_lines_linewise(path):
    """(line_number, text) of each data line of a lexicon or corpus file, read
    line by line as the readers did before they read a file whole: text mode
    maps ``\\r\\n`` and ``\\r`` to ``\\n``, a leading BOM is dropped, and a blank
    line or one whose first non-blank character is ``#`` is skipped. Bytes that
    are not UTF-8 raise ValueError naming the first line, numbered by the same
    text-mode split, whose bytes fail to decode."""
    rows = []
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for i, line in enumerate(fh, start=1):
                if line.lstrip()[:1] not in ("", "#"):
                    rows.append((i, line.rstrip("\n")))
        except UnicodeDecodeError:
            # Latin-1 maps each byte to the character of its value, so text mode
            # splits the raw bytes at the same \n, \r\n and \r.
            with open(path, encoding="latin-1") as raw:
                for lineno, line in enumerate(raw, start=1):
                    try:
                        line.encode("latin-1").decode("utf-8")
                    except UnicodeDecodeError:
                        raise ValueError(f"{path}: line {lineno}: not valid UTF-8") from None
            raise ValueError(f"{path}: not valid UTF-8") from None
    return rows


def logistic_loss_and_gradient(x, target, w):
    """One class's objective at weights ``w`` (bias last): mean logistic loss
    over rows of ``x`` with +1/-1 ``target``, plus LOGISTIC_L2 / 2 times the
    squared non-bias weights; and its gradient."""
    xb = np.hstack([x, np.ones((len(x), 1))])
    margin = target * (xb @ w)
    loss = float(np.mean(np.logaddexp(0.0, -margin))) + 0.5 * LOGISTIC_L2 * float(w[:-1] @ w[:-1])
    grad = -(xb * (target / (1.0 + np.exp(margin)))[:, None]).mean(axis=0)
    grad[:-1] += LOGISTIC_L2 * w[:-1]
    return loss, grad


def logistic_minimum(x, target, tolerance=1e-10):
    """One class's minimum loss, by accelerated gradient descent (step 1/L,
    L from the spectral norm of the design; momentum restarts whenever it
    points uphill) until max |gradient| is below ``tolerance``."""
    xb = np.hstack([x, np.ones((len(x), 1))])
    step = 1.0 / (0.25 * np.linalg.norm(xb, 2) ** 2 / len(x) + LOGISTIC_L2)
    w = prev = np.zeros(xb.shape[1])
    k = 0
    for _ in range(1_000_000):
        v = w + k / (k + 3) * (w - prev)
        loss, grad = logistic_loss_and_gradient(x, target, v)
        if np.abs(grad).max() < tolerance:
            return loss
        prev, w = w, v - step * grad
        k = 0 if grad @ (w - prev) > 0 else k + 1
    raise AssertionError("gradient descent did not reach the tolerance")


def design_matrix_plain(vectors, subset):
    """Feature values cell by cell: a dense total by name, else the sparse count."""
    dense = {"<n_unigrams>": lambda v: v.n_unigrams, "<n_bigrams>": lambda v: v.n_bigrams,
             "<n_trigrams>": lambda v: v.n_trigrams}
    return [[float(dense[f](vec)) if f in dense else float(vec.counts.get(f, 0)) for f in subset]
            for vec in vectors]


def score_sentence_scan(tokens, lex):
    """Score one sentence the way the library did before it matched on word
    lists: every idiom tried at every position over the tokens themselves,
    every emoticon on every punctuation run, terms found by a linear scan and
    the rule arithmetic written out. Returns (DualScore, SentenceTrace)."""
    tokens = tuple(tokens)
    n = len(tokens)
    masked = [False] * n
    contributions = []
    boosters = {b.word: b.delta for b in lex.boosters}

    for idiom in lex.idioms:
        width = len(idiom.tokens)
        i = 0
        while i + width <= n:
            window = tokens[i:i + width]
            if (not any(masked[i:i + width])
                    and all(t.normalized == w and not t.is_punct_run for t, w in zip(window, idiom.tokens))):
                for j in range(i, i + width):
                    masked[j] = True
                if idiom.kind is not Kind.NEUTRAL:
                    contributions.append(TermContribution(
                        i, Source.IDIOM, idiom.strength, 0, 0, idiom.strength, idiom.kind,
                        " ".join(idiom.tokens)))
                i += width
            else:
                i += 1

    for i, token in enumerate(tokens):
        if masked[i] or not token.is_punct_run:
            continue
        for emo in lex.emoticons:
            if token.raw == emo.glyph:
                if emo.kind is not Kind.NEUTRAL:
                    contributions.append(TermContribution(
                        i, Source.EMOTICON, emo.strength, 0, 0, emo.strength, emo.kind, emo.glyph))
                masked[i] = True
                break

    for i, token in enumerate(tokens):
        if masked[i] or token.is_punct_run or token.normalized == "<url>":
            continue
        for kind, entries in ((Kind.STRESS, lex.stress_terms), (Kind.RELAXATION, lex.relax_terms)):
            found = lookup_linear_scan(token.normalized, entries)
            if found is None:
                continue
            entry, base = found

            j = i - 1
            if j >= 0 and tokens[j].normalized in lex.negators:
                j -= 1
            delta = 0
            if j >= 0 and not masked[j] and tokens[j].normalized in boosters:
                delta = boosters[tokens[j].normalized]

            repeat = 1 if token.letters_removed >= 2 else 0

            j = i - 1
            if j >= 0 and tokens[j].normalized in boosters:
                j -= 1
            negated = j >= 0 and not masked[j] and tokens[j].normalized in lex.negators

            if kind is Kind.RELAXATION:
                source = Source.NEGATED_RELAX if negated else Source.RELAX_TERM
                scale = Kind.STRESS if negated else Kind.RELAXATION
            else:
                source = Source.NEGATED_STRESS if negated else Source.STRESS_TERM
                scale = Kind.STRESS
            final = 1 if source is Source.NEGATED_STRESS else max(1, min(5, base + delta + repeat))
            contributions.append(TermContribution(
                i, source, base, delta, repeat, final, scale, entry.pattern))

    exclaim = any(t.is_punct_run and "!" in t.raw for t in tokens)
    stress_mag = max([c.final_strength for c in contributions if c.scale is Kind.STRESS], default=1)
    relax_mag = max([c.final_strength for c in contributions if c.scale is Kind.RELAXATION], default=1)
    stress_boosted = exclaim and stress_mag >= 2
    relax_boosted = exclaim and relax_mag >= 2
    if stress_boosted:
        stress_mag = min(5, stress_mag + 1)
    if relax_boosted:
        relax_mag = min(5, relax_mag + 1)
    score = DualScore(-stress_mag, relax_mag)
    return score, SentenceTrace(tokens, tuple(contributions), exclaim, stress_boosted, relax_boosted, score)


def correct_spelling_bruteforce(raw, recognised):
    """Spelling correction by trying every subset of length-two runs, fewest
    first and then in itertools.combinations order, as the library did before
    it indexed recognised words by skeleton. Exponential in the run count."""
    lowered = raw.lower()
    capped = re.sub(r"(.)\1+", lambda m: m.group(1) * 2, lowered)
    if capped in recognised:
        return capped, len(lowered) - len(capped)
    runs = [m.start() for m in re.finditer(r"(.)\1", capped)]
    for count in range(1, len(runs) + 1):
        for combo in itertools.combinations(range(len(runs)), count):
            drop = {runs[k] + 1 for k in combo}
            collapsed = "".join(ch for i, ch in enumerate(capped) if i not in drop)
            if collapsed in recognised:
                return collapsed, len(lowered) - len(collapsed)
    return capped, len(lowered) - len(capped)


# A whitespace chunk of a line that starts like a URL.
_URL_CHUNK = re.compile(r"(?<!\S)(?:https?://|www\.)\S*", re.IGNORECASE)


def _sentence_spans(text):
    """Each sentence as ``(line, start, end)``, by the masked two-regex
    segmenter: in a copy of each line, blank the ``.!?`` inside each URL
    chunk's body (all but the chunk's trailing run), split the copy after
    each ``.!?`` run, and strip each piece of the line."""
    def blank(match):
        body = match.group().rstrip(".!?")
        return body.translate(str.maketrans(".!?", "___")) + match.group()[len(body):]

    for line in text.splitlines():
        masked = _URL_CHUNK.sub(blank, line)
        for match in re.finditer(r"[^.!?]*[.!?]+|[^.!?]+", masked):
            piece = line[match.start():match.end()]
            if piece.strip():
                start = match.start() + len(piece) - len(piece.lstrip())
                yield line, start, start + len(piece.strip())


def segment_masked(text):
    """``segment_sentences`` by the masked two-regex segmenter."""
    return [line[start:end] for line, start, end in _sentence_spans(text)]


def _chunk_tokens(chunk, is_url):
    """A whitespace chunk's tokens: a URL chunk is one ``<url>`` token plus its
    trailing ``.!?`` run, and any other chunk splits into words (``#``/``@``
    prefix, inner apostrophes) and punctuation runs."""
    if is_url:
        url = chunk.rstrip(".!?")
        tail = [Token(chunk[len(url):], chunk[len(url):], is_punct_run=True)] if url != chunk else []
        return [Token(url, "<url>")] + tail
    return [Token(word, word.lower()) if word else Token(punct, punct, is_punct_run=True)
            for word, punct in re.findall(r"([#@]?\w[\w']*)|([^\w\s]+)", chunk)]


def process_composed(text, recognised):
    """``process`` as the composition it replaced: segment with the masked
    segmenter, tokenize each sentence chunk by chunk, then spell-correct each
    word token but a URL, hashtag or mention and build that token again.
    URL-ness is decided once per whitespace chunk of the line, so a sentence
    that starts inside a chunk, after a terminator, holds no URL."""
    sentences = []
    for line, start, end in _sentence_spans(text):
        url_starts = {match.start() for match in _URL_CHUNK.finditer(line)}
        tokens = []
        for chunk in re.finditer(r"\S+", line[start:end]):
            for token in _chunk_tokens(chunk.group(), start + chunk.start() in url_starts):
                if not (token.is_punct_run or token.normalized == "<url>"
                        or token.normalized.startswith(("#", "@"))):
                    normalized, removed = correct_spelling(token.raw, recognised)
                    token = Token(token.raw, normalized, removed)
                tokens.append(token)
        sentences.append(tuple(tokens))
    return TokenizedText(tuple(sentences))


def hill_climb_bruteforce(lex, corpus, cfg):
    """The hill climb as the optimizer specifies it, with nothing skipped:
    each pass shuffles every term id (stress terms, then relaxation terms)
    with ``random.Random(cfg.seed)``, and every candidate strength is tried by
    editing the lexicon with ``set_strength`` and re-scoring the whole corpus.
    Returns (lexicon, report)."""
    rng = random.Random(cfg.seed)
    keys = [(Kind.STRESS, e.pattern) for e in lex.stress_terms]
    keys += [(Kind.RELAXATION, e.pattern) for e in lex.relax_terms]
    strengths = [e.strength for e in lex.stress_terms + lex.relax_terms]
    current = total_absolute_error(lex, corpus)
    report = OptimizationReport(initial_error=current)
    for _ in range(cfg.max_passes):
        report.passes_run += 1
        order = list(range(len(keys)))
        rng.shuffle(order)
        changed = False
        for term in order:
            kind, pattern = keys[term]
            old = strengths[term]
            for new in (old + 1, old - 1):
                if not 1 <= new <= 5:
                    continue
                candidate = set_strength(lex, kind, pattern, new)
                total = total_absolute_error(candidate, corpus)
                if current - total >= cfg.min_improvement:
                    report.changes.append(Change(kind, pattern, old, new, current, total))
                    report.changes_made += 1
                    lex, current, strengths[term] = candidate, total, new
                    changed = True
                    break
        if not changed:
            break
    report.final_error = current
    return lex, report
