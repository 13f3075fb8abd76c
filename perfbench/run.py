"""The tensilex benchmark: one closed-loop caller, one process, one thread.

Usage, from the repository root::

    python3 perfbench/run.py --workload score_stream --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``score_stream``, ``crossval_supervised`` and
``baseline_sweep``. Each run has a child process generate its inputs from
``--seed`` (see ``gen.py``) and write them with the program's own savers. It
loads them back, then calls the program's public functions in whole units
(a pass over the texts, one cross-validation repetition, one feature-count
sweep) until ``--seconds`` is used up, checking every output against
independently computed expectations.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced phase, plus the
traced and untraced throughput of the same work. Earlier lines give the
interpreter, numpy version and CPU count, and a digest of the first unit's
outputs that repeats for a repeated seed. Results and spans are also
written under ``perfbench/_out/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported by the program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402

import gen  # noqa: E402  (this directory; it loads tensilex only when called)
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, "_work")
OUT_DIR = os.path.join(HERE, "_out")

# setup_s is the median of at least SETUP_REPEATS setups, repeated until
# SETUP_MIN_S of CPU has gone, so a 1 ms setup still spans several samples
# of the host's speed.
SETUP_REPEATS = 51
SETUP_MIN_S = 1.0
K = 10  # folds, as in the paper's protocol
# Every fold climbs exactly this many passes. Uncapped, folds took 3 to 5
# passes depending on the seed, which moved a unit's cost by +-20%.
CLIMB_PASSES = 3
SWEEP_GRID = (25, 50, 100)
SWEEP_KINDS = ("nb", "logistic")
SWEEP_SCALE = "stress"
IG_TOP_CHECKED = 20

# Timed calls are measured in the process's CPU time: the program does no
# I/O in them, and a run fails its checks if it starts a thread or a child
# process (see outside_work). On a shared host the speed of a CPU second
# itself drifts: within a second, the same work here took anywhere from 1x
# to 2x as long. So while calls run, SIGALRM fires every SAMPLE_EVERY_S of
# wall time and its handler times a small fixed reference kernel; its time
# over KERNEL_NOMINAL_S is the host's slowdown. (A CPU-time timer would not
# do: while ITIMER_PROF is armed, Linux advances the process CPU clock only
# at scheduler ticks, and the kernel then reads as taking no time.) A call's time leaves out the
# handler's and is divided by the slowdown around it (see Timer.run). Times
# are thus in seconds of a host on which the kernel takes its nominal time,
# about this machine's usual speed. Raw CPU and wall times are kept in the
# result file.
SAMPLE_EVERY_S = 0.1
SAMPLE_MARGIN = 2
KERNEL_NOMINAL_S = 0.003
clock = time.process_time
wall = time.perf_counter  # run length only

_KERNEL_WORDS = tuple(f"{chr(97 + i % 26)}{i * 7919 % 10007:05d}" for i in range(600))


def reference_kernel():
    """Fixed pure-Python work: dict updates, slicing, sorting, small tuples."""
    counts, total = {}, 0
    for _ in range(6):
        for i, word in enumerate(_KERNEL_WORDS):
            key = word[1:4]
            counts[key] = counts.get(key, 0) + 1
            total += len(word) + (i & 3)
        ordered = sorted(_KERNEL_WORDS, key=lambda s: s[::-1])
        total += len([(s, j) for j, s in enumerate(ordered[:200])])
    return total


class Timer:
    """Runs calls one at a time, timing each on the reference scale."""

    def __init__(self):
        self.samples = []  # slowdown: kernel time / KERNEL_NOMINAL_S
        self.handler_s = 0.0
        self._sample()  # warm up
        self.samples.clear()

    def _sample(self, *_):
        # No collection may start in here: its time would be taken off the
        # program's and would also raise the slowdown the program's time is
        # divided by.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            reference_kernel()
            end = clock()
            self.samples.append((end - start) / KERNEL_NOMINAL_S)
            self.handler_s += clock() - start
        finally:
            if collecting:
                gc.enable()

    def run(self, calls):
        """``(results, scaled seconds, raw CPU seconds)``, one of each per call.

        A call that raises gives its exception as its result; the checks
        count it as a failed operation. Times are kept in arrays, so that
        tens of thousands of calls add little to peak memory.
        """
        results, raw, firsts, lasts = [], array("d"), array("q"), array("q")
        for _ in range(SAMPLE_MARGIN + 1):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            for call in calls:
                first, h0, t0 = len(self.samples) - 1, self.handler_s, clock()
                try:
                    out = call()
                except Exception as exc:
                    out = exc
                elapsed = clock() - t0 - (self.handler_s - h0)
                results.append(out)
                raw.append(elapsed)
                firsts.append(first)
                lasts.append(len(self.samples))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(SAMPLE_MARGIN + 1):
            self._sample()
        # A call's slowdown is the mean of the samples taken while it ran and
        # of SAMPLE_MARGIN + 1 on each side.
        scaled = array("d", (x / statistics.fmean(self.samples[max(0, first - SAMPLE_MARGIN):
                                                                last + SAMPLE_MARGIN + 1])
                             for x, first, last in zip(raw, firsts, lasts)))
        return results, scaled, raw


def outside_work():
    """Errors if work ran outside this process's main thread.

    Timed work is measured in this process's CPU time, which leaves out
    child processes; and a thread left running may go on working outside
    the timed calls. Neither is measured, so a run with either is not valid.
    """
    errors = []
    try:
        threads = len(os.listdir("/proc/self/task"))  # native threads too
    except OSError:
        threads = threading.active_count()
    if threads > 1:
        errors.append(f"{threads - 1} thread(s) besides the caller are alive")
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return errors, children.ru_utime + children.ru_stime


class ProgramMissing(Exception):
    pass


def import_program():
    """Import tensilex from this checkout's ``src``, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tensilex", "__init__.py")):
        raise ProgramMissing(f"no tensilex package under {SRC}")
    sys.path.insert(0, SRC)
    import tensilex
    if not os.path.abspath(tensilex.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"imported tensilex from {tensilex.__file__}, not {SRC}")
    import tensilex.baseline
    import tensilex.corpus
    import tensilex.optimizer
    import tensilex.scorer  # noqa: F401
    return tensilex


def _close(a, b, tol=1e-9):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def _is_whole(x, tol=1e-6):
    return abs(x - round(x)) <= tol


class Workload:
    """One workload.

    ``setup`` is timed for setup_s. ``unit_calls`` gives the calls of one
    timed unit; ``check_unit`` checks their results outside the timing and
    returns ``(attempted, failed, texts handled, digest text)``. Where the
    unit's calls are not per-text calls, ``latency_calls`` gives per-text
    calls for the latency metrics, ``latency_rounds`` passes over the
    stream, made one at a time so that they do not add to peak memory; and
    ``check_latency`` returns their ``(attempted, failed)``.
    The latency metrics pool every call, and a pass that meets a slow
    moment of the host moves the 99th percentile of a few thousand calls,
    so the passes come to some tens of thousands of calls.
    """

    units_are_texts = False
    latency_rounds = 0

    def __init__(self, tx, in_dir, seed):
        self.tx = tx
        self.in_dir = in_dir
        self.seed = seed
        # (id, (stress, relaxation), text) of each stream text, under the lexicon on disk
        self.expected = gen.read_scores(os.path.join(in_dir, "expected.tsv"))

    def stream(self):
        with open(os.path.join(self.in_dir, "texts.txt"), encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]


class ScoreStream(Workload):
    name = "score_stream"
    units_are_texts = True

    def setup(self):
        lx = self.tx.lexicon
        lex = lx.load_lexicon_set(os.path.join(self.in_dir, "lexicon"))
        texts = self.stream()
        lex.term_index(lx.Kind.STRESS)
        lex.term_index(lx.Kind.RELAXATION)
        return {"lex": lex, "texts": texts, "recognised": lex.recognised_words}

    def one_off_checks(self, state):
        if state["texts"] != [text for _, _, text in self.expected]:
            return ["texts.txt does not read back as written"]
        return []

    def unit_calls(self, state, unit):
        score_text = functools.partial(self.tx.scorer.score_text, lex=state["lex"],
                                       recognised=state["recognised"])
        return [functools.partial(score_text, text) for text in state["texts"]]

    def check_unit(self, state, results):
        replay = self.tx.scorer.replay_trace
        failed, rows = 0, []
        for (text_id, want, _), out in zip(self.expected, results):
            if isinstance(out, Exception):
                failed += 1
                rows.append(f"{text_id}\terror\t{type(out).__name__}")
                continue
            score, trace = out
            rows.append(f"{text_id}\t{score.stress}\t{score.relaxation}")
            try:
                replayed = replay(trace)
            except AssertionError:
                replayed = None
            if (score.stress, score.relaxation) != want or replayed != score:
                failed += 1
        return len(results), failed, len(results), "\n".join(rows)


class CrossvalSupervised(Workload):
    name = "crossval_supervised"
    latency_rounds = 10

    def setup(self):
        lx, cp = self.tx.lexicon, self.tx.corpus
        lex = lx.load_lexicon_set(os.path.join(self.in_dir, "lexicon"))
        corpus = cp.load_corpus(os.path.join(self.in_dir, "corpus.tsv"))
        lex.term_index(lx.Kind.STRESS)
        lex.term_index(lx.Kind.RELAXATION)
        return {"lex": lex, "corpus": corpus, "recognised": lex.recognised_words}

    def one_off_checks(self, state):
        errors = []
        corpus = state["corpus"]
        golds = {ex.id: (ex.gold_stress, ex.gold_relax) for ex in corpus}
        written = gen.read_scores(os.path.join(self.in_dir, "golds.tsv"))
        if golds != {text_id: score for text_id, score, _ in written}:
            errors.append("corpus golds do not read back as written")
        true_lex = self.tx.lexicon.load_lexicon_set(os.path.join(self.in_dir, "true_lexicon"))
        reports = self.tx.corpus.evaluate_lexicon(true_lex, corpus)
        if reports["stress"].mad != 0 or reports["relax"].mad != 0:
            errors.append(f"true lexicon scores the corpus with MAD {reports['stress'].mad} / "
                          f"{reports['relax'].mad}, not 0")
        return errors

    def unit_calls(self, state, unit):
        return [functools.partial(self.tx.corpus.crossval_supervised, state["lex"], state["corpus"],
                                  k=K, reps=1, base_seed=self.seed * 1000 + unit,
                                  cfg=self.tx.optimizer.OptimizerConfig(max_passes=CLIMB_PASSES))]

    def check_unit(self, state, results):
        (result,) = results
        n = len(state["corpus"])
        if isinstance(result, Exception):
            return K, K, 0, f"error\t{type(result).__name__}"
        sizes = {f: n // K + (1 if f < n % K else 0) for f in range(K)}
        rows = {}
        for rep, fold, scale, rpt in result.log_rows:
            rows.setdefault((rep, fold), []).append((scale, rpt))
        bad = {fold for fold in range(K)
               if sorted(s for s, _ in rows.get((0, fold), [])) != ["relax", "stress"]
               or any(r.n != sizes[fold] for _, r in rows[(0, fold)])}
        ok = (len(result.log_rows) == K * 2 and set(rows) == {(0, f) for f in range(K)}
              and len(result.rep_reports) == 1)
        for scale in ("stress", "relax"):
            reps = [r[scale] for r in result.rep_reports]
            avg = result.averaged[scale]
            defined = [r.pearson for r in reps if r.pearson is not None]
            ok = ok and avg.n == n and avg.reps == len(reps) and all(r.n == n for r in reps) and all((
                _close(avg.exact_pct, sum(r.exact_pct for r in reps) / len(reps)),
                _close(avg.within1_pct, sum(r.within1_pct for r in reps) / len(reps)),
                _close(avg.mad, sum(r.mad for r in reps) / len(reps)),
                _close(avg.pearson, sum(defined) / len(defined) if defined else None),
                avg.pearson_skipped == len(reps) - len(defined)))
        unsupervised = self.tx.corpus.crossval_supervised(
            state["lex"], state["corpus"], k=K, reps=1, base_seed=result.base_seed,
            supervised=False)
        supervised_mad = sum(result.averaged[s].mad for s in ("stress", "relax"))
        unsupervised_mad = sum(unsupervised.averaged[s].mad for s in ("stress", "relax"))
        if not ok or not supervised_mad < unsupervised_mad:
            bad = set(range(K))
        digest = "\n".join(list(result.log_tsv())
                           + [f"{s}\t{result.averaged[s].tsv_row()}" for s in ("stress", "relax")])
        return K, len(bad), n, digest

    def latency_calls(self, state):
        """``score_text`` on each stream text with the start lexicon; only scores are kept."""
        score_text, lex, recognised = self.tx.scorer.score_text, state["lex"], state["recognised"]

        def score(text):
            return score_text(text, lex, recognised)[0]

        texts = self.stream()
        return (functools.partial(score, text) for _ in range(self.latency_rounds) for text in texts)

    def check_latency(self, state, results):
        expected = [want for _, want, _ in self.expected] * self.latency_rounds
        failed = sum(1 for out, want in zip(results, expected)
                     if isinstance(out, Exception) or (out.stress, out.relaxation) != want)
        return len(results), failed


class BaselineSweep(Workload):
    name = "baseline_sweep"
    latency_rounds = 35  # its calls take half as long as score_text

    def setup(self):
        return {"corpus": self.tx.corpus.load_corpus(os.path.join(self.in_dir, "corpus.tsv"))}

    def one_off_checks(self, state):
        """Information gain of the top features, recomputed from the entropy definition."""
        bl = self.tx.baseline
        corpus = state["corpus"]
        labels = [ex.gold_stress for ex in corpus]
        vectors = [bl.extract_features(ex.text) for ex in corpus]
        table = bl.information_gain(vectors, labels)
        ranked = sorted(zip(table.vocabulary, table.gains), key=lambda fg: (-fg[1], fg[0]))
        errors = []
        for feature, gain in ranked[:IG_TOP_CHECKED]:
            presence = [vec.counts.get(feature, 0) > 0 for vec in vectors]
            expected = _information_gain(presence, labels)
            if abs(gain - expected) > 1e-12:
                errors.append(f"information gain of {feature!r}: {gain!r}, expected {expected!r}")
        return errors

    def unit_calls(self, state, unit):
        return [functools.partial(self.tx.baseline.sweep, state["corpus"], SWEEP_SCALE,
                                  kinds=SWEEP_KINDS, grid=SWEEP_GRID, k=K, reps=1,
                                  base_seed=self.seed * 1000 + unit)]

    def check_unit(self, state, results):
        (result,) = results
        n = len(state["corpus"])
        cells = [(kind, size) for kind in SWEEP_KINDS for size in SWEEP_GRID]
        if isinstance(result, Exception):
            return len(cells), len(cells), 0, f"error\t{type(result).__name__}"
        rows, best = result
        by_cell = {}
        for row in rows:
            by_cell.setdefault((row[0], row[1]), []).append(row)
        bad = set()
        for cell in cells:
            got = by_cell.get(cell, [])
            if len(got) != 1:
                bad.add(cell)
                continue
            _, _, scale, rpt = got[0]
            # Predictions and golds are integers, so each rep's counts and
            # absolute-error sum are whole only if it covered all n texts.
            if not (scale == SWEEP_SCALE and rpt.n == n and rpt.reps == 1
                    and rpt.exact_pct <= rpt.within1_pct
                    and _is_whole(rpt.exact_pct * n / 100) and _is_whole(rpt.within1_pct * n / 100)
                    and _is_whole(rpt.mad * n)):
                bad.add(cell)
        reports = [r[3] for r in rows]
        pearsons = [-1.0 if r.pearson is None else r.pearson for r in reports]
        best_ok = (len(rows) == len(cells) and set(best) == {"exact", "within1", "pearson", "mad"}
                   and best["exact"][3].exact_pct == max(r.exact_pct for r in reports)
                   and best["within1"][3].within1_pct == max(r.within1_pct for r in reports)
                   and (-1.0 if best["pearson"][3].pearson is None else best["pearson"][3].pearson)
                   == max(pearsons)
                   and best["mad"][3].mad == min(r.mad for r in reports))
        if not best_ok:
            bad = set(cells)
        digest = "\n".join([f"{kind}\t{size}\t{scale}\t{rpt.tsv_row()}" for kind, size, scale, rpt in rows]
                           + [f"best\t{m}\t{row[0]}\t{row[1]}" for m, row in sorted(best.items())])
        return len(cells), len(bad), n * len(cells), digest

    def latency_calls(self, state):
        """Label each stream text with a Naive Bayes model trained on the corpus:
        ``extract_features`` then ``predict``."""
        bl = self.tx.baseline
        corpus = state["corpus"]
        vectors = [bl.extract_features(ex.text) for ex in corpus]
        labels = [ex.gold_stress for ex in corpus]
        self.model = bl.train("nb", vectors, labels,
                              bl.select_top(bl.information_gain(vectors, labels), max(SWEEP_GRID)))

        def label(text):
            return bl.predict(self.model, bl.extract_features(text))

        texts = self.stream()
        return (functools.partial(label, text) for _ in range(self.latency_rounds) for text in texts)

    def check_latency(self, state, results):
        # A label is a class of the model, and the same on every pass.
        first_pass = results[:len(results) // self.latency_rounds] * self.latency_rounds
        failed = sum(1 for out, first in zip(results, first_pass)
                     if isinstance(out, Exception) or out not in self.model.classes or out != first)
        return len(results), failed


def _information_gain(presence, labels):
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
        h -= len(with_f) / len(labels) * entropy(with_f)
    if without_f:
        h -= len(without_f) / len(labels) * entropy(without_f)
    return max(0.0, h)


WORKLOADS = {w.name: w for w in (ScoreStream, CrossvalSupervised, BaselineSweep)}


class Phase:
    """Whole units until the next one would end past ``seconds`` of wall time."""

    def __init__(self, timer):
        self.timer = timer
        self.durations = []  # scaled seconds per unit
        self.raw_durations = []  # CPU seconds per unit
        self.wall_durations = []
        self.work = []
        self.latency = array("d")  # scaled seconds per per-text call
        self.attempted = 0
        self.failed = 0
        self.first_digest = None

    def run(self, workload, state, seconds, tracer=None):
        gc.collect()
        start = wall()
        unit = 0
        while True:
            calls = workload.unit_calls(state, unit)
            if tracer is not None:
                tracer.enabled = True
            w0 = wall()
            results, scaled, raw = self.timer.run(calls)
            self.wall_durations.append(wall() - w0)
            if tracer is not None:
                tracer.enabled = False
            attempted, failed, work, digest = workload.check_unit(state, results)
            self.durations.append(sum(scaled))
            self.raw_durations.append(sum(raw))
            self.work.append(work)
            if workload.units_are_texts:
                self.latency.extend(scaled)
            self.attempted += attempted
            self.failed += failed
            if self.first_digest is None:
                self.first_digest = digest
            unit += 1
            if wall() - start + statistics.median(self.wall_durations) > seconds:
                return self

    def texts_per_s(self, durations=None):
        return statistics.median(w / d for w, d in zip(self.work, durations or self.durations))

    def record(self):
        return {"units": len(self.durations), "scaled_s": self.durations, "cpu_s": self.raw_durations,
                "wall_s": self.wall_durations,
                "texts_per_s": {"scaled": self.texts_per_s(),
                                "cpu": self.texts_per_s(self.raw_durations),
                                "wall": self.texts_per_s(self.wall_durations)}}


def end_to_end(setup_s, phase, latency):
    """``latency`` holds the time of every per-text call, in seconds."""
    cuts = statistics.quantiles([x * 1000.0 for x in latency], n=100)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "texts_per_s": (phase.texts_per_s(), "texts/s"),
        "text_latency_p50_ms": (cuts[49], "ms"),
        "text_latency_p99_ms": (cuts[98], "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(tracer, untraced, traced):
    t = tracer
    climb = "optimizer.hill_climb_tokenized"
    candidates = t.calls("lexicon.set_strength", climb)
    rescored = t.calls("scorer.score_tokenized", climb)
    metric_names = ("metrics.exact_within1", "metrics.pearson", "metrics.mad", "metrics.report")
    return {
        "textproc.process_s": (t.total("textproc.process"), "s"),
        "textproc.process_calls": (t.calls("textproc.process"), "count"),
        "textproc.spell_s": (t.total("textproc.correct_spelling"), "s"),
        "textproc.spell_calls": (t.calls("textproc.correct_spelling"), "count"),
        "textproc.tokenize_s": (t.total("textproc.tokenize"), "s"),
        "lexicon.load_s": (t.total("lexicon.load_lexicon_set"), "s"),
        "lexicon.lookup_s": (t.total("lexicon.TermIndex.lookup"), "s"),
        "lexicon.lookups": (t.calls("lexicon.TermIndex.lookup"), "count"),
        "lexicon.set_strength_s": (t.total("lexicon.set_strength"), "s"),
        "lexicon.set_strength_calls": (t.calls("lexicon.set_strength"), "count"),
        "lexicon.index_build_s": (t.total("lexicon.TermIndex.build"), "s"),
        "lexicon.index_builds": (t.calls("lexicon.TermIndex.build"), "count"),
        "scorer.score_s": (sum(t.self_time(f"scorer.{f}")
                               for f in ("score_text", "score_tokenized", "score_sentence")), "s"),
        "scorer.sentences": (t.calls("scorer.score_sentence"), "count"),
        "optimizer.climb_s": (t.total(climb), "s"),
        "optimizer.climbs": (t.calls(climb), "count"),
        "optimizer.candidates": (candidates, "count"),
        "optimizer.rescored": (rescored, "count"),
        "optimizer.rescored_per_candidate": (rescored / candidates if candidates else 0.0, "ratio"),
        "optimizer.kept_per_candidate": (t.kept / candidates if candidates else 0.0, "ratio"),
        "corpus.load_s": (t.total("corpus.load_corpus"), "s"),
        "corpus.tokenize_s": (t.total("optimizer.tokenize_corpus"), "s"),
        "corpus.make_folds_s": (t.total("corpus.make_folds"), "s"),
        "corpus.driver_self_s": (t.self_time("corpus.crossval_supervised"), "s"),
        "metrics.s": (sum(t.self_time(m) for m in metric_names), "s"),
        "metrics.calls": (sum(t.calls(m) for m in metric_names), "count"),
        "baseline.extract_s": (t.total("baseline.extract_features"), "s"),
        "baseline.ig_s": (t.total("baseline.information_gain"), "s"),
        "baseline.ig_calls": (t.calls("baseline.information_gain"), "count"),
        "baseline.select_s": (t.total("baseline.select_top"), "s"),
        "baseline.train_nb_s": (t.total("baseline.train.nb"), "s"),
        "baseline.train_logistic_s": (t.total("baseline.train.logistic"), "s"),
        "baseline.train_calls": (t.calls("baseline.train.nb") + t.calls("baseline.train.logistic"),
                                 "count"),
        "baseline.predict_s": (t.total("baseline.predict"), "s"),
        "baseline.predict_calls": (t.calls("baseline.predict"), "count"),
        "bench.untraced_texts_per_s": (untraced.texts_per_s(), "texts/s"),
        "bench.traced_texts_per_s": (traced.texts_per_s(), "texts/s"),
        "bench.missing_wraps": (len(t.missing), "count"),
    }


def env_info():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tensilex benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        tx = import_program()
    except (ProgramMissing, ImportError) as exc:
        sys.stderr.write(f"benchmark: cannot load the program: {exc}\n")
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    in_dir = os.path.join(WORK_DIR, f"{tag}-pid{os.getpid()}")
    record = {}
    try:
        # A child process writes the inputs, so that this process's peak
        # memory is the program's and not the generator's.
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", in_dir],
                       check=True, stdout=subprocess.DEVNULL)
        workload = WORKLOADS[args.workload](tx, in_dir, args.seed)
        timer = Timer()
        tracer = spans.Tracer() if args.trace else None
        _, children_before = outside_work()

        states = []  # only the latest, so repeats do not add to peak memory

        def setup():
            states[:] = [workload.setup()]

        def setups():
            start, count = clock(), 0
            while count < SETUP_REPEATS or clock() - start < SETUP_MIN_S:
                count += 1
                yield setup

        if tracer is None:
            gc.collect()
            setup_timer = Timer()
            outs, setup_s, setup_raw = setup_timer.run(setups())
            for out in outs:
                if isinstance(out, Exception):
                    raise out
            record["setup"] = {"scaled_s": list(setup_s), "cpu_s": list(setup_raw),
                               "slowdown": setup_timer.samples}
        else:
            with tracer:
                setup()
            tracer.enabled = False
        state = states[0]
        errors = workload.one_off_checks(state)

        if tracer is None:
            attempted = failed = 0
            seconds = args.seconds
            if not workload.units_are_texts:
                # The latency phase comes out of the run's seconds.
                calls = workload.latency_calls(state)
                gc.collect()
                start = wall()
                results, latency, _ = timer.run(calls)
                seconds -= wall() - start
                attempted, failed = workload.check_latency(state, results)
            phase = Phase(timer).run(workload, state, seconds)
            attempted, failed = attempted + phase.attempted, failed + phase.failed
            if workload.units_are_texts:
                latency = phase.latency
            metrics = end_to_end(setup_s, phase, latency)
            record["timed"] = phase.record()
            digest_source = phase.first_digest
        else:
            untraced = Phase(timer).run(workload, state, args.seconds / 2)
            with tracer:
                tracer.enabled = False
                traced = Phase(timer).run(workload, state, args.seconds / 2, tracer)
            metrics = per_layer(tracer, untraced, traced)
            record["untraced"], record["traced"] = untraced.record(), traced.record()
            record["spans_dropped"] = tracer.spans_dropped
            digest_source = untraced.first_digest
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
        record["kernel_slowdown"] = timer.samples
        outside, children_after = outside_work()
        errors += outside
        if children_after > children_before:
            errors.append(f"child processes used {children_after - children_before:.3f} s of CPU "
                          "during the measured phases")
    finally:
        shutil.rmtree(in_dir, ignore_errors=True)

    env = env_info()
    digest = hashlib.sha256(digest_source.encode()).hexdigest()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {args.workload} seed {args.seed}: sha256 {digest}")
    print(f"reference kernel: median slowdown {statistics.median(timer.samples):.3f} "
          f"over {len(timer.samples)} samples")
    for error in errors:
        print(f"check failed: {error}")
    if tracer is not None:
        if tracer.missing:
            print("missing wrap points: " + ", ".join(tracer.missing))
        for name, (value, unit) in metrics.items():
            print(f"  {name:34s} {value:14.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env, digest=digest, errors=errors,
                       missing=tracer.missing if tracer else [], record=record), fh, indent=1)
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
