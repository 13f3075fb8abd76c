"""Span tracing around tensilex's public functions, installed from outside the package.

:class:`Tracer` replaces each wrap point named in :data:`WRAPS` with a
timing wrapper while it is installed, and puts the original back when it is
removed; no file of the program changes. A module-level function is wrapped
under every name that binds it in a loaded ``tensilex`` module, so calls
through ``from .textproc import process`` are seen too. A wrap point that
no longer exists is listed in :attr:`Tracer.missing` and the run goes on.

Each call records a span (id, name, start, end, parent id) and adds to
per-(name, parent name) totals: calls, duration, and self time (duration
minus the time of its traced children). Totals are kept for every call;
span records stop at :data:`SPAN_CAP` so a long traced run stays small.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time

# (module, attribute, span name); "Class.method" wraps a method.
WRAPS = (
    ("textproc", "process", "textproc.process"),
    ("textproc", "tokenize", "textproc.tokenize"),
    ("textproc", "correct_spelling", "textproc.correct_spelling"),
    ("lexicon", "load_lexicon_set", "lexicon.load_lexicon_set"),
    ("lexicon", "TermIndex.__init__", "lexicon.TermIndex.build"),
    ("lexicon", "TermIndex.lookup", "lexicon.TermIndex.lookup"),
    ("lexicon", "set_strength", "lexicon.set_strength"),
    ("scorer", "score_text", "scorer.score_text"),
    ("scorer", "score_tokenized", "scorer.score_tokenized"),
    ("scorer", "score_sentence", "scorer.score_sentence"),
    ("optimizer", "tokenize_corpus", "optimizer.tokenize_corpus"),
    ("optimizer", "hill_climb_tokenized", "optimizer.hill_climb_tokenized"),
    ("corpus", "load_corpus", "corpus.load_corpus"),
    ("corpus", "make_folds", "corpus.make_folds"),
    ("corpus", "crossval_supervised", "corpus.crossval_supervised"),
    ("metrics", "exact_within1", "metrics.exact_within1"),
    ("metrics", "pearson", "metrics.pearson"),
    ("metrics", "mad", "metrics.mad"),
    ("metrics", "report", "metrics.report"),
    ("baseline", "extract_features", "baseline.extract_features"),
    ("baseline", "information_gain", "baseline.information_gain"),
    ("baseline", "select_top", "baseline.select_top"),
    ("baseline", "train", "baseline.train"),
    ("baseline", "predict", "baseline.predict"),
    ("baseline", "crossval_baseline", "baseline.crossval_baseline"),
    ("baseline", "sweep", "baseline.sweep"),
)

PACKAGE = "tensilex"
SPAN_CAP = 50_000  # span records kept per run; totals are kept for every call


class Tracer:
    def __init__(self):
        self.enabled = True
        self.stats: dict[tuple[str, str | None], list] = {}  # (name, parent) -> [calls, total, self]
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.spans_dropped = 0
        self.kept = 0  # changes_made summed over traced climbs
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [id, name, child time]
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        by_kind = name == "baseline.train"  # spans baseline.train.nb and baseline.train.logistic
        counts_kept = name == "optimizer.hill_climb_tokenized"
        stack, stats, spans, ids = self._stack, self.stats, self.spans, self._ids
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name
            if by_kind:
                span_name = f"{name}.{kwargs.get('kind', args[0] if args else None)}"
            parent = stack[-1] if stack else None
            frame = [next(ids), span_name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                key = (span_name, parent[1] if parent is not None else None)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], span_name, start, end,
                                  parent[0] if parent is not None else 0))
                else:
                    tracer.spans_dropped += 1
            if counts_kept:
                try:
                    tracer.kept += result[1].changes_made
                except (AttributeError, IndexError, TypeError):
                    tracer._note_missing(name + ":result")
            return result

        return traced

    def install(self):
        """Wrap every wrap point; a wrap point that is gone is recorded as missing."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, attr, name in WRAPS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self._note_missing(name)
                continue
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:  # a method: patch the class attribute
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(leaf) if isinstance(owner, type) else None
                if original is None:
                    self._note_missing(name)
                    continue
                self._patch(owner, leaf, self._wrap(name, original))
                continue
            original = getattr(module, leaf, None)
            if not callable(original):
                self._note_missing(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        """Put back every original and check that each is back."""
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        for owner, attr, original in patched:
            if vars(owner).get(attr) is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _note_missing(self, name):
        if name not in self.missing:
            self.missing.append(name)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading ------------------------------------------------------------

    def calls(self, name, parent=None):
        """Calls of ``name``; given ``parent``, only those whose nearest traced caller it is."""
        return sum(v[0] for (n, p), v in self.stats.items()
                   if n == name and (parent is None or p == parent))

    def total(self, name):
        return sum(v[1] for (n, _), v in self.stats.items() if n == name)

    def self_time(self, name):
        return sum(v[2] for (n, _), v in self.stats.items() if n == name)

    def write_spans(self, path):
        """One JSON object a line: id, name, start, end (s, perf_counter), parent (0 = none)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
