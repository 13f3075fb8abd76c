"""Command-line surface: score, optimize, evaluate, agreement, baseline.

Exit codes: 0 success, 1 I/O failure, 2 validation failure (bad lexicon,
bad corpus, bad flags). All randomized commands take an explicit --seed so
runs are reproducible. TENSILEX_LEXICON_DIR provides the default lexicon
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import os
import sys

from . import baseline as bl
from . import corpus as cp
from . import lexicon as lx
from . import metrics as mx
from .errors import InsufficientData, LengthError, ParseError, TensilexError
from .optimizer import OptimizerConfig, hill_climb
from .scorer import format_trace, score_text

ENV_LEXICON_DIR = "TENSILEX_LEXICON_DIR"


def _add_lexicon_arg(parser):
    parser.add_argument("--lexicon-dir", default=os.environ.get(ENV_LEXICON_DIR),
                        help=f"lexicon directory (default: ${ENV_LEXICON_DIR})")


def _load_lexicon(args):
    if not args.lexicon_dir:
        raise TensilexError(f"no lexicon directory: pass --lexicon-dir or set ${ENV_LEXICON_DIR}")
    return lx.load_lexicon_set(args.lexicon_dir)


def _check_output_file(path):
    """Raise :class:`OSError` unless ``path`` names a file that could be written:
    its parent (``.`` for none) is an existing, writable directory and ``path``
    is not a directory. Nothing is created."""
    parent = os.path.dirname(path) or "."
    if not path or not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _input_lines(fh, path):
    """Lines of ``fh``, opened from ``path`` (``-`` for stdin), without their
    newlines. A leading byte-order mark is skipped, as the corpus and lexicon
    readers do, and bytes that are not UTF-8 raise a ParseError. A file's
    names its first bad line; stdin cannot be read again to find it."""
    try:
        for i, line in enumerate(fh):
            yield (line.removeprefix("\ufeff") if i == 0 else line).rstrip("\n")
    except UnicodeDecodeError:
        if path == "-":
            raise ParseError("not valid UTF-8", path="stdin") from None
        raise lx._not_utf8(path) from None


def cmd_score(args) -> int:
    lex = _load_lexicon(args)
    out = sys.stdout
    path = args.input
    if path == "-":  # decoded and split into lines as a file is, whatever the locale and platform
        sys.stdin.reconfigure(encoding="utf-8", errors="strict", newline=None)
    out.reconfigure(encoding="utf-8")  # rows are UTF-8, whatever the locale's encoding
    if args.trace:  # and so is the trace; reconfigure alone would reset the handler to strict
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    with contextlib.nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8") as fh:
        out.write("id\tstress\trelaxation\n")
        for i, line in enumerate(_input_lines(fh, path), start=1):
            if args.tsv:
                text_id, tab, text = line.partition("\t")
                if not tab:
                    raise ParseError("expected id<TAB>text, found no tab", line=i,
                                     path="stdin" if path == "-" else path)
            else:
                text_id, text = str(i), line
            score, trace = score_text(text, lex)
            out.write(f"{text_id}\t{score.stress}\t{score.relaxation}\n")
            if args.trace:
                sys.stderr.write(f"--- {text_id}\n{format_trace(trace)}\n")
    return 0


def cmd_optimize(args) -> int:
    cfg = OptimizerConfig(seed=args.seed, min_improvement=args.min_improvement,
                          max_passes=args.max_passes)
    os.makedirs(args.out_dir, exist_ok=True)
    log_path = os.path.join(args.out_dir, "optimization_log.tsv")
    _check_output_file(log_path)
    lex = _load_lexicon(args)
    corpus = cp.load_corpus(args.corpus)
    optimized, report = hill_climb(lex, corpus, cfg)
    # The lexicon and its log are written together, whole or not at all.
    lx._write_whole({**lx._lexicon_files(optimized, args.out_dir), log_path: report.log_lines()})
    print(f"initial error: {report.initial_error}")
    print(f"final error: {report.final_error}")
    print(f"changes: {report.changes_made} over {report.passes_run} passes")
    return 0


def cmd_evaluate(args) -> int:
    if not args.supervised:
        for flag in ("log", "k", "reps", "seed"):
            if getattr(args, flag) is not None:
                raise TensilexError(f"--{flag} requires --supervised")
    elif args.seed is None:
        raise TensilexError("--supervised requires --seed")
    elif args.unrounded:
        raise TensilexError("--supervised does not take --unrounded")
    if args.log is not None:
        _check_output_file(args.log)
    lex = _load_lexicon(args)
    corpus = cp.load_corpus(args.corpus)
    if args.subcorpus is not None:
        corpus = cp.slice_corpus(corpus, args.subcorpus)
    reports, result = {}, None
    if args.subcorpus is not None and not corpus:
        sys.stderr.write(f"warning: no examples with subcorpus {args.subcorpus!r}\n")
    elif args.supervised:
        result = cp.crossval_supervised(lex, corpus, k=10 if args.k is None else args.k,
                                        reps=30 if args.reps is None else args.reps,
                                        base_seed=args.seed)
        reports = result.averaged
    else:
        reports = cp.evaluate_lexicon(lex, corpus, unrounded=args.unrounded)
    report_type = mx.AveragedReport if args.supervised else mx.MetricsReport
    print("scale\t" + report_type.TSV_HEADER)
    for scale, rpt in reports.items():
        print(f"{scale}\t{rpt.tsv_row()}")
    if result is not None and args.log is not None:
        lx._write_whole({args.log: result.log_tsv()})
    return 0


def cmd_agreement(args) -> int:
    corpus = cp.load_corpus(args.codes)
    # CodingMatrix makes these checks too, but cannot name the file. An
    # example has as many coders on each scale.
    if not corpus:
        raise InsufficientData(f"{args.codes}: no items to code")
    first = corpus[0]
    n_coders = len(first.coder_stress)
    if n_coders < 2:
        raise InsufficientData(f"{args.codes}: need at least 2 coders, example {first.id!r} has 1")
    for ex in corpus:
        if len(ex.coder_stress) != n_coders:
            raise LengthError(f"{args.codes}: ragged coding matrix: example {ex.id!r} has "
                              f"{len(ex.coder_stress)} coders, example {first.id!r} {n_coders}")
    scales = (("stress", lambda ex: ex.coder_stress), ("relax", lambda ex: ex.coder_relax))
    # Both matrices are built, and checked, before anything is printed.
    matrices = [mx.CodingMatrix(tuple(codes_of(ex) for ex in corpus)) for _, codes_of in scales]

    print("scale\tstatistic\tcoders\tvalue")
    for (scale, codes_of), matrix in zip(scales, matrices):
        alpha = mx.krippendorff_alpha_weighted(matrix)
        print(f"{scale}\talpha\tall\t{alpha:.3f}")
        for a, b in itertools.combinations(range(n_coders), 2):
            series = mx.PairedSeries(tuple(codes_of(ex)[a] for ex in corpus),
                                     tuple(codes_of(ex)[b] for ex in corpus))
            r = mx.pearson(series)
            print(f"{scale}\tpearson\t{a + 1}v{b + 1}\t" + ("NA" if r is None else f"{r:.3f}"))
            print(f"{scale}\tmad\t{a + 1}v{b + 1}\t{mx.mad(series):.3f}")
        full = 100.0 * sum(1 for ex in corpus if len(set(codes_of(ex))) == 1) / len(corpus)
        print(f"{scale}\tfull_agreement\tall\t{full:.3f}")
    return 0


def cmd_baseline(args) -> int:
    corpus = cp.load_corpus(args.corpus)
    kinds = ("nb", "logistic") if args.classifier == "both" else (args.classifier,)
    grid = bl.SWEEP_GRID if args.features == "sweep" else (args.features,)
    rows, best = bl.sweep(corpus, args.scale, kinds=kinds, grid=grid, k=args.k,
                          reps=args.reps, base_seed=args.seed)
    print("classifier\tn_features\tscale\t" + mx.AveragedReport.TSV_HEADER + "\tbest_for")
    marks = {}
    if args.features == "sweep":  # a single feature count marks no best cell
        for metric, row in best.items():
            marks.setdefault((row[0], row[1]), []).append(metric)
    for kind, n, scale, rpt in rows:
        mark = ",".join(marks.get((kind, n), []))
        print(f"{kind}\t{n}\t{scale}\t{rpt.tsv_row()}\t{mark}")
    return 0


def _feature_count(value: str):
    """``--features``: the word ``sweep`` or a feature count of at least 1."""
    if value == "sweep":
        return value
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'sweep' or a count, got {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"feature count must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tensilex",
                                     description="Dual-scale stress/relaxation strength scoring.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score texts, one per line (or - for stdin)")
    _add_lexicon_arg(p)
    p.add_argument("input", help="text file, one text per line, or - for stdin")
    p.add_argument("--tsv", action="store_true", help="input lines are id<TAB>text")
    p.add_argument("--trace", action="store_true", help="explanations on stderr")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("optimize", help="hill-climb term strengths against a corpus")
    _add_lexicon_arg(p)
    p.add_argument("corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--min-improvement", type=int, default=2)
    p.add_argument("--max-passes", type=int, default=1000)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", help="evaluate the lexicon against a corpus")
    _add_lexicon_arg(p)
    p.add_argument("corpus")
    p.add_argument("--subcorpus")
    p.add_argument("--unrounded", action="store_true",
                   help="MAD/correlation against unrounded coder means")
    p.add_argument("--supervised", action="store_true",
                   help="repeated k-fold cross validation with the optimizer")
    p.add_argument("--k", type=int, help="folds, with --supervised (default 10)")
    p.add_argument("--reps", type=int, help="repetitions, with --supervised (default 30)")
    p.add_argument("--seed", type=int, help="seed, required by --supervised")
    p.add_argument("--log", help="with --supervised, write the per-(rep,fold,scale) TSV log here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("agreement", help="inter-coder agreement statistics")
    p.add_argument("codes", help="corpus TSV carrying the per-coder codes")
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("baseline", help="n-gram machine-learning baseline")
    p.add_argument("corpus")
    p.add_argument("--classifier", choices=("nb", "logistic", "both"), default="both")
    p.add_argument("--features", type=_feature_count, default="sweep",
                   help="feature count or 'sweep'")
    p.add_argument("--scale", choices=("stress", "relax"), required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TensilexError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
