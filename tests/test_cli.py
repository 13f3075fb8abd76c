import contextlib
import io
import os
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tensilex import cli, corpus as cp
from tensilex.cli import main
from tensilex.corpus import AveragedReport, make_example, save_corpus
from tensilex.lexicon import load_lexicon_set, save_lexicon_set, set_strength, Kind
from tensilex.optimizer import OptimizationReport
from tensilex.scorer import explain

from .conftest import DEFAULT_LEXICON, make_reference_lexicon, make_synthetic_corpus


@pytest.fixture
def lex_dir(tmp_path, paper_lexicon):
    d = tmp_path / "lexicon"
    save_lexicon_set(paper_lexicon, str(d))
    return str(d)


@pytest.fixture
def ref_setup(tmp_path):
    lex = make_reference_lexicon()
    d = tmp_path / "ref_lexicon"
    save_lexicon_set(lex, str(d))
    corpus = make_synthetic_corpus(lex, n_texts=60, seed=1)
    corpus_path = tmp_path / "corpus.tsv"
    save_corpus(corpus, str(corpus_path))
    return lex, str(d), str(corpus_path), corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_score_worked_example(capsys, lex_dir, tmp_path):
    inp = tmp_path / "texts.txt"
    inp.write_text("Almost home and the train is delayed\n")
    code, out, _ = run(capsys, "score", "--lexicon-dir", lex_dir, str(inp))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id\tstress\trelaxation"
    assert lines[1] == "1\t-3\t1"


def test_score_empty_input(capsys, lex_dir, tmp_path):
    inp = tmp_path / "empty.txt"
    inp.write_text("")
    code, out, _ = run(capsys, "score", "--lexicon-dir", lex_dir, str(inp))
    assert code == 0
    assert out == "id\tstress\trelaxation\n"


def test_score_tsv_and_trace(capsys, lex_dir, tmp_path):
    inp = tmp_path / "texts.tsv"
    inp.write_text("tw1\tNever trust a man with a filthy kitchen\n")
    code, out, err = run(capsys, "score", "--lexicon-dir", lex_dir, "--tsv", "--trace", str(inp))
    assert code == 0
    assert "tw1\t-2\t1" in out
    assert "negated-relax" in err


def test_score_tsv_line_without_tab_exit_2(capsys, lex_dir, tmp_path):
    inp = tmp_path / "texts.tsv"
    inp.write_text("tw1\tthe train is delayed\nno tab here delayed\ntw3\tdelayed\n")
    code, out, err = run(capsys, "score", "--lexicon-dir", lex_dir, "--tsv", str(inp))
    assert code == 2
    assert out.splitlines() == ["id\tstress\trelaxation", "tw1\t-3\t1"]
    assert err == f"error: {inp}: line 2: expected id<TAB>text, found no tab\n"


def test_score_order_preserved(capsys, lex_dir, tmp_path):
    inp = tmp_path / "many.txt"
    inp.write_text("\n".join(f"text number {i}" for i in range(500)) + "\n")
    code, out, _ = run(capsys, "score", "--lexicon-dir", lex_dir, str(inp))
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 500
    assert [r.split("\t")[0] for r in rows] == [str(i + 1) for i in range(500)]


def test_score_env_var_default(capsys, lex_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("TENSILEX_LEXICON_DIR", lex_dir)
    inp = tmp_path / "t.txt"
    inp.write_text("Fell asleep and messed my hair up\n")
    code, out, _ = run(capsys, "score", str(inp))
    assert code == 0 and "1\t-1\t4" in out


def test_score_without_lexicon_dir_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("TENSILEX_LEXICON_DIR", raising=False)
    inp = tmp_path / "t.txt"
    inp.write_text("hello\n")
    code, out, err = run(capsys, "score", str(inp))
    assert code == 2 and out == "" and "TENSILEX_LEXICON_DIR" in err


def test_score_bad_lexicon_exit_2(capsys, tmp_path):
    inp = tmp_path / "t.txt"
    inp.write_text("hello\n")
    code, _, err = run(capsys, "score", "--lexicon-dir", str(tmp_path / "nope"), str(inp))
    assert code == 2 and "error" in err


def test_score_missing_input_exit_1(capsys, lex_dir):
    code, _, err = run(capsys, "score", "--lexicon-dir", lex_dir, "/no/such/file.txt")
    assert code == 1


def test_score_opens_its_input_before_the_header(capsys, lex_dir):
    code, out, err = run(capsys, "score", "--lexicon-dir", lex_dir, "/no/such/file.txt")
    assert (code, out) == (1, "") and err.startswith("I/O error: ")


def _append_bad_line(path) -> int:
    """Append a line holding the byte 0xff, which no UTF-8 text holds, to the
    file at ``path``; returns that line's number."""
    with open(path, "ab") as fh:
        fh.write(b"caf\xff\n")
    with open(path, "rb") as fh:
        return len(fh.read().splitlines())


@pytest.mark.parametrize("good_lines", [1, 3000], ids=["first-read", "past-first-read"])
def test_score_file_not_utf8_exit_2(capsys, lex_dir, tmp_path, good_lines):
    # The decoder reads ahead in blocks, so a bad line far into the file is
    # met only after the rows before it are scored; its number is still exact.
    inp = tmp_path / "texts.txt"
    inp.write_bytes(b"so late\n" * good_lines)
    bad = _append_bad_line(inp)
    code, out, err = run(capsys, "score", "--lexicon-dir", lex_dir, str(inp))
    assert (code, err) == (2, f"error: {inp}: line {bad}: not valid UTF-8\n")
    assert out.startswith("id\tstress\trelaxation\n")


def _ascii_stdin(monkeypatch, data):
    """Stdin as Python opens it outside Windows under a locale whose encoding is ASCII:
    lines split at ``\\n`` only."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii",
                                                       errors="surrogateescape", newline="\n"))


def test_score_stdin_reads_utf8_as_a_file_does(capsys, tmp_path, monkeypatch):
    # Read as ASCII, "café" would be "caf" and two surrogates, a token more.
    data = "so stressed \u2014 caf\u00e9 late\n".encode()
    inp = tmp_path / "texts.txt"
    inp.write_bytes(data)
    from_file = run(capsys, "score", "--lexicon-dir", DEFAULT_LEXICON, "--trace", str(inp))
    _ascii_stdin(monkeypatch, data)
    from_stdin = run(capsys, "score", "--lexicon-dir", DEFAULT_LEXICON, "--trace", "-")
    assert from_stdin == from_file
    assert "    stress-term 'late' at token 4: base 2, -> 2 on stress\n" in from_stdin[2]


def test_score_stdin_splits_lines_as_a_file_does(capsys, tmp_path, monkeypatch):
    # \r ends a line in a file, so it ends one on stdin: two rows, not one.
    for data in (b"so late\rso calm\n", b"so late\rso calm\r"):
        inp = tmp_path / "texts.txt"
        inp.write_bytes(data)
        from_file = run(capsys, "score", "--lexicon-dir", DEFAULT_LEXICON, str(inp))
        _ascii_stdin(monkeypatch, data)
        from_stdin = run(capsys, "score", "--lexicon-dir", DEFAULT_LEXICON, "-")
        assert from_stdin == from_file == (0, "id\tstress\trelaxation\n1\t-3\t1\n2\t-1\t4\n", ""), data


def test_score_stdin_row_error_names_stdin(capsys, monkeypatch):
    _ascii_stdin(monkeypatch, b"tw1\tso late\r\nno tab\r\n")
    code, out, err = run(capsys, "score", "--lexicon-dir", DEFAULT_LEXICON, "--tsv", "-")
    assert (code, out, err) == (2, "id\tstress\trelaxation\ntw1\t-3\t1\n",
                                "error: stdin: line 2: expected id<TAB>text, found no tab\n")


def test_score_writes_utf8_whatever_the_locale(monkeypatch):
    # Encoded as ASCII, the row of "café" would end the run in a UnicodeEncodeError.
    _ascii_stdin(monkeypatch, "caf\u00e9\tso late\n".encode())
    stdout = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(stdout, encoding="ascii"))
    assert main(["score", "--lexicon-dir", DEFAULT_LEXICON, "--tsv", "-"]) == 0
    sys.stdout.flush()
    assert stdout.getvalue() == "id\tstress\trelaxation\ncaf\u00e9\t-3\t1\n".encode()


def test_score_writes_its_trace_as_utf8_whatever_the_locale(monkeypatch):
    # Encoded as ASCII with backslashreplace, the trace would show 'caf\\xe9 so late'.
    _ascii_stdin(monkeypatch, "caf\u00e9 so late\n".encode())
    stderr = io.BytesIO()
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(stderr, encoding="ascii", errors="backslashreplace"))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    assert main(["score", "--lexicon-dir", DEFAULT_LEXICON, "--trace", "-"]) == 0
    sys.stderr.flush()
    assert "  sentence 1: 'caf\u00e9 so late' -> stress -3, relaxation 1\n".encode() in stderr.getvalue()


@pytest.mark.parametrize("good_lines", [1, 3000], ids=["first-read", "past-first-read"])
def test_score_stdin_not_utf8_exit_2(capsys, monkeypatch, good_lines):
    # Stdin cannot be read again to find the bad line; the rows already
    # written stay written, and they are the rows of the good lines.
    _ascii_stdin(monkeypatch, b"so late\n" * good_lines + b"caf\xff\n")
    code, out, err = run(capsys, "score", "--lexicon-dir", DEFAULT_LEXICON, "-")
    assert (code, err) == (2, "error: stdin: not valid UTF-8\n")
    header, *rows = out.splitlines()
    assert header == "id\tstress\trelaxation"
    assert len(rows) < good_lines
    assert rows == [f"{i}\t-3\t1" for i in range(1, len(rows) + 1)]
    if good_lines == 3000:
        assert rows  # lines decoded before the bad block were scored


def test_evaluate_corpus_not_utf8_exit_2(capsys, ref_setup):
    _, lex_dir, corpus_path, _ = ref_setup
    bad = _append_bad_line(corpus_path)
    code, out, err = run(capsys, "evaluate", "--lexicon-dir", lex_dir, corpus_path)
    assert (code, out, err) == (2, "", f"error: {corpus_path}: line {bad}: not valid UTF-8\n")


@pytest.mark.parametrize("name", ["stress_terms.tsv", "relax_terms.tsv", "boosters.tsv", "negators.txt",
                                  "idioms.tsv", "emoticons.tsv", "dictionary.txt"])
def test_lexicon_file_not_utf8_exit_2(capsys, lex_dir, tmp_path, name):
    path = os.path.join(lex_dir, name)
    bad = _append_bad_line(path)
    inp = tmp_path / "texts.txt"
    inp.write_text("so late\n")
    code, out, err = run(capsys, "score", "--lexicon-dir", lex_dir, str(inp))
    assert (code, out, err) == (2, "", f"error: {path}: line {bad}: not valid UTF-8\n")


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("flags, line, text_id", [((), ":( awful", "1"),
                                                  (("--tsv",), "a1\t:( awful", "a1")],
                         ids=["plain", "tsv"])
def test_score_skips_byte_order_mark(capsys, tmp_path, monkeypatch, source, flags, line, text_id):
    # Kept, the mark would start the --tsv id, or join the ":(" punctuation run (stress -1).
    data = ("\ufeff" + line + "\n").encode()
    path = tmp_path / "texts.txt"
    if source == "stdin":  # "score -" reads stdin
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        path = "-"
    else:
        path.write_bytes(data)
    code, out, _ = run(capsys, "score", "--lexicon-dir", DEFAULT_LEXICON, *flags, str(path))
    assert code == 0
    assert out == f"id\tstress\trelaxation\n{text_id}\t-2\t1\n"


def test_optimize_already_optimal(capsys, ref_setup, tmp_path):
    _, lex_dir, corpus_path, _ = ref_setup
    out_dir = str(tmp_path / "opt")
    code, out, _ = run(capsys, "optimize", "--lexicon-dir", lex_dir, corpus_path,
                       "--out-dir", out_dir, "--seed", "7")
    assert code == 0
    assert "changes: 0" in out
    assert "initial error: 0" in out


def test_optimize_recovers_perturbation(capsys, ref_setup, tmp_path):
    lex, _, corpus_path, _ = ref_setup
    perturbed = set_strength(lex, Kind.STRESS, "strainword0", 3)
    pdir = str(tmp_path / "perturbed")
    save_lexicon_set(perturbed, pdir)
    out_dir = str(tmp_path / "opt2")
    code, out, _ = run(capsys, "optimize", "--lexicon-dir", pdir, corpus_path,
                       "--out-dir", out_dir, "--seed", "7")
    assert code == 0
    assert "final error: 0" in out
    assert load_lexicon_set(out_dir) == lex
    assert os.path.exists(os.path.join(out_dir, "optimization_log.tsv"))


def _never_reached(*args, **kwargs):
    raise AssertionError("the work started before the output was checked")


def test_optimize_unwritable_out_dir_exit_1(capsys, ref_setup, tmp_path, monkeypatch):
    _, lex_dir, corpus_path, _ = ref_setup
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(cli, "hill_climb", _never_reached)
    code, out, err = run(capsys, "optimize", "--lexicon-dir", lex_dir, corpus_path,
                         "--out-dir", str(blocker / "opt"), "--seed", "7")
    assert code == 1 and out == ""
    assert err.startswith("I/O error: ") and "Traceback" not in err


def test_optimize_creates_out_dir_before_the_climb(capsys, ref_setup, tmp_path, monkeypatch):
    _, lex_dir, corpus_path, _ = ref_setup
    out_dir = tmp_path / "a" / "b"

    def climb(*args):
        assert out_dir.is_dir()
        raise OSError("stop")

    monkeypatch.setattr(cli, "hill_climb", climb)
    code, _, err = run(capsys, "optimize", "--lexicon-dir", lex_dir, corpus_path,
                       "--out-dir", str(out_dir), "--seed", "7")
    assert (code, err) == (1, "I/O error: stop\n")
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("flag, message", [("--min-improvement", "min_improvement must be >= 1"),
                                           ("--max-passes", "max_passes must be >= 1")])
def test_optimize_bad_config_exit_2(capsys, ref_setup, tmp_path, flag, message):
    _, lex_dir, corpus_path, _ = ref_setup
    out_dir = tmp_path / "opt"
    code, out, err = run(capsys, "optimize", "--lexicon-dir", lex_dir, corpus_path,
                         "--out-dir", str(out_dir), "--seed", "7", flag, "0")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_dir.exists()


def test_optimize_same_seed_identical_output(capsys, ref_setup, tmp_path):
    lex, _, corpus_path, _ = ref_setup
    perturbed = set_strength(lex, Kind.RELAXATION, "soothword1", 5)
    pdir = str(tmp_path / "p2")
    save_lexicon_set(perturbed, pdir)
    outs = []
    for name in ("a", "b"):
        out_dir = str(tmp_path / name)
        run(capsys, "optimize", "--lexicon-dir", pdir, corpus_path,
            "--out-dir", out_dir, "--seed", "3")
        files = {}
        for fn in sorted(os.listdir(out_dir)):
            files[fn] = Path(out_dir, fn).read_bytes()
        outs.append(files)
    assert outs[0] == outs[1]


def test_evaluate_perfect(capsys, ref_setup):
    _, lex_dir, corpus_path, _ = ref_setup
    code, out, _ = run(capsys, "evaluate", "--lexicon-dir", lex_dir, corpus_path)
    assert code == 0
    for line in out.splitlines()[1:]:
        cols = line.split("\t")
        assert cols[2] == "100.000"  # exact
        assert cols[5] == "0.000"  # mad


def test_evaluate_paper_metrics_fixture(capsys, tmp_path, lex_dir):
    # the four-text fixture with predictions [1,5,5,5] vs golds [1,5,5,1]
    # on the relaxation scale: asleep:4 is irrelevant here, craft via texts
    rows = ["id\tsubcorpus\ttext\tstress_codes\trelax_codes",
            "a\ts\tnothing at all\t-1\t1",
            "b\ts\tfell asleep here\t-1\t5",
            "c\ts\tfell asleep again\t-1\t5",
            "d\ts\tfell asleep once more\t-1\t1"]
    corpus_path = tmp_path / "four.tsv"
    corpus_path.write_text("\n".join(rows) + "\n")
    # asleep strength 5 makes predictions [1,5,5,5]
    lex = load_lexicon_set(lex_dir)
    lex5 = set_strength(lex, Kind.RELAXATION, "asleep", 5)
    d5 = str(tmp_path / "lex5")
    save_lexicon_set(lex5, d5)
    code, out, _ = run(capsys, "evaluate", "--lexicon-dir", d5, str(corpus_path))
    assert code == 0
    relax = [l for l in out.splitlines() if l.startswith("relax")][0].split("\t")
    assert relax[4] == "0.577" and relax[5] == "1.000"


def test_evaluate_subcorpus_slice(capsys, ref_setup):
    _, lex_dir, corpus_path, corpus = ref_setup
    n_transport = sum(1 for ex in corpus if ex.subcorpus == "transport")
    code, out, _ = run(capsys, "evaluate", "--lexicon-dir", lex_dir, corpus_path,
                       "--subcorpus", "transport")
    assert code == 0
    assert f"stress\t{n_transport}\t" in out


def test_evaluate_unknown_subcorpus_warns(capsys, ref_setup):
    _, lex_dir, corpus_path, _ = ref_setup
    code, out, err = run(capsys, "evaluate", "--lexicon-dir", lex_dir, corpus_path,
                         "--subcorpus", "nosuch")
    assert code == 0
    assert "warning" in err
    assert len(out.splitlines()) == 1  # header only


def test_evaluate_unknown_subcorpus_supervised_header(capsys, ref_setup, tmp_path):
    _, lex_dir, corpus_path, _ = ref_setup
    log = tmp_path / "cv.tsv"
    code, out, err = run(capsys, "evaluate", "--lexicon-dir", lex_dir, corpus_path,
                         "--subcorpus", "nosuch", "--supervised", "--seed", "1", "--log", str(log))
    assert code == 0
    assert "warning" in err
    assert out == "scale\t" + AveragedReport.TSV_HEADER + "\n"
    assert not log.exists()  # no cross validation ran, so there is no log to write


@pytest.fixture
def empty_label_corpus(tmp_path):
    corpus = [make_example("a", "transport", "the train is late", (-2,), (1,)),
              make_example("b", "", "so relaxed today", (-1,), (3,)),
              make_example("c", "leisure", "a quiet walk", (-1,), (2,))]
    path = tmp_path / "labels.tsv"
    save_corpus(corpus, str(path))
    return str(path)


def test_evaluate_empty_subcorpus_selects_empty_label(capsys, lex_dir, empty_label_corpus):
    code, out, err = run(capsys, "evaluate", "--lexicon-dir", lex_dir, empty_label_corpus,
                         "--subcorpus", "")
    assert code == 0 and err == ""
    assert out.splitlines()[1].startswith("stress\t1\t")  # only "b", not all 3 texts


def test_evaluate_empty_log_path_exit_1(capsys, lex_dir, empty_label_corpus, monkeypatch):
    # An empty --log is a path that cannot be written, not a missing flag.
    monkeypatch.setattr(cp, "crossval_supervised", _never_reached)
    code, out, err = run(capsys, "evaluate", "--lexicon-dir", lex_dir, empty_label_corpus,
                         "--supervised", "--k", "2", "--reps", "1", "--seed", "1", "--log", "")
    assert code == 1 and out == "" and err.startswith("I/O error: ")


@pytest.mark.parametrize("log", ["missing/cv.tsv", "."], ids=["missing-dir", "a-dir"])
def test_evaluate_unwritable_log_exit_1(capsys, lex_dir, empty_label_corpus, monkeypatch, tmp_path, log):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cp, "crossval_supervised", _never_reached)
    code, out, err = run(capsys, "evaluate", "--lexicon-dir", lex_dir, empty_label_corpus,
                         "--supervised", "--k", "2", "--reps", "1", "--seed", "1", "--log", log)
    assert code == 1 and out == "" and err.startswith("I/O error: ") and repr(log) in err
    assert sorted(os.listdir(tmp_path)) == sorted(["lexicon", "labels.tsv"])


# Raw coder means halfway between codes on both scales. The default lexicon
# predicts stress -3, -1, -1, -1 and relaxation 1, 4, 2, 3.
HALF_POINT_ROWS = ["id\tsubcorpus\ttext\tstress_codes\trelax_codes",
                   "a\ts\tthe train is delayed\t-3,-2\t1,2",
                   "b\ts\tso relaxed today\t-1,-1\t4,5",
                   "c\ts\ta quiet walk home\t-1,-2\t2,2",
                   "d\ts\tchill out :)\t-1,-2\t3,4"]


# Rounded golds: stress -3, -1, -2, -2 and relaxation 2, 5, 2, 4.
# Raw golds: stress -2.5, -1, -1.5, -1.5 and relaxation 1.5, 4.5, 2, 3.5.
# exact and within1 compare with the rounded golds either way; --unrounded
# takes pearson and mad against the raw golds.
@pytest.mark.parametrize("flags, stress, relax", [
    ((), "4\t50.000\t100.000\t0.816\t0.500", "4\t25.000\t100.000\t0.947\t0.750"),
    (("--unrounded",), "4\t50.000\t100.000\t0.927\t0.375", "4\t25.000\t100.000\t0.984\t0.375"),
], ids=["rounded", "unrounded"])
def test_evaluate_half_point_golds(capsys, tmp_path, flags, stress, relax):
    corpus_path = tmp_path / "half.tsv"
    corpus_path.write_text("\n".join(HALF_POINT_ROWS) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "evaluate", "--lexicon-dir", DEFAULT_LEXICON, str(corpus_path), *flags)
    assert (code, err) == (0, "")
    assert out == f"scale\tn\texact\twithin1\tpearson\tmad\nstress\t{stress}\nrelax\t{relax}\n"


@pytest.mark.parametrize("flags", [("--k", "0"), ("--k", "1"), ("--reps", "0")])
def test_evaluate_supervised_bad_numeric_flag_exit_2(capsys, ref_setup, flags):
    _, lex_dir, corpus_path, _ = ref_setup
    code, out, err = run(capsys, "evaluate", "--lexicon-dir", lex_dir, corpus_path,
                         "--supervised", "--seed", "1", *flags)
    assert code == 2
    assert err.startswith("error: ") and f"{flags[0][2:]}={flags[1]}" in err
    assert out == ""


def test_evaluate_supervised_requires_seed(capsys, ref_setup):
    _, lex_dir, corpus_path, _ = ref_setup
    code, _, err = run(capsys, "evaluate", "--lexicon-dir", lex_dir, corpus_path,
                       "--supervised")
    assert code == 2 and "--seed" in err


def test_evaluate_supervised_rejects_unrounded(capsys, ref_setup):
    _, lex_dir, corpus_path, _ = ref_setup
    code, out, err = run(capsys, "evaluate", "--lexicon-dir", lex_dir, corpus_path,
                         "--supervised", "--seed", "1", "--unrounded")
    assert code == 2 and out == "" and "--unrounded" in err


@pytest.mark.parametrize("flags", [("--log", "cv.tsv"), ("--k", "0"), ("--reps", "0"), ("--seed", "1")])
def test_evaluate_supervised_only_flag_exit_2(capsys, ref_setup, monkeypatch, tmp_path, flags):
    _, lex_dir, corpus_path, _ = ref_setup
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "evaluate", "--lexicon-dir", lex_dir, corpus_path, *flags)
    assert code == 2 and out == ""
    assert err == f"error: {flags[0]} requires --supervised\n"
    assert not os.path.exists("cv.tsv")


def test_evaluate_supervised_runs(capsys, ref_setup, tmp_path):
    _, lex_dir, corpus_path, _ = ref_setup
    log = str(tmp_path / "cv.tsv")
    code, out, _ = run(capsys, "evaluate", "--lexicon-dir", lex_dir, corpus_path,
                       "--supervised", "--k", "5", "--reps", "2", "--seed", "7",
                       "--log", log)
    assert code == 0
    assert out.splitlines()[0].startswith("scale\t")
    log_lines = Path(log).read_text().splitlines()
    assert len(log_lines) == 1 + 2 * 5 * 2


def _fail_after_first_line(monkeypatch, cls, name):
    """Make ``cls.name``, a log's line generator, fail after its first line."""
    real = getattr(cls, name)

    def first_line_then_fail(self):
        yield next(real(self))
        raise OSError("disk full")

    monkeypatch.setattr(cls, name, first_line_then_fail)


def test_failed_cv_log_leaves_the_old_log_whole(capsys, ref_setup, tmp_path, monkeypatch):
    _, lex_dir, corpus_path, _ = ref_setup
    log = tmp_path / "logs" / "cv.tsv"
    log.parent.mkdir()
    log.write_bytes(b"old\tlog\n")
    _fail_after_first_line(monkeypatch, cp.CrossValResult, "log_tsv")
    code, _, err = run(capsys, "evaluate", "--lexicon-dir", lex_dir, corpus_path,
                       "--supervised", "--k", "2", "--reps", "1", "--seed", "7", "--log", str(log))
    assert (code, err) == (1, "I/O error: disk full\n")
    assert log.read_bytes() == b"old\tlog\n"
    assert os.listdir(log.parent) == ["cv.tsv"]  # no temporary file left behind


def test_failed_optimize_log_leaves_the_old_log_whole(capsys, ref_setup, tmp_path, monkeypatch):
    # The climb would rewrite the perturbed lexicon: a failed log write keeps it too.
    lex, _, corpus_path, _ = ref_setup
    perturbed = set_strength(lex, Kind.STRESS, "strainword0", 3)
    out_dir = tmp_path / "opt"
    save_lexicon_set(perturbed, str(out_dir))
    log = out_dir / "optimization_log.tsv"
    log.write_bytes(b"old\tlog\n")
    before = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
    _fail_after_first_line(monkeypatch, OptimizationReport, "log_lines")
    code, _, err = run(capsys, "optimize", "--lexicon-dir", str(out_dir), corpus_path,
                       "--out-dir", str(out_dir), "--seed", "7")
    assert (code, err) == (1, "I/O error: disk full\n")
    assert log.read_bytes() == b"old\tlog\n"
    # Every file, the lexicon too, is as it was, and no temporary file is left behind.
    assert {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)} == before
    assert load_lexicon_set(str(out_dir)) == perturbed


def test_agreement_identical_coders(capsys, tmp_path):
    rows = ["id\tsub\ttext\tstress_codes\trelax_codes"]
    for i, (s, r) in enumerate([(-1, 1), (-3, 2), (-5, 4), (-2, 2)]):
        rows.append(f"i{i}\ts\ttext {i}\t{s},{s},{s}\t{r},{r},{r}")
    path = tmp_path / "codes.tsv"
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "agreement", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "stress\talpha\tall\t1.000" in lines
    assert "stress\tfull_agreement\tall\t100.000" in lines
    assert sum(1 for l in lines if l.startswith("stress\tmad")) == 3  # 3 coder pairs
    assert all(l.endswith("0.000") for l in lines if "\tmad\t" in l)


def test_agreement_single_coder_exit_2(capsys, tmp_path):
    path = tmp_path / "one.tsv"
    path.write_text("id\tsub\ttext\tstress_codes\trelax_codes\na\ts\tx\t-1\t1\n")
    code, out, err = run(capsys, "agreement", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: need at least 2 coders, example 'a' has 1\n")


@pytest.mark.parametrize("rows", [[], ["a\ts\tx\t-1,-2\t1,1", "b\ts\ty\t-1,-2\t1,2",
                                       "c\ts\ty\t-1,-2,-2\t1,1,2", "d\ts\tz\t-1\t1"]])
def test_agreement_bad_coding_file_exit_2(capsys, tmp_path, rows):
    # A header-only file, and rows with different coder counts. The error names
    # the corpus, and in a ragged one the first example that differs from the first.
    message = ("ragged coding matrix: example 'c' has 3 coders, example 'a' 2" if rows
               else "no items to code")
    path = tmp_path / "codes.tsv"
    path.write_text("\n".join(["id\tsub\ttext\tstress_codes\trelax_codes"] + rows) + "\n")
    code, out, err = run(capsys, "agreement", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


def test_baseline_features_fixed_deterministic(capsys, tmp_path):
    from .test_baseline import injected_token_corpus
    corpus_path = tmp_path / "bl.tsv"
    save_corpus(injected_token_corpus(), str(corpus_path))
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "baseline", str(corpus_path), "--classifier", "nb",
                           "--features", "1", "--scale", "stress", "--k", "4",
                           "--reps", "2", "--seed", "5")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[1].startswith("nb\t1\tstress\t")


def test_baseline_sweep_row_count(capsys, tmp_path):
    from .test_baseline import injected_token_corpus
    corpus_path = tmp_path / "bl2.tsv"
    save_corpus(injected_token_corpus(n=30), str(corpus_path))
    code, out, _ = run(capsys, "baseline", str(corpus_path), "--classifier", "both",
                       "--features", "sweep", "--scale", "stress", "--k", "3",
                       "--reps", "1", "--seed", "5")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 20  # 10 grid sizes x 2 classifiers
    assert any(row.split("\t")[-1] for row in rows)  # best cells marked


def test_baseline_k_0_exit_2(capsys, tmp_path):
    from .test_baseline import injected_token_corpus
    corpus_path = tmp_path / "bl.tsv"
    save_corpus(injected_token_corpus(), str(corpus_path))
    code, out, err = run(capsys, "baseline", str(corpus_path), "--scale", "stress",
                         "--k", "0", "--seed", "5")
    assert code == 2
    assert err.startswith("error: ") and "k=0" in err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_baseline_bad_features_exit_2(capsys, tmp_path, value):
    corpus_path = tmp_path / "bl.tsv"
    save_corpus(golden_corpus(), str(corpus_path))
    with pytest.raises(SystemExit) as exc:  # argparse rejects the flag
        main(["baseline", str(corpus_path), "--features", value, "--scale", "stress",
              "--seed", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --features" in err and "Traceback" not in err


GOLDEN_WORDS = ("the train is delayed late again very so not never relaxed calm chill out "
                "at ease fed up holiday deadline worried quiet home :) :( !!!").split()


def golden_corpus():
    """Random golds on default-lexicon words. With seed 15 a full hill climb
    keeps 8 changes whose outcome depends on term order, so the per-fold
    optimizer seed shows in the output."""
    rng = random.Random(15)
    examples = []
    for i in range(40):
        text = " ".join(rng.choices(GOLDEN_WORDS, k=rng.randint(3, 8)))
        stress = tuple(rng.randint(-5, -1) for _ in range(2))
        relax = tuple(rng.randint(1, 5) for _ in range(2))
        examples.append(make_example(f"g{i:02d}", "golden", text, stress, relax))
    return examples


# Pinned CLI output on golden_corpus(); any change to fold order, seed
# derivation or pooling order fails loudly.
GOLDEN_EVALUATE_STDOUT = """\
scale\tn\treps\texact\twithin1\tpearson\tpearson_skipped\tmad
stress\t40\t2\t23.750\t67.500\t0.191\t0\t1.163
relax\t40\t2\t16.250\t58.750\t-0.039\t0\t1.325
"""

GOLDEN_EVALUATE_LOG = """\
rep\tfold\tscale\tn\texact\twithin1\tpearson\tmad
0\t0\tstress\t8\t25.000\t62.500\t0.354\t1.250
0\t0\trelax\t8\t25.000\t75.000\t-0.162\t1.125
0\t1\tstress\t8\t25.000\t87.500\t0.333\t0.875
0\t1\trelax\t8\t0.000\t62.500\t-0.234\t1.375
0\t2\tstress\t8\t37.500\t62.500\t-0.257\t1.125
0\t2\trelax\t8\t12.500\t37.500\t0.234\t1.625
0\t3\tstress\t8\t12.500\t62.500\t0.284\t1.375
0\t3\trelax\t8\t0.000\t37.500\t-0.178\t1.750
0\t4\tstress\t8\t25.000\t62.500\t0.000\t1.250
0\t4\trelax\t8\t25.000\t75.000\t0.349\t1.000
1\t0\tstress\t8\t12.500\t87.500\t0.578\t1.000
1\t0\trelax\t8\t12.500\t37.500\t-0.354\t1.750
1\t1\tstress\t8\t37.500\t75.000\t0.048\t0.875
1\t1\trelax\t8\t12.500\t50.000\t0.232\t1.375
1\t2\tstress\t8\t37.500\t87.500\t0.516\t0.750
1\t2\trelax\t8\t37.500\t87.500\t0.000\t0.750
1\t3\tstress\t8\t25.000\t50.000\t0.352\t1.375
1\t3\trelax\t8\t12.500\t62.500\t0.293\t1.375
1\t4\tstress\t8\t0.000\t37.500\t0.017\t1.750
1\t4\trelax\t8\t25.000\t62.500\t-0.225\t1.125
"""

GOLDEN_BASELINE_STDOUT = """\
classifier\tn_features\tscale\tn\treps\texact\twithin1\tpearson\tpearson_skipped\tmad\tbest_for
nb\t20\tstress\t40\t2\t12.500\t87.500\t-0.168\t0\t1.062\t
logistic\t20\tstress\t40\t2\t15.000\t82.500\t-0.195\t0\t1.112\t
"""

GOLDEN_BASELINE_SWEEP_STDOUT = """\
classifier\tn_features\tscale\tn\treps\texact\twithin1\tpearson\tpearson_skipped\tmad\tbest_for
nb\t100\tstress\t40\t1\t17.500\t87.500\t-0.136\t0\t0.975\twithin1,mad
nb\t200\tstress\t40\t1\t17.500\t85.000\t-0.119\t0\t1.000\tpearson
nb\t300\tstress\t40\t1\t17.500\t85.000\t-0.176\t0\t1.000\t
nb\t400\tstress\t40\t1\t17.500\t85.000\t-0.176\t0\t1.000\t
nb\t500\tstress\t40\t1\t17.500\t85.000\t-0.176\t0\t1.000\t
nb\t600\tstress\t40\t1\t17.500\t85.000\t-0.176\t0\t1.000\t
nb\t700\tstress\t40\t1\t17.500\t85.000\t-0.176\t0\t1.000\t
nb\t800\tstress\t40\t1\t17.500\t85.000\t-0.176\t0\t1.000\t
nb\t900\tstress\t40\t1\t17.500\t85.000\t-0.176\t0\t1.000\t
nb\t1000\tstress\t40\t1\t17.500\t85.000\t-0.176\t0\t1.000\t
logistic\t100\tstress\t40\t1\t17.500\t85.000\t-0.206\t0\t1.025\t
logistic\t200\tstress\t40\t1\t17.500\t77.500\t-0.303\t0\t1.100\t
logistic\t300\tstress\t40\t1\t25.000\t77.500\t-0.219\t0\t1.025\texact
logistic\t400\tstress\t40\t1\t25.000\t77.500\t-0.219\t0\t1.025\t
logistic\t500\tstress\t40\t1\t25.000\t77.500\t-0.219\t0\t1.025\t
logistic\t600\tstress\t40\t1\t25.000\t77.500\t-0.219\t0\t1.025\t
logistic\t700\tstress\t40\t1\t25.000\t77.500\t-0.219\t0\t1.025\t
logistic\t800\tstress\t40\t1\t25.000\t77.500\t-0.219\t0\t1.025\t
logistic\t900\tstress\t40\t1\t25.000\t77.500\t-0.219\t0\t1.025\t
logistic\t1000\tstress\t40\t1\t25.000\t77.500\t-0.219\t0\t1.025\t
"""


def test_golden_supervised_and_baseline_output(capsys, tmp_path):
    corpus_path = str(tmp_path / "golden.tsv")
    save_corpus(golden_corpus(), corpus_path)
    log = str(tmp_path / "cv.tsv")
    code, out, _ = run(capsys, "evaluate", "--lexicon-dir", DEFAULT_LEXICON, corpus_path,
                       "--supervised", "--k", "5", "--reps", "2", "--seed", "3", "--log", log)
    assert code == 0
    assert out == GOLDEN_EVALUATE_STDOUT
    assert Path(log).read_text(encoding="utf-8") == GOLDEN_EVALUATE_LOG
    code, out, _ = run(capsys, "baseline", corpus_path, "--features", "20", "--scale", "stress",
                       "--k", "5", "--reps", "2", "--seed", "5")
    assert code == 0
    assert out == GOLDEN_BASELINE_STDOUT
    code, out, _ = run(capsys, "baseline", corpus_path, "--classifier", "both", "--features", "sweep",
                       "--scale", "stress", "--k", "5", "--reps", "1", "--seed", "5")
    assert code == 0
    assert out == GOLDEN_BASELINE_SWEEP_STDOUT


def test_score_trace_renders_like_explain(capsys, tmp_path):
    texts = ["never relaxed before a deadline!!!",
             "totally chill out :) but the train is delayed. so very late",
             "",
             "sooo stressssed about the exam!!!"]
    inp = tmp_path / "texts.txt"
    inp.write_text("\n".join(texts) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "score", "--lexicon-dir", DEFAULT_LEXICON, "--trace", str(inp))
    assert code == 0
    lex = load_lexicon_set(DEFAULT_LEXICON)
    assert err == "".join(f"--- {i}\n{explain(text, lex)}\n" for i, text in enumerate(texts, start=1))


def test_score_quick_start_trace_and_an_idiom_row(capsys, monkeypatch):
    # The token forms, the booster, the repeated letters and the "!" boost.
    _ascii_stdin(monkeypatch, b"sooo stressssed about the exam!!!\n")
    code, out, err = run(capsys, "score", "--lexicon-dir", DEFAULT_LEXICON, "--trace", "-")
    assert (code, out, err) == (0, "id\tstress\trelaxation\n1\t-5\t1\n", """\
--- 1
text score: stress -5, relaxation 1
  sentence 1: 'sooo stressssed about the exam !!!' -> stress -5, relaxation 1
    stress-term 'stress*' at token 1: base 3, booster +1, repeated letters +1, -> 5 on stress
    stress-term 'exam' at token 4: base 2, -> 2 on stress
    exclamation boost +1 on stress
""")
    # An idiom, an emoticon and the "!" boost: 3 from "fed up", boosted to 4.
    _ascii_stdin(monkeypatch, b"totally fed up with this :( !\n")
    assert run(capsys, "score", "--lexicon-dir", DEFAULT_LEXICON, "-")[1] == "id\tstress\trelaxation\n1\t-4\t1\n"


def test_lexicon_with_marks_comments_and_crlf_scores_as_the_original(capsys, tmp_path):
    # Each file gains a BOM and a "# comment" line at its head, and every line ending becomes \r\n.
    for name in os.listdir(DEFAULT_LEXICON):
        body = b"\xef\xbb\xbf# comment\n" + Path(DEFAULT_LEXICON, name).read_bytes()
        (tmp_path / name).write_bytes(body.replace(b"\n", b"\r\n"))
    inp = tmp_path / "in.txt"  # not a lexicon file: the loader reads only its seven names
    inp.write_text("sooo stressssed about the exam!!!\n", encoding="utf-8")
    assert (run(capsys, "score", "--lexicon-dir", str(tmp_path), "--trace", str(inp))
            == run(capsys, "score", "--lexicon-dir", DEFAULT_LEXICON, "--trace", str(inp)))


def test_two_row_half_point_corpus(capsys, tmp_path):
    # Predictions -3, -1 and 1, 4: exact and within1 against the rounded golds
    # (-3, -1 and 2, 5), pearson and mad against the raw means (-2.5, -1 and 1.5, 4.5).
    path = tmp_path / "half.tsv"
    path.write_text("\n".join(HALF_POINT_ROWS[:3]) + "\n", encoding="utf-8")
    out = run(capsys, "evaluate", "--lexicon-dir", DEFAULT_LEXICON, "--unrounded", str(path))[1]
    assert out.splitlines()[1:] == ["stress\t2\t100.000\t100.000\t1.000\t0.250", "relax\t2\t0.000\t100.000\t1.000\t0.500"]
    out = run(capsys, "agreement", str(path))[1]
    assert {"stress\talpha\tall\t0.571", "relax\tmad\t1v2\t1.000"} <= set(out.splitlines())


# Good and bad rows of each file, from which the contract test below draws its
# files, along with free text and bytes.
_SAMPLE_ROWS = {
    "stress_terms.tsv": (["late\t2", "stress*\t3", "exam\t2"], ["exam\t9", "late\t2\tx", "ru sh\t1"]),
    "relax_terms.tsv": (["calm\t3", "chill*\t2"], ["calm\tthree", "calm\t3"]),
    "boosters.tsv": (["so\t1", "very\t2"], ["bit\t0"]),
    "negators.txt": (["not", "never"], ["no way"]),
    "idioms.tsv": (["fed up\tstress\t3", "at ease\trelax\t2"], ["so !!\tstress\t1", "a b\tcalm\t1"]),
    "emoticons.tsv": ([":(\tstress\t2", ":)\trelax\t2", ":|\tneutral\t1"], ["\trelax\t1"]),
    "dictionary.txt": (["late", "home"], ["ho me"]),
    "corpus.tsv": (["a\ts\tso late\t-2,-3\t1,2", "b\ts\tcalm :)\t-1,-1\t3,4", "c\tt\tfed up\t-4,-4\t1,1",
                    "d\ts\tvery late\t-3,-2\t1,1"],
                   ["id\tsubcorpus\ttext\tstress_codes\trelax_codes", "e\ts\tx\t-6\t1", "f\ts\ty\t-1\t1,2"]),
    "input.txt": (["so late", "calm :) !", "x\tfed up", "caf\u00e9"], []),
}


def _drawn_file(name, messy):
    """Bytes of a file, in one line-ending style, with or without a byte-order mark:
    distinct good rows (a corpus's after its header) or, if ``messy``, good and bad
    rows mixed with free text, now and then followed by bytes that are not UTF-8."""
    good, bad = _SAMPLE_ROWS[name]
    header = ["id\tsubcorpus\ttext\tstress_codes\trelax_codes"] if name == "corpus.tsv" else []
    lines = (st.lists(st.sampled_from(good + bad) | st.text(max_size=6), max_size=5) if messy
             else st.lists(st.sampled_from(good), unique=True, max_size=4).map(lambda rows: header + rows))
    tail = st.sampled_from([b"", b"\xff", b"\xc3"]) if messy else st.just(b"")
    return st.tuples(st.booleans(), lines, st.sampled_from(["\n", "\r\n", "\r"]), tail).map(
        lambda t: ("\ufeff" * t[0] + "".join(line + t[2] for line in t[1])).encode("utf-8", "surrogatepass") + t[3])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([None, *_SAMPLE_ROWS]), st.data())
def test_every_command_exits_cleanly_on_any_bytes(tmp_path_factory, messy, data):
    # Whatever the bytes of the input, the corpus and the seven lexicon files
    # (one of them drawn messy), no exception escapes, the exit code is 0, 1 or
    # 2, and a failure says why on stderr. Only score may have written rows by then.
    _run_every_command(tmp_path_factory.mktemp("contract"), messy,
                       lambda name: data.draw(_drawn_file(name, name == messy), label=name))


@pytest.mark.parametrize("messy, bad", [(name, bad) for name, (_, rows) in _SAMPLE_ROWS.items() for bad in rows])
def test_every_command_exits_cleanly_on_each_bad_row(tmp_path, messy, bad):
    # The same contract on every bad sample row, each among its file's good rows,
    # and every command that reads the file fails on it, naming the file.
    def body(name):
        good = ["id\tsubcorpus\ttext\tstress_codes\trelax_codes"] * (name == "corpus.tsv") + _SAMPLE_ROWS[name][0]
        return "".join(f"{row}\n" for row in good[:1] + [bad] * (name == messy) + good[1:]).encode()

    in_lexicon = messy not in ("corpus.tsv", "input.txt")
    path = tmp_path / "lexicon" / messy if in_lexicon else tmp_path / messy
    for argv, code, err in _run_every_command(tmp_path, messy, body):
        if ("--lexicon-dir" in argv) if in_lexicon else (str(path) in argv):
            assert code == 2 and err.startswith(f"error: {path}: ".encode()), (argv, code, err)


def _run_every_command(d, messy, body):
    """Run each command on files whose bytes are ``body(name)``; check how it ends,
    and return each command's argv, exit code and stderr bytes."""
    lex_dir = d / "lexicon"
    lex_dir.mkdir()
    paths = {name: d / name if name in ("corpus.tsv", "input.txt") else lex_dir / name
             for name in _SAMPLE_ROWS}
    for name, path in paths.items():
        path.write_bytes(body(name))
    # Only the messy file holds bad rows or bytes, and the input's good rows
    # may lack the tab that --tsv needs.
    at_fault = tuple(f"error: {paths[name]}: ".encode() for name in {messy, "input.txt"} - {None})
    corpus, lexicon = str(d / "corpus.tsv"), ("--lexicon-dir", str(lex_dir))
    commands = [
        ["score", *lexicon, str(d / "input.txt")],
        ["score", *lexicon, "--tsv", "--trace", str(d / "input.txt")],
        ["evaluate", *lexicon, corpus],
        ["evaluate", *lexicon, corpus, "--supervised", "--k", "2", "--reps", "1", "--seed", "1"],
        ["optimize", *lexicon, corpus, "--out-dir", str(d / "out"), "--seed", "1", "--max-passes", "2"],
        ["agreement", corpus],
        ["baseline", corpus, "--features", "3", "--scale", "stress", "--k", "2", "--reps", "1", "--seed", "1"],
    ]
    ended = []
    for argv in commands:
        out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out.flush(), err.flush()
        assert code in (0, 1, 2), argv
        if code:  # score's rows and trace come before the error, which ends stderr
            said = err.buffer.getvalue() if argv[0] != "score" else err.buffer.getvalue().splitlines()[-1]
            assert said.startswith((b"error:", b"I/O error:")), (argv, err.buffer.getvalue())
            # A row, bad-bytes or set-level word error names its file.
            if re.search(rb"\bline \d+: |not valid UTF-8|free of whitespace", said):
                assert code == 2 and said.startswith(at_fault), (argv, said)
            assert argv[0] == "score" or out.buffer.getvalue() == b"", argv
        ended.append((argv, code, err.buffer.getvalue()))
    return ended
