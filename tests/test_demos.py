"""Each demo script runs from the repository root and prints its walkthrough."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, path], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


# The whole stdout of demos 01-03; demo 01 prints explain() traces. Demo 04
# is left out: its logistic row comes from a floating-point fit.
DEMO_STDOUT = {
    "01_scoring_walkthrough.py": """\
Each text gets a stress score (-1 none .. -5 extreme) and a
relaxation score (1 none .. 5 complete), from the strongest
matching term per sentence after the modifier rules.

stress  -3  relaxation 1  | Almost home and the train is delayed
stress  -1  relaxation 4  | Fell asleep on the beach, totally relaxed :)
stress  -3  relaxation 1  | never relaxed before a deadline
stress  -5  relaxation 1  | sooo stressssed about the exam!!!
stress  -1  relaxation 3  | put my feet up with a massage

The trace explains every rule that fired:

text score: stress -4, relaxation 1
  sentence 1: 'never relaxed before a deadline !!!' -> stress -4, relaxation 1
    negated-relax 'relax*' at token 1: base 3, -> 3 on stress
    stress-term 'deadline' at token 4: base 2, -> 2 on stress
    exclamation boost +1 on stress
""",
    "02_optimizer_demo.py": """\
error with reference lexicon: 0
error after damaging 5 terms: 30

initial_error	30
change	stress	stressor4	3->2	30->24
change	relax	soother2	5->4	24->18
change	relax	soother7	4->5	18->12
change	stress	stressor1	4->3	12->6
change	stress	stressor8	3->2	6->0
passes_run	2
changes_made	5
final_error	0

recovered reference lexicon: True
""",
    "03_agreement_and_metrics.py": """\
weighted Krippendorff alpha (linear weights): 0.751
  same matrix, interval weights:             0.903

coder 1 vs coder 2: pearson 0.930  MAD 0.375
coder 2 vs coder 3: pearson 0.888  MAD 0.625
coder 1 vs coder 3: pearson 0.960  MAD 0.250

four-text example: pearson 0.577, MAD 1.000
(the one wrong prediction of 5 leaves the correlation at 0.577
 but costs a full point of MAD spread over four texts)

cross-tabulation of coder 1 against coder 2 (% of texts):
  1:  12.5   12.5    0.0    0.0    0.0
  2:   0.0   12.5   12.5    0.0    0.0
  3:   0.0    0.0   12.5    0.0    0.0
  4:   0.0    0.0    0.0   12.5    0.0
  5:   0.0    0.0    0.0   12.5   12.5
""",
}


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT))
def test_demo_stdout_pinned(name):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == DEMO_STDOUT[name]


def test_readme_python_quick_start(capsys, monkeypatch):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        code = fh.read().split("\n## Quick start\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)  # it loads data/default_lexicon
    exec(code, {})
    assert capsys.readouterr().out.splitlines()[0] == "-5 1"
