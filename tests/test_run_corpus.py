"""Byte-identity of ``scripts/run_corpus.py`` output.

``tests/data/run_corpus_golden.txt`` is the script's stdout with its default
settings: the invariant table of every corpus branch and the verified
isotopy of every equisingular pair, whose graph-match stages read each
graph off at precision 64.  A change that sets out to change a result
regenerates the file with ``python3 scripts/run_corpus.py >
tests/data/run_corpus_golden.txt`` from the repository root and says why in
its change notes.
"""
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(ROOT, "tests", "data", "run_corpus_golden.txt")


def test_run_corpus_output_matches_the_golden_file():
    run = subprocess.run([sys.executable, os.path.join("scripts", "run_corpus.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    with open(GOLDEN, encoding="utf-8") as fh:
        assert run.stdout == fh.read()
