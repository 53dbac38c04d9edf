"""Byte-identity of the command-line output on the corpus.

``tests/data/cli_golden.txt`` is a transcript of ``--no-timing`` runs:
``resolve``, ``invariants`` and ``implicitize`` on every corpus file, and
``equisingular`` and ``isotopy --samples 8`` on every ordered corpus pair.
Each run is the command line, its stdout, its stderr (prefixed ``stderr:``)
and its exit code.  A change that sets out to change a result regenerates
the file with ``PYTHONPATH=src python tests/test_cli_golden.py`` from the
repository root and says why in its change notes.
"""
import contextlib
import io
import itertools
import os
import sys

from conftest import CORPUS_NAMES

from germflow.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(ROOT, "tests", "data", "cli_golden.txt")


def _runs():
    files = [f"corpus/{name}.branch" for name in CORPUS_NAMES]
    for command in ("resolve", "invariants", "implicitize"):
        for f in files:
            yield [command, f]
    for a, b in itertools.product(files, repeat=2):
        yield ["equisingular", a, b]
    for a, b in itertools.product(files, repeat=2):
        yield ["isotopy", a, b, "--samples", "8"]


def transcript() -> str:
    """The golden transcript; run from the repository root."""
    chunks = []
    for argv in _runs():
        argv = argv + ["--no-timing"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        chunks.append("$ germflow " + " ".join(argv) + "\n" + out.getvalue()
                      + "".join(f"stderr: {line}\n" for line in err.getvalue().splitlines())
                      + f"[exit {code}]\n")
    return "".join(chunks)


def test_cli_output_matches_the_golden_transcript(monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    assert golden.count("$ germflow ") == 3 * len(CORPUS_NAMES) + 2 * len(CORPUS_NAMES) ** 2
    got = transcript()
    for want_run, got_run in zip(golden.split("$ germflow "), got.split("$ germflow ")):
        assert got_run == want_run
    assert got == golden


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.stdout.write(transcript())
