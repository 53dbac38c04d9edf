import os

import pytest
from hypothesis import settings

from germflow import parse_branch_file

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

CORPUS_NAMES = [
    "cusp", "cusp_t4", "cusp_2t3", "e25", "e25_shift",
    "two_pair", "e34", "e35", "diag", "parabola",
]


def load_corpus():
    """label -> Branch for every corpus file, at working precision 64."""
    return {name: parse_branch_file(os.path.join(CORPUS_DIR, name + ".branch")).with_precision(64)
            for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_dir():
    return os.path.abspath(CORPUS_DIR)
