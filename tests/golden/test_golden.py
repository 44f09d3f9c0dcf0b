"""Absolute outputs against the committed golden corpus.

See :mod:`tests.golden.corpus` for what is pinned, why other CPython
versions compare to 1e-9 instead of exactly, and how to regenerate the
corpus when a change moves an entry on purpose.
"""

import pytest

from tests.golden import corpus


@pytest.fixture(scope="module")
def golden():
    return corpus.load()


def _approx(value):
    if isinstance(value, dict):
        return {key: _approx(v) for key, v in value.items()}
    if isinstance(value, float):
        return pytest.approx(value, rel=1e-9, abs=0.0)
    return value


@pytest.mark.parametrize("section", sorted(corpus.SECTIONS))
def test_matches_golden_corpus(golden, section):
    fresh = corpus.SECTIONS[section]()
    if corpus.python_version() == golden["python"]:
        assert fresh == golden[section]
    else:
        assert fresh == _approx(golden[section])


def test_corpus_covers_every_fig2_set_and_app(golden):
    from repro.workloads.suites import PAPER_APPS

    assert sorted(golden["fig2"]) == ["A", "B", "C"]
    for rows in golden["fig2"].values():
        assert sorted(rows) == sorted(PAPER_APPS)
