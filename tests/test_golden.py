"""Golden parity corpus (tests/golden): every entry computes the digests
stored for it. An entry that fails names an answer that changed; rewrite
the corpus with tests/golden/regen.py only for a change made on purpose."""

import pytest

from golden import corpus

ENTRIES = corpus.entries()
STORED = corpus.load()


def test_the_stored_entries_are_the_corpus():
    assert list(STORED["entries"]) == list(ENTRIES)


@pytest.mark.parametrize("name", list(ENTRIES))
def test_golden_entry(name, tmp_path):
    got = ENTRIES[name](tmp_path)
    assert got == STORED["entries"].get(name), (
        f"recorded under {STORED['versions']}, run under {corpus.versions()}"
    )
