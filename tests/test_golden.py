"""Golden parity corpus (tests/golden): every entry computes the digests
stored for it. An entry that fails names an answer that changed; rewrite
the corpus with tests/golden/regen.py only for a change made on purpose."""

import json

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


def test_regen_check_lists_the_differences_and_writes_nothing(monkeypatch, tmp_path, capsys):
    from golden import regen

    digests = tmp_path / "digests.json"
    stored = {"same": {"a": "1"}, "moved": {"a": "1"}, "gone": {"a": "1"}}
    digests.write_text(json.dumps({"versions": {}, "entries": stored}), encoding="utf-8")
    before = digests.read_bytes()
    monkeypatch.setattr(corpus, "DIGESTS", digests)

    def corpus_of(found):
        return lambda: {name: lambda workdir, d=d: d for name, d in found.items()}

    moved = {"same": {"a": "1"}, "moved": {"a": "2"}, "new": {"a": "1"}}
    monkeypatch.setattr(corpus, "entries", corpus_of(moved))
    assert regen.main(["--check"]) == 1
    assert capsys.readouterr().out == (
        "changed: moved\nadded: new\nremoved: gone\n3 entries checked, 3 differ from digests.json\n"
    )
    monkeypatch.setattr(corpus, "entries", corpus_of(stored))
    assert regen.main(["--check"]) == 0
    assert capsys.readouterr().out == "3 entries checked, 0 differ from digests.json\n"
    assert digests.read_bytes() == before
