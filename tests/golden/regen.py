"""Rewrite digests.json from the current source and print the names of
the entries that changed, were added or were removed.

    PYTHONPATH=src python tests/golden/regen.py

A changed entry is a changed answer: say in CHANGES.md which one and why.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from golden import corpus  # noqa: E402


def main() -> int:
    old = corpus.load()["entries"] if corpus.DIGESTS.exists() else {}
    new = {}
    for name, digest in corpus.entries().items():
        with tempfile.TemporaryDirectory() as workdir:
            new[name] = digest(Path(workdir))
    changed = [name for name in new if name in old and old[name] != new[name]]
    for label, names in (
        ("changed", changed),
        ("added", [name for name in new if name not in old]),
        ("removed", [name for name in old if name not in new]),
    ):
        for name in names:
            print(f"{label}: {name}")
    corpus.dump({"versions": corpus.versions(), "entries": new})
    print(f"{len(new)} entries written to {corpus.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
