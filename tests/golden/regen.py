"""Rewrite digests.json from the current source and print the names of
the entries that changed, were added or were removed.

    PYTHONPATH=src python tests/golden/regen.py
    PYTHONPATH=src python tests/golden/regen.py --check

With --check nothing is written: the command prints the same names and
exits 1 if there are any, else 0.

A changed entry is a changed answer: say in CHANGES.md which one and why.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from golden import corpus  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="compare with digests.json; write nothing"
    )
    args = parser.parse_args(argv)
    old = corpus.load()["entries"] if corpus.DIGESTS.exists() else {}
    new = {}
    for name, digest in corpus.entries().items():
        with tempfile.TemporaryDirectory() as workdir:
            new[name] = digest(Path(workdir))
    differences = [
        ("changed", [name for name in new if name in old and old[name] != new[name]]),
        ("added", [name for name in new if name not in old]),
        ("removed", [name for name in old if name not in new]),
    ]
    for label, names in differences:
        for name in names:
            print(f"{label}: {name}")
    if args.check:
        found = sum(len(names) for _, names in differences)
        print(f"{len(new)} entries checked, {found} differ from {corpus.DIGESTS.name}")
        return 1 if found else 0
    corpus.dump({"versions": corpus.versions(), "entries": new})
    print(f"{len(new)} entries written to {corpus.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
