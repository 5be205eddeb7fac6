"""The golden files: the data files of the five commands on paper.json
(seed 42, every format).

`golden_digests.json` holds each data file's sha256 under the numpy version
and SIMD targets that wrote it (`host_key()`), so it is checked only there.
`golden_values.json` holds what every host must reproduce: each JSON data
file as parsed and each CSV's lines, checked with tolerances by
`tests/test_cli.py::test_golden_values`. A change that alters data files on
purpose rewrites both in one commit, from the repository root:

    PYTHONPATH=src python tests/golden.py

It prints each data file whose digest under this host's key changed: for a
JSON file, how many of its numbers changed and their largest relative
difference; for a CSV file, how many of its lines changed.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from varexp.cli import COMMANDS, main

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "golden_digests.json"
VALUES = HERE / "golden_values.json"
PAPER = HERE.parent / "paper.json"


def host_key() -> str:
    """The numpy version and the SIMD targets it found, which key the digests."""
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return f"numpy {np.__version__} simd {','.join(found)}"


def _data_files(outs: dict):
    """(command/name, path, sha256) of each data file the commands'
    manifests list."""
    for c in COMMANDS:
        files = json.loads((outs[c] / "run_manifest.json").read_text())["files"]
        for name, sha in files.items():
            yield f"{c}/{name}", outs[c] / name, sha


def digests(outs: dict) -> dict:
    """{command/name: sha256} of each data file, from the manifests."""
    return {key: sha for key, _, sha in _data_files(outs)}


def values(outs: dict) -> dict:
    """{command/name: content} of each JSON and CSV data file: the parsed
    document, or the CSV's lines as printed. SVGs are left to the digests."""
    got = {}
    for key, path, _ in _data_files(outs):
        if path.suffix == ".json":
            got[key] = json.loads(path.read_text())
        elif path.suffix == ".csv":
            got[key] = path.read_text().splitlines()
    return got


def _leaves(old, new):
    """(old, new) of each value at the same place in two parsed JSON
    documents; a place found in one document only pairs with None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in old.keys() | new.keys():
            yield from _leaves(old.get(k), new.get(k))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for o, n in zip(old, new):
            yield from _leaves(o, n)
    else:
        yield old, new


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def change(name: str, old, new) -> str:
    """How data file `name`'s recorded content `old` became `new`: for a
    CSV's lines, the lines that changed; for a parsed JSON document, the
    numbers that changed and their largest difference relative to the
    larger magnitude, and any other value that changed."""
    if name.endswith(".csv"):
        changed = sum(o != n for o, n in zip(old, new)) + abs(len(old) - len(new))
        return f"{changed} of {len(new)} lines changed"
    pairs = list(_leaves(old, new))
    numbers = [(o, n) for o, n in pairs if _number(o) and _number(n)]
    moved = [(o, n) for o, n in numbers if repr(o) != repr(n)]
    rel = max((abs(o - n) / max(abs(o), abs(n)) if math.isfinite(o - n) else math.inf
               for o, n in moved), default=0.0)
    text = f"{len(moved)} of {len(numbers)} numbers changed, largest relative difference {rel:.2g}"
    others = sum(repr(o) != repr(n) for o, n in pairs if not (_number(o) and _number(n)))
    return text + (f", other values changed: {others}" if others else "")


def _dump(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def write(outs: dict) -> None:
    """Record these outputs in both golden files: the digests under this
    host's key (other hosts' entries kept), and the values. Prints each data
    file whose digest changed, and how (`change`)."""
    recorded = json.loads(DIGESTS.read_text())
    old_values = json.loads(VALUES.read_text())["files"]
    old, new, got = recorded.get(host_key(), {}), digests(outs), values(outs)
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) == new.get(key):
            continue
        if key not in old or key not in new:
            how = "new file" if key not in old else "removed"
        elif key in got and key in old_values:
            how = change(key, old_values[key], got[key])
        else:
            how = "changed"
        print(f"{key}: {how}", file=sys.stderr)
    recorded[host_key()] = new
    _dump(recorded, DIGESTS)
    _dump({"written_on": host_key(), "files": got}, VALUES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outs = {c: Path(tmp) / c for c in COMMANDS}
        for c, out in outs.items():
            assert main([c, "--config", str(PAPER), "--out", str(out)]) == 0, c
        write(outs)
    print(f"wrote {DIGESTS.name} ({host_key()}) and {VALUES.name}", file=sys.stderr)
