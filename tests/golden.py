"""The golden files: the data files of the five commands on paper.json
(seed 42, every format).

`golden_digests.json` holds each data file's sha256 under the numpy version
and SIMD targets that wrote it (`host_key()`), so it is checked only there.
`golden_values.json` holds what every host must reproduce: each JSON data
file as parsed and each CSV's lines, checked with tolerances by
`tests/test_cli.py::test_golden_values`. A change that alters data files on
purpose rewrites both in one commit, from the repository root:

    PYTHONPATH=src python tests/golden.py
"""

import json
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


def _dump(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def write(outs: dict) -> None:
    """Record these outputs in both golden files: the digests under this
    host's key (other hosts' entries kept), and the values."""
    recorded = json.loads(DIGESTS.read_text())
    recorded[host_key()] = digests(outs)
    _dump(recorded, DIGESTS)
    _dump({"written_on": host_key(), "files": values(outs)}, VALUES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outs = {c: Path(tmp) / c for c in COMMANDS}
        for c, out in outs.items():
            assert main([c, "--config", str(PAPER), "--out", str(out)]) == 0, c
        write(outs)
    print(f"wrote {DIGESTS.name} ({host_key()}) and {VALUES.name}", file=sys.stderr)
