"""The golden set: CLI runs whose exit code, stdout and output files are
pinned by their sha256 in ``golden.json``.

Each entry of ``golden.json`` names its ``inputs`` (files written before the
run: a JSON object is written as JSON, a string as is, in UTF-8 but for the
surrogate escapes ``\\udc80``-``\\udcff``, which stand for single bytes that
are not UTF-8), its ``argv`` and, as the keys of ``files``, the files whose
bytes it pins.  The entries run in order in one directory through
``jumpvol.cli.main``, so an entry may read what an earlier one wrote.
``tests/test_golden.py`` holds the code to the file; running this script
rewrites the file from the code and prints every entry whose record moved (add
an entry by hand, with ``null`` hashes, and run the script to fill it in)::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from jumpvol import cli

GOLDEN = Path(__file__).with_name("golden.json")


def versions() -> dict:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_entry(entry: dict) -> dict:
    """``entry`` with its exit code and hashes as the code makes them now."""
    for path, content in entry["inputs"].items():
        text = content if isinstance(content, str) else json.dumps(content)
        Path(path).write_text(text, encoding="utf-8", errors="surrogateescape")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(entry["argv"])
    files = {
        path: _sha256(Path(path).read_bytes()) if Path(path).exists() else None
        for path in entry["files"]
    }
    return {**entry, "exit": code, "stdout": _sha256(stdout.getvalue().encode()), "files": files}


def run_entries(entries: list[dict], workdir) -> list[dict]:
    """Every entry run in turn in ``workdir``, without ``JUMPVOL_SEED``."""
    cwd = os.getcwd()
    seed = os.environ.pop("JUMPVOL_SEED", None)
    os.chdir(workdir)
    try:
        return [_run_entry(entry) for entry in entries]
    finally:
        os.chdir(cwd)
        if seed is not None:
            os.environ["JUMPVOL_SEED"] = seed


def main() -> int:
    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as workdir:
        entries = run_entries(golden["entries"], workdir)
    if golden["versions"] != versions():
        print(f"versions: {golden['versions']} -> {versions()}")
    for old, new in zip(golden["entries"], entries):
        if old != new:
            print(f"moved: {new['name']}")
    GOLDEN.write_text(json.dumps({"versions": versions(), "entries": entries}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
