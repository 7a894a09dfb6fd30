"""Byte identity of the golden CLI runs in ``golden.json``; see ``golden.py``."""

import json

from golden import GOLDEN, run_entries, versions


def test_golden_runs_are_byte_identical(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert golden["versions"] == versions(), (
        f"golden.json was made with {golden['versions']}, this is {versions()}: "
        "hashes of numeric output may move with the numpy or scipy version, so check "
        "the moved entries and regenerate with `PYTHONPATH=src python tests/golden.py`"
    )
    entries = run_entries(golden["entries"], tmp_path)
    moved = [new["name"] for old, new in zip(golden["entries"], entries) if old != new]
    assert moved == []
