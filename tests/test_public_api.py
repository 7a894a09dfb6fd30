"""The package's public names: ``__all__`` lists exactly the public
attributes, and covers every name the benchmark workloads call."""

import re
import types
from pathlib import Path

import jumpvol

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_all_covers_every_name_the_benchmark_uses():
    used = set(re.findall(r"\bjv\.([A-Za-z_]\w*)", WORKLOADS.read_text()))
    assert used, "no jv.<name> found in bench/workloads.py"
    assert sorted(used - set(jumpvol.__all__)) == []


def test_all_is_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(jumpvol).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(jumpvol.__all__) == public
    assert len(jumpvol.__all__) == len(set(jumpvol.__all__))


def test_derive_seed_lives_beside_the_replication_loop():
    assert jumpvol.derive_seed is jumpvol.harness.derive_seed
    # the seeds of every published run stay as they were
    assert jumpvol.derive_seed(7, 3, 11) == 246756699162853161065411023035676043112
    assert jumpvol.derive_seed(0, 0, 0) == 158005560261127736791001054578933370372
