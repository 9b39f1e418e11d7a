"""Golden digests: the four result files of two pinned runs, byte for byte.

The determinism check in test_acceptance compares runs of the same code
with each other, so it cannot see the outputs drift between versions.
These digests can. Re-pin them only in a change that alters the outputs
on purpose, and say why in CHANGES.md. A numpy release that moves a
random stream also breaks them; the failure message names the numpy
version so that case is told apart from a code change.
"""

import hashlib

import numpy as np
import pytest

from fuzzychain.cli import main

GOLDEN = {
    "exp1": (
        ["run", "exp1", "--seed", "42", "--rounds", "100", "--reps", "20"],
        {
            "frequencies.csv": "74dc45a590f683348731ba4faff4734dfdde1b1498966356ecdf05e827986b1d",
            "summary.json": "439ca9b50f886d292d21c07acd4656e7780b8c6960a8af4602250fa3ed2582e6",
            "audit.jsonl": "cc5b0290e8802300613c357e0cfaa9b1b7c82edb9174ced322913cb1ea97e1c6",
            "plots.svg": "cde0884055a7d5156f7081bd3f64e7c4d1bb4477a6ffeb141363491e213e85c5",
        },
    ),
    "exp2": (
        ["run", "exp2", "--seed", "1", "--reps", "1"],
        {
            "frequencies.csv": "fc21dcc1808e41c125495840f1267ac42d148516719dc1671a33cda4eb20842a",
            "summary.json": "2efc5183b13881791510c2dc166b434f2021166609da86d5fe1eda5a8100266d",
            "audit.jsonl": "a20ea3e09a08965e501a4cc2d7904c2f8aac40770e6f76d15545d2eb2f8785c4",
            "plots.svg": "234d2e2a1bc6f5869abc767a36da0fbb7be0f2aa8f3913b44cdd1e53c1927aa4",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_result_files_match_golden_digests(name, tmp_path):
    argv, digests = GOLDEN[name]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
    changed = sorted(f for f in digests if got[f] != digests[f])
    assert not changed, (
        f"{name}: {changed} differ from the golden digests (numpy {np.__version__}); "
        f"got {got}"
    )
