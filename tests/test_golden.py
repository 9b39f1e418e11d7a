"""Golden digests: the four result files of three pinned runs, byte for byte.

The determinism check in test_acceptance compares runs of the same code
with each other, so it cannot see the outputs drift between versions.
These digests can. Re-pin them only in a change that alters the outputs
on purpose, and say why in CHANGES.md. A numpy release that moves a
random stream also breaks them; the failure message names the numpy
version so that case is told apart from a code change.

The exp1 and exp2 runs are honest. The faults run is exp1 on a config
file with byzantine voters and invalid blocks, so it pins the reject,
expulsion and short-panel path: of its 120 rounds, 30 are rejected, 5
expel a validator, and 76 form a panel of 5 seats.
"""

import hashlib
import json

import numpy as np
import pytest

from fuzzychain.cli import main

FAULTS_CONFIG = {
    "seed": 7,
    "population_per_label": {"VL": 12, "L": 9, "M": 7, "H": 5, "VH": 4},
    "rounds": [60],
    "repetitions": 2,
    "byzantine_rate": 0.15,
    "invalid_block_rate": 0.3,
    "granularity": "per-participant",
}

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
    "faults": (
        ["run", "exp1", "--config", "faults.json"],
        {
            "frequencies.csv": "93a42ddb388ae691b3d71a97ae9a8035a17c99b3c5e0388a529ec48cab76f961",
            "summary.json": "c251ce7de5597edb4404f4dc931c4459c35c90497ff888789c30b2ec7bcd8ba1",
            "audit.jsonl": "4a8e172dbc86e4fe516fa62653ab48023a7a5bf627b89a008c5cbf12368eb49d",
            "plots.svg": "7e06b6992ddee2d85bda2453515ea3bc86e21d30af35e001fa7d0d83b5671908",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_result_files_match_golden_digests(name, tmp_path, monkeypatch):
    argv, digests = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "faults.json").write_text(json.dumps(FAULTS_CONFIG))
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
    changed = sorted(f for f in digests if got[f] != digests[f])
    assert not changed, (
        f"{name}: {changed} differ from the golden digests (numpy {np.__version__}); "
        f"got {got}"
    )
