"""The benchmark's workloads: one fuzzychain config each, plus its checks.

Every workload is a config document fed through the same path as
`fuzzychain run ... --config` (config_from_dict -> run_configured ->
emit_outputs). Sizes are fixed here so that the pinned digests below
stay valid; only the seed comes from the command line. NOTES.md says
why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 42

# the exp1 preset's 500/300/150/30/10 label shares, times 50
POPULATION_X50 = {"VL": 25000, "L": 15000, "M": 7500, "H": 1500, "VH": 500}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # config document without its seed
    expect_faults: bool  # rejections, expulsions and short panels must all occur

    def config_for(self, seed: int) -> dict:
        return dict(self.config, seed=seed)

    def rounds_total(self) -> int:
        """Consensus rounds one run completes: rounds x repetitions."""
        c = self.config
        per_rep = c["fuzzychain_rounds"] if c["experiment"] == "exp2" else sum(c["rounds"])
        return per_rep * c["repetitions"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exp1_paper", {"experiment": "exp1", "rounds": [500], "repetitions": 4},
                 expect_faults=False),
        Workload(
            "exp1_pop49500",
            {
                "experiment": "custom",
                "population_per_label": POPULATION_X50,
                "granularity": "per-participant",
                "rounds": [100],
                "repetitions": 2,
            },
            expect_faults=False,
        ),
        Workload(
            "exp2_faults",
            {
                "experiment": "exp2",
                "repetitions": 4,
                "byzantine_rate": 0.15,
                "invalid_block_rate": 0.3,
                "fuzzychain_rounds": 500,
                "baselines": {"participants": 1000, "rounds": 1000},
            },
            expect_faults=True,
        ),
    )
}

# sha256 of the result files at DEFAULT_SEED. Re-pin only in a change
# that alters outputs on purpose, and say why in CHANGES.md.
PINNED_DIGESTS = {
    "exp1_paper": {
        "frequencies.csv": "07752f63be76df6ad0f1865e68f39a0281c3bdb154d70303e438591bc0a7d1f1",
        "summary.json": "81f564e841fc2b6e2b1782a9bd3ace8fd944529ef9836900ba18cf9e8f66f769",
        "audit.jsonl": "78ea465a79f9582236b3b67db5b2258868810416c3bdafef249edbe5d12a6313",
    },
    "exp1_pop49500": {
        "frequencies.csv": "6c2316de4302b57a1de33b46b6e3b44286ba5a29157a2678e98dd136442497bf",
        "summary.json": "c3efe327f1d03b386de6cdce2c759c629e697b01f6a35f6087e524a03e577aa4",
        "audit.jsonl": "b3924a2cd6c17e6d7931af091619861740a974477bfbcfb3b18b66870f3d561e",
    },
    "exp2_faults": {
        "frequencies.csv": "ae31aa57ac0e32312eb50a9f2c3123346d48b539ed3b8aff6b5950283d81d27d",
        "summary.json": "09de287d33bf2647c509b9751dcd30157dc2cbf2d53e9bd88358dac5023afc07",
        "audit.jsonl": "96deff33e2e9729ba848d27727301035c2c3f934d63a6017afdf152b002a2f60",
    },
}
