import pytest
from hypothesis import settings

# property tests run simulation code; wall-clock deadlines only cause flakes
settings.register_profile("lab", deadline=None)
# the exactness tests run deeper under this one: --hypothesis-profile=exact
settings.register_profile("exact", deadline=None, max_examples=2000)
settings.load_profile("lab")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    tr = terminalreporter
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in tr.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call" and status == "passed":
                continue
            name = nodeid.split("::")[-1]
            rows.append((name, status == "passed"))
    if not rows:
        return
    seen = set()
    tr.write_sep("=", "acceptance criteria")
    for name, ok in sorted(rows):
        if name in seen:
            continue
        seen.add(name)
        tr.write_line(("PASS  " if ok else "FAIL  ") + name)


@pytest.fixture
def tiny_config():
    """Small, fast frequency-experiment config for harness tests."""
    from fuzzychain.config import ExperimentConfig

    return ExperimentConfig(
        experiment="exp1",
        seed=11,
        population_per_label={"VL": 12, "L": 9, "M": 7, "H": 5, "VH": 4},
        rounds=(25,),
        repetitions=3,
    )
