"""Layer timing taken from outside the program.

The tracer replaces public functions and methods of fuzzychain's
modules with timing wrappers, on the name each caller looks up (a
module global such as `consensus.validate_block`, or a class
attribute such as `Registry.trusted_sets`). Nothing under src/ knows
about it. Spans are aggregated in memory: per span name, the call
count, every duration and the self time (duration minus the part its
traced child spans cover).
"""

from __future__ import annotations

import time
from collections import defaultdict

from fuzzychain import consensus, experiments, ledger, outputs, registry
from fuzzychain.consensus import FuzzychainEngine
from fuzzychain.ledger import Chain
from fuzzychain.registry import Registry

# (owner, attribute, span name). Several attributes may share a span.
TARGETS = (
    (registry, "classify_stake", "fuzzy.classify"),
    (experiments, "scale_stakes", "fuzzy.classify"),
    (experiments, "build_registry", "registry.build"),
    (Registry, "trusted_sets", "registry.trusted_sets"),
    (Registry, "participants", "registry.participants"),
    (Registry, "apply_vote_outcome", "registry.settle"),
    (Registry, "set_stake", "registry.settle"),
    (FuzzychainEngine, "run_round", "consensus.round"),
    (consensus, "select_first_round", "consensus.select"),
    (consensus, "select_round_j", "consensus.select"),
    (consensus, "build_subsets", "consensus.subset_scan"),
    (consensus, "cast_votes", "consensus.vote"),
    (consensus, "tally", "consensus.vote"),
    (consensus, "pick_winner", "consensus.vote"),
    (consensus, "validate_block", "ledger.validate_vote"),
    (experiments, "new_keypair", "ledger.keygen"),
    (experiments, "sign_transaction", "ledger.sign"),
    (experiments, "build_block", "ledger.build_block"),
    (Chain, "append", "ledger.append"),
    (ledger, "verify_transaction", "ledger.verify"),
    (experiments, "run_pow", "baselines.pow"),
    (experiments, "run_pos", "baselines.pos"),
    (experiments, "run_dpos", "baselines.dpos"),
    (experiments, "summarize_counts", "metrics.summarize"),
    (experiments, "run_fuzzychain_once", "experiments.rep"),
    (outputs, "render_exp1_plots", "svg.render"),
    (outputs, "render_exp2_plots", "svg.render"),
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        self.self_s = defaultdict(float)
        # participants handed out by Registry.participants() inside trusted_sets()
        self.members_scanned = 0
        self._stack = [["", 0.0]]  # [span name, time covered by child spans]
        self._undo = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) as one span called name."""
        frame = [name, 0.0]
        parent = self._stack[-1]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            parent[1] += dt
            self.calls[name] += 1
            self.durations[name].append(dt)
            self.self_s[name] += dt - frame[1]
        if name == "registry.participants" and parent[0] == "registry.trusted_sets":
            self.members_scanned += len(result)
        return result

    def _wrap(self, owner, attr, name):
        original = owner.__dict__[attr]

        def traced(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self):
        for owner, attr, name in TARGETS:
            self._wrap(owner, attr, name)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
