"""Tests for the abstract backend."""

from repro.common.stats import StatBlock
from repro.core.backend import Backend
from repro.core.configs import BackendConfig, SimConfig
from repro.core.kernel import build_columns
from repro.isa import BranchClass, Trace, TraceEntry


def make_trace(n=64, branch_every=0):
    entries = []
    pc = 0x1000
    for i in range(n):
        if branch_every and i % branch_every == branch_every - 1:
            entries.append(TraceEntry(pc, BranchClass.COND_DIRECT, False, 0))
        else:
            entries.append(TraceEntry(pc))
        pc += 4
    return Trace.from_entries("t", entries)


def make_backend(config, trace):
    columns = build_columns(trace, SimConfig(backend=config))
    return Backend(config, trace, StatBlock(), columns)


class TestDispatchCommit:
    def test_simple_flow(self):
        trace = make_trace(8)
        backend = make_backend(BackendConfig(), trace)
        for i in range(8):
            completion = backend.dispatch(i, cycle=0)
            assert completion > 0
        # Eventually everything commits.
        cycle = 0
        while backend.committed < 8:
            backend.commit(cycle)
            cycle += 1
            assert cycle < 1000
        assert backend.committed == 8

    def test_commit_in_order_and_width_limited(self):
        trace = make_trace(32)
        config = BackendConfig(commit_width=4)
        backend = make_backend(config, trace)
        for i in range(32):
            backend.dispatch(i, cycle=0)
        retired = backend.commit(cycle=10_000)  # all long complete
        assert retired == 4

    def test_rob_capacity(self):
        trace = make_trace(64)
        config = BackendConfig(rob_entries=16)
        backend = make_backend(config, trace)
        for i in range(16):
            assert backend.rob_has_room()
            backend.dispatch(i, cycle=0)
        assert not backend.rob_has_room()
        backend.commit(cycle=10_000)
        assert backend.rob_has_room()

    def test_completion_of_unknown_index(self):
        trace = make_trace(4)
        backend = make_backend(BackendConfig(), trace)
        assert backend.completion_of(0) is None
        backend.dispatch(0, cycle=5)
        assert backend.completion_of(0) is not None


class TestBranchResolution:
    def test_branch_latency_is_fixed(self):
        trace = make_trace(16, branch_every=4)
        config = BackendConfig(branch_latency=8)
        backend = make_backend(config, trace)
        completion = backend.dispatch(3, cycle=10)  # index 3 is a branch
        assert completion == 10 + 1 + 8

    def test_branch_ignores_dependency_chain(self):
        trace = make_trace(16, branch_every=4)
        config = BackendConfig(branch_latency=8, long_load_latency=500)
        backend = make_backend(config, trace)
        # Dispatch a bunch of slow work first.
        for i in range(3):
            backend.dispatch(i, cycle=0)
        completion = backend.dispatch(3, cycle=0)
        assert completion == 0 + 1 + 8


class TestIssueWidth:
    def test_completions_rate_limited(self):
        trace = make_trace(64)
        config = BackendConfig(issue_width=2, simple_latency=1, load_hash_mod=10**9, dep_window=1)
        backend = make_backend(config, trace)
        completions = [backend.dispatch(i, cycle=0) for i in range(10)]
        # At most 2 completions may land on any single cycle.
        from collections import Counter

        per_cycle = Counter(completions)
        assert max(per_cycle.values()) <= 2
