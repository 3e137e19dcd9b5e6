"""Mutation-catch tests for the batched kernel.

The kernel-vs-interpreter differential oracle is the only committed
defence against a replay bug producing silently wrong (but plausible)
results.  This suite injects the registered kernel faults — span
off-by-one, skewed replay cursor, stale branch class in the recorder,
stale alternate-path history in UCP's replay — and asserts the oracle
catches every one with the ``kernel-differential`` invariant, mirroring
``test_verify_faults.py`` for the sanitizer.
"""

import pytest

from repro.core.backend import Backend
from repro.core.kernel import stream as stream_module
from repro.core.kernel.stream import AltPathReplay
from repro.core.ucp import UCPEngine
from repro.frontend.bpu import BPU, LiveSource, ReplaySource
from repro.verify.kernel_diff import KERNEL_DIFFERENTIAL
from repro.verify.kernel_faults import KERNEL_FAULTS, run_kernel_fault


def _class_methods(*classes):
    return {
        (cls, name): value
        for cls in classes
        for name, value in vars(cls).items()
        if callable(value)
    }


def test_registry_has_the_three_kernel_faults():
    assert set(KERNEL_FAULTS) >= {
        "kernel-span-off-by-one",
        "kernel-stale-branch-class",
        "kernel-skewed-cursor",
        "kernel-stale-alt-history",
    }


def test_every_kernel_fault_expects_the_differential():
    for fault in KERNEL_FAULTS.values():
        assert KERNEL_DIFFERENTIAL in fault.expected_invariants


@pytest.mark.parametrize("name", sorted(KERNEL_FAULTS))
def test_kernel_fault_is_caught(name):
    outcome = run_kernel_fault(name)
    assert outcome.caught, outcome.render()
    assert outcome.invariant == KERNEL_DIFFERENTIAL


def test_patches_are_restored_after_runs():
    originals = _class_methods(ReplaySource, AltPathReplay)
    record, cache = stream_module.record_stream, stream_module._CACHE
    for name in KERNEL_FAULTS:
        run_kernel_fault(name)
    assert _class_methods(ReplaySource, AltPathReplay) == originals
    assert stream_module.record_stream is record
    assert stream_module._CACHE is cache


def test_faults_only_patch_the_replay_class():
    """The interpreter reference must stay clean, or the differential
    would compare one bug against itself: while any kernel fault is
    injected, BPU, the live source, UCPEngine and Backend are unpatched."""
    originals = _class_methods(BPU, LiveSource, UCPEngine, Backend)
    for fault in KERNEL_FAULTS.values():
        with fault.inject():
            assert _class_methods(BPU, LiveSource, UCPEngine, Backend) == originals


def test_cursor_desync_is_reported_missed(monkeypatch):
    """A replay cursor running off its recording is a miss, not a crash."""
    from repro.verify import kernel_faults
    from repro.verify.faults import Fault

    def desync():
        return kernel_faults._after_replay_init(
            lambda source: setattr(source, "_indirect_cursor", 10**9)
        )

    fault = Fault(
        name="kernel-test-desync",
        description="indirect cursor starts past the recording",
        expected_invariants=(KERNEL_DIFFERENTIAL,),
        inject=desync,
    )
    monkeypatch.setitem(KERNEL_FAULTS, fault.name, fault)
    outcome = run_kernel_fault(fault.name)
    assert not outcome.caught
    assert "IndexError" in outcome.detail
