"""Batched kernel: column/stream units plus the differential gate.

The replay kernel (:mod:`repro.core.kernel`) promises bit-identical
results to the interpreter.  This file holds the committed enforcement:
unit tests for the precomputed columns, the recorded prediction
stream and UCP's recorded alternate-path training, the
kernel-vs-interpreter differential over the pinned perf suite, the dc_*
slice and the config variants, and the engine-selection contract:
``REPRO_SIM_KERNEL`` alone picks the prediction source, and checked or
traced runs stay on the kernel.
"""

from dataclasses import replace

import pytest

from repro.core.configs import SimConfig
from repro.core.kernel import (
    KernelSimulator,
    build_columns,
    get_columns,
    get_stream,
    kernel_applicability,
    kernel_enabled,
    record_stream,
)
from repro.core.kernel.stream import get_alt_record, record_alt_path
from repro.core.pipeline import Simulator, simulate
from repro.core.ucp import ALT_BP_CONFIG, ALT_IND_CONFIG
from repro.isa import BranchClass
from repro.verify.kernel_diff import (
    _config_variants,
    kernel_differential,
    run_kernel_differential,
)
from repro.workloads import load_workload

from .conftest import build_branchy_trace


# ----------------------------------------------------------------------
# Columns
# ----------------------------------------------------------------------


class TestColumns:
    def test_next_branch_matches_naive_scan(self):
        trace = load_workload("int_02", 1_500).trace
        columns = build_columns(trace, SimConfig())
        classes = list(trace.branch_classes)
        n = len(trace)
        for i in range(n):
            expected = next((j for j in range(i, n) if classes[j]), n)
            assert columns.next_branch[i] == expected

    def test_next_branch_on_branchy_trace(self):
        trace = build_branchy_trace()
        columns = build_columns(trace, SimConfig())
        # Index 0 is a plain instruction, 1 is the first branch; the two
        # trailing plain instructions point at the sentinel.
        assert columns.next_branch[0] == 1
        assert columns.next_branch[1] == 1
        assert columns.next_branch[10] == len(trace)
        assert columns.next_branch[11] == len(trace)

    def test_latency_and_distance_match_backend_hash(self):
        trace = load_workload("fp_01", 1_000).trace
        config = SimConfig()
        columns = build_columns(trace, config)
        backend = config.backend
        for i in range(len(trace)):
            value = int(trace.pcs[i]) >> 2
            value ^= value >> 7
            value ^= value >> 13
            h = value & 0xFFFF
            if h % backend.load_hash_mod == 0:
                if (h >> 8) % backend.long_load_every == 0:
                    latency = backend.long_load_latency
                else:
                    latency = backend.load_latency
            else:
                latency = backend.simple_latency
            assert columns.latency[i] == latency
            assert columns.distance[i] == 1 + (h >> 4) % backend.dep_window

    def test_cache_reuses_per_trace_and_config(self):
        trace = load_workload("int_02", 1_000).trace
        config = SimConfig()
        assert get_columns(trace, config) is get_columns(trace, config)
        # A config differing only in non-column scalars shares nothing by
        # key identity but an equal-key config hits the same entry.
        same_key = replace(config, warmup_fraction=0.5)
        assert get_columns(trace, same_key) is get_columns(trace, config)


# ----------------------------------------------------------------------
# Prediction stream
# ----------------------------------------------------------------------


class TestStream:
    def test_stream_lengths_match_branch_mix(self):
        trace = load_workload("int_02", 2_000).trace
        stream = record_stream(trace, SimConfig())
        classes = list(trace.branch_classes)
        conds = sum(1 for c in classes if c == int(BranchClass.COND_DIRECT))
        indirects = sum(
            1
            for c in classes
            if c in (int(BranchClass.INDIRECT), int(BranchClass.CALL_INDIRECT))
        )
        assert len(stream.cond_predictions) == conds
        assert len(stream.indirect_mispredicts) == indirects

    def test_stream_cached_per_trace(self):
        trace = load_workload("fp_01", 1_000).trace
        config = SimConfig()
        assert get_stream(trace, config) is get_stream(trace, config)

    def test_stream_keeps_only_provenance(self):
        """Recorded predictions have trained: their table indices and
        tags are dropped, the provenance UCP and confidence read is kept."""
        trace = load_workload("int_02", 1_000).trace
        stream = record_stream(trace, SimConfig())
        assert stream.cond_predictions
        for prediction in stream.cond_predictions:
            assert not prediction.tage.indices and not prediction.tage.tags
            assert not prediction.sc.indices


# ----------------------------------------------------------------------
# UCP's recorded alternate-path training
# ----------------------------------------------------------------------


def _with_ucp(config, **overrides):
    return replace(config, ucp=replace(config.ucp, enabled=True, **overrides))


class TestAltPathRecord:
    def test_record_matches_interpreter_training(self):
        """The state recorded after conditional k is the interpreter
        UCPEngine's Alt-BP/Alt-Ind predicted-path state after its k-th."""
        trace = load_workload("dc_call_01", 2_000).trace
        sim = Simulator(trace, _with_ucp(SimConfig()), kernel=False)
        engine = sim.ucp
        states = []
        on_conditional = engine.on_conditional

        def spy(event, cycle):
            on_conditional(event, cycle)
            states.append(
                (engine.alt_bp.histories.snapshot(), engine.alt_ind.histories.snapshot())
            )

        engine.on_conditional = spy
        sim.run()
        record = record_alt_path(trace, ALT_BP_CONFIG, ALT_IND_CONFIG)
        assert states
        assert states == list(zip(record.cond_states, record.indirect_states))
        indirects = sum(
            1
            for c in trace.branch_classes.tolist()
            if c in (int(BranchClass.INDIRECT), int(BranchClass.CALL_INDIRECT))
        )
        assert indirects and len(record.indirect_predictions) == indirects

    @pytest.mark.parametrize("use_indirect", [True, False])
    def test_kernel_predicts_only_on_the_walk(self, use_indirect):
        """On the kernel Alt-BP predicts only with the walk's histories and
        no predicted-path Alt-BP/Alt-Ind history is ever pushed; the
        interpreter still trains live."""
        trace = load_workload("int_02", 2_000).trace
        config = _with_ucp(SimConfig(), use_indirect=use_indirect)
        pushes = {}
        for kernel in (True, False):
            sim = Simulator(trace, config, kernel=kernel)
            engine = sim.ucp
            calls = []
            predict = engine.alt_bp.predict

            def spy(pc, histories=None, predict=predict, calls=calls, engine=engine):
                calls.append(histories is engine.alt_histories)
                return predict(pc, histories=histories)

            engine.alt_bp.predict = spy
            count = [0]
            predicted_path = [engine.alt_bp.histories]
            if engine.alt_ind is not None:
                predicted_path.append(engine.alt_ind.histories)
            for histories in predicted_path:
                push = histories.push

                def counted(pc, taken, push=push, count=count):
                    count[0] += 1
                    push(pc, taken)

                histories.push = counted
            sim.run()
            pushes[kernel] = count[0]
            if kernel:
                assert calls and all(calls)
            else:
                assert not all(calls)
        assert pushes[True] == 0 and pushes[False] > 0

    def test_alt_record_cached_per_trace(self):
        trace = load_workload("fp_01", 1_000).trace
        first = get_alt_record(trace, ALT_BP_CONFIG, ALT_IND_CONFIG)
        assert get_alt_record(trace, ALT_BP_CONFIG, ALT_IND_CONFIG) is first


# ----------------------------------------------------------------------
# Differential: the committed bit-identity gate
# ----------------------------------------------------------------------

PINNED = ["fp_01", "int_02", "srv_05"]

DC_SLICE = ["dc_call_01", "dc_interp_01", "dc_mega_01"]


def _variants():
    from repro.experiments.common import baseline_config, ucp_config

    return {"base": baseline_config(), "ucp": ucp_config()}


class TestDifferential:
    @pytest.mark.parametrize("workload", PINNED)
    @pytest.mark.parametrize("label", ["base", "ucp"])
    def test_pinned_suite_bit_identical(self, workload, label):
        trace = load_workload(workload, 2_500).trace
        kernel_differential(trace, _variants()[label], f"{workload}/{label}")

    @pytest.mark.parametrize("workload", DC_SLICE)
    def test_dc_slice_bit_identical(self, workload):
        trace = load_workload(workload, 2_000).trace
        for label, config in _variants().items():
            kernel_differential(trace, config, f"{workload}/{label}")

    @pytest.mark.parametrize(
        "label,config_fn",
        [
            ("no_uop", lambda c: c.without_uop_cache()),
            ("ideal", lambda c: replace(c, ideal_uop_cache=True)),
            ("brcond", lambda c: replace(c, ideal_brcond_window=64)),
            ("l1i_uop", lambda c: replace(c, l1i_hits_are_uop_hits=True)),
            ("mrc", lambda c: replace(c, mrc_entries=64)),
            ("djolt", lambda c: replace(c, l1i_prefetcher="djolt")),
            ("ucp_tage_conf", lambda c: _with_ucp(c, confidence="tage")),
            ("ucp_perceptron", lambda c: _with_ucp(c, confidence="perceptron")),
            ("ucp_no_altind", lambda c: _with_ucp(c, use_indirect=False)),
            ("ucp_tilll1i", lambda c: _with_ucp(c, till_l1i_only=True)),
        ],
    )
    def test_config_variants_bit_identical(self, label, config_fn):
        trace = load_workload("int_02", 2_000).trace
        kernel_differential(trace, config_fn(SimConfig()), f"int_02/{label}")

    def test_tiny_hand_trace_bit_identical(self, branchy_trace):
        kernel_differential(branchy_trace, SimConfig(), "branchy")

    def test_report_sweep_smoke(self):
        report = run_kernel_differential(
            n_instructions=1_000, workloads=("int_02",)
        )
        assert len(report.cases) == len(_config_variants())
        payload = report.to_dict()
        assert payload["oracle"] == "kernel-differential"
        assert report.render().startswith("kernel-vs-interpreter")


# ----------------------------------------------------------------------
# Engine selection: one Simulator, two prediction sources
# ----------------------------------------------------------------------


class TestGating:
    def test_kernel_applicable_truth_table(self, monkeypatch):
        """Only REPRO_SIM_KERNEL selects; an armed checker/observer does not."""
        monkeypatch.setenv("REPRO_SIM_CHECK", "1")
        monkeypatch.setenv("REPRO_SIM_TRACE", "1")
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        assert kernel_applicability(None, None) == (True, None)
        assert kernel_applicability(True, True) == (True, None)
        monkeypatch.setenv("REPRO_SIM_KERNEL", "0")
        assert kernel_applicability(None, None) == (False, "REPRO_SIM_KERNEL=0")

    def test_checker_keeps_kernel_components(self):
        trace = load_workload("int_02", 1_000).trace
        sim = KernelSimulator(trace, SimConfig(), check=True, observe=True)
        assert sim.kernel_active and sim.engine == "kernel"
        assert sim.kernel_fallback_reason is None
        assert type(sim.bpu.source).__name__ == "ReplaySource"
        assert sim.checker is not None and sim.observer is not None
        result = sim.run()  # invariants armed on the kernel, must stay green
        reference = Simulator(
            trace, SimConfig(), check=True, observe=True, kernel=False
        ).run()
        assert result.to_dict() == reference.to_dict()

    def test_observer_on_kernel_is_bit_identical(self):
        trace = load_workload("int_02", 1_500).trace
        reference = simulate(trace, SimConfig(), observe=True, kernel=False)
        kernel = simulate(trace, SimConfig(), observe=True, kernel=True)
        assert reference.to_dict() == kernel.to_dict()

    def test_kernel_enabled_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        assert kernel_enabled() is True
        monkeypatch.setenv("REPRO_SIM_KERNEL", "0")
        assert kernel_enabled() is False
        assert kernel_enabled(True) is True
        monkeypatch.setenv("REPRO_SIM_KERNEL", "1")
        assert kernel_enabled() is True
        assert kernel_enabled(False) is False

    def test_simulate_routes_by_env(self, monkeypatch):
        trace = load_workload("fp_01", 1_500).trace
        monkeypatch.setenv("REPRO_SIM_KERNEL", "0")
        assert not Simulator(trace, SimConfig()).kernel_active
        interp = simulate(trace, SimConfig())
        monkeypatch.setenv("REPRO_SIM_KERNEL", "1")
        assert Simulator(trace, SimConfig()).kernel_active
        kernel = simulate(trace, SimConfig())
        assert interp.to_dict() == kernel.to_dict()

    def test_kernel_components_are_swapped(self):
        """Only the prediction source differs between the two engines."""
        trace = load_workload("fp_01", 1_000).trace
        kernel = KernelSimulator(trace, SimConfig())
        interp = Simulator(trace, SimConfig(), kernel=False)
        assert type(kernel.bpu.source).__name__ == "ReplaySource"
        assert type(interp.bpu.source).__name__ == "LiveSource"
        assert type(kernel.bpu) is type(interp.bpu)
        assert type(kernel.backend) is type(interp.backend)

    def test_plain_simulator_untouched(self):
        """The interpreter walks every instruction: its spans never jump."""
        trace = load_workload("fp_01", 1_000).trace
        sim = Simulator(trace, SimConfig(), kernel=False)
        assert not sim.kernel_active and sim.engine == "interpreter"
        assert list(sim.bpu.source.spans) == list(range(len(trace)))
