"""Hypothesis property suite for kernel batching boundaries.

The three fast-path mechanisms — the batched replay kernel
(``REPRO_SIM_KERNEL``), event-driven idle-skip (``REPRO_SIM_SKIP``) and
interval sampling (``REPRO_SIM_INTERVAL``) — each promise bit-identical
results, and they compose.  These properties drive randomly generated
traces (random branch mixes, loop/H2P fractions, so span and event
boundaries land in arbitrary places) through the full 2×2 matrix and
demand identical ``StatBlock`` exports, interval samples and
stall-taxonomy partitions.

The replay of UCP's predicted-path training rests on one more premise,
checked here too: a predict against detached (walk) histories changes
no predictor state, so the tables at each conditional branch do not
depend on when walks ran.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.ittage import ITTAGE, ITTAGEConfig
from repro.branch.tage_sc_l import TageScL, TageScLConfig
from repro.core.configs import SimConfig
from repro.core.kernel import KernelSimulator
from repro.core.pipeline import Simulator, simulate
from repro.workloads import WorkloadConfig, generate_trace


def _random_trace(seed: int, loop_fraction: float, h2p: float, n: int = 1_500):
    config = WorkloadConfig(
        name=f"prop_{seed}",
        seed=seed,
        n_functions=8,
        n_instructions=n,
        loop_fraction=loop_fraction,
        h2p_fraction=h2p,
    )
    trace = generate_trace(config)
    trace.validate()
    return trace


class TestKernelSkipIntervalMatrix:
    @settings(deadline=None, max_examples=6)
    @given(
        seed=st.integers(0, 10_000),
        loop_fraction=st.floats(0.0, 0.5),
        h2p=st.floats(0.0, 0.3),
        interval=st.sampled_from([0, 200, 997]),
    )
    def test_full_matrix_bit_identical(self, seed, loop_fraction, h2p, interval):
        trace = _random_trace(seed, loop_fraction, h2p)
        config = SimConfig()
        reference = simulate(
            trace, config, kernel=False, idle_skip=False, interval=interval
        ).to_dict()
        for kernel in (False, True):
            for idle_skip in (False, True):
                result = simulate(
                    trace,
                    config,
                    kernel=kernel,
                    idle_skip=idle_skip,
                    interval=interval,
                ).to_dict()
                assert result == reference, (
                    f"divergence at kernel={kernel} skip={idle_skip} "
                    f"interval={interval}"
                )

    @settings(deadline=None, max_examples=4)
    @given(seed=st.integers(0, 10_000))
    def test_skip_telemetry_identical_under_kernel(self, seed):
        """Idle-skip must jump the *same* cycles on both paths: the wake
        analysis reads component state the kernel claims not to perturb."""
        trace = _random_trace(seed, 0.3, 0.1)
        config = SimConfig()
        interp = Simulator(
            trace, config, check=False, observe=False, idle_skip=True, kernel=False
        )
        interp.run()
        kernel = KernelSimulator(
            trace, config, check=False, observe=False, idle_skip=True
        )
        kernel.run()
        assert kernel.kernel_active
        assert (interp.skipped_cycles, interp.skip_events) == (
            kernel.skipped_cycles,
            kernel.skip_events,
        )

    @settings(deadline=None, max_examples=4)
    @given(seed=st.integers(0, 10_000), h2p=st.floats(0.0, 0.3))
    def test_taxonomy_partition_identical(self, seed, h2p):
        """With the observer on, the run stays on the kernel — the
        stall-taxonomy partition and the (cycle, kind, pc) event stream
        must be identical to the interpreter's, and the partition must
        still cover every cycle."""
        trace = _random_trace(seed, 0.2, h2p)
        config = SimConfig()
        taxonomies = []
        streams = []
        for kernel in (False, True):
            sim = Simulator(trace, config, observe=True, kernel=kernel)
            assert sim.kernel_active is kernel
            result = sim.run()
            taxonomy = sim.observer.taxonomy
            taxonomy.check_partition(result.cycles, name=f"kernel={kernel}")
            taxonomies.append(taxonomy.as_dict())
            streams.append(
                [(event.cycle, event.kind, event.pc) for event in sim.observer.events]
            )
        assert taxonomies[0] == taxonomies[1]
        assert streams[0] == streams[1]
        assert streams[0]

    @settings(deadline=None, max_examples=4)
    @given(
        seed=st.integers(0, 10_000),
        interval=st.sampled_from([150, 512]),
    )
    def test_interval_series_identical(self, seed, interval):
        trace = _random_trace(seed, 0.25, 0.15)
        config = SimConfig()
        interp = simulate(trace, config, kernel=False, interval=interval)
        kernel = simulate(trace, config, kernel=True, interval=interval)
        assert interp.intervals == kernel.intervals
        assert len(kernel.intervals) > 0


_BRANCHES = st.lists(
    st.tuples(st.integers(0, 1 << 12), st.booleans(), st.integers(0, 7)),
    min_size=1,
    max_size=60,
)


class TestDetachedPredictIsPure:
    @settings(deadline=None, max_examples=25)
    @given(training=_BRANCHES, walk=_BRANCHES)
    def test_tage_sc_l_predict_leaves_tables_unchanged(self, training, walk):
        predictor = TageScL(TageScLConfig.small())
        for pc_word, taken, _ in training:
            predictor.update(predictor.predict(4 * pc_word), taken)
        histories = predictor.make_histories()
        before = pickle.dumps(predictor)
        for pc_word, taken, _ in walk:
            predictor.predict(4 * pc_word, histories=histories)
            histories.push(4 * pc_word, taken)
        assert pickle.dumps(predictor) == before

    @settings(deadline=None, max_examples=25)
    @given(training=_BRANCHES, walk=_BRANCHES)
    def test_ittage_predict_leaves_tables_unchanged(self, training, walk):
        predictor = ITTAGE(ITTAGEConfig.small())
        for pc_word, taken, target in training:
            predictor.update(predictor.predict(4 * pc_word), 0x4000 + 4 * target)
            predictor.push_history(4 * pc_word, taken)
        histories = predictor.make_histories()
        before = pickle.dumps(predictor)
        for pc_word, taken, _ in walk:
            predictor.predict(4 * pc_word, histories=histories)
            histories.push(4 * pc_word, taken)
        assert pickle.dumps(predictor) == before
