"""Abstract occupancy-limited backend.

The paper's phenomena live in the frontend; the backend's job here is to
(a) consume µ-ops at a realistic, dependency-limited rate, (b) resolve
branches after a realistic depth, and (c) fill/drain the ROB so that
frontend supply gaps show up as commit stalls.  Three mechanisms provide
that:

* per-instruction execution latency by class (simple / load-like / branch),
  with load-likeness decided by a PC hash (the ``latency`` column of
  :mod:`repro.core.kernel.columns`);
* a synthetic dependency: each instruction depends on an instruction a
  hashed distance (1..dep_window, the ``distance`` column) earlier in
  program order and cannot complete before it — this bounds sustainable
  ILP the way real dependency chains do, so a wider µ-op supply only
  helps when the pipeline is refilling (exactly the paper's observation
  in Section III-C);
* in-order commit with a bounded ROB.

Branches resolve at their completion time, which the simulator uses to
schedule misprediction redirects.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.common.stats import StatBlock
from repro.core.configs import BackendConfig
from repro.isa.trace import Trace

if TYPE_CHECKING:
    from repro.core.kernel.columns import KernelColumns


class Backend:
    """Dispatch → (dependency-limited) execute → in-order commit."""

    def __init__(
        self,
        config: BackendConfig,
        trace: Trace,
        stats: StatBlock,
        columns: KernelColumns,
    ) -> None:
        self.config = config
        self.trace = trace
        self.stats = stats
        # Hot-path flattening: dispatch() runs once per µ-op, so the trace
        # and latency columns are read as plain lists and the config
        # scalars are bound to the instance instead of being chased
        # through two attribute hops per dispatch.
        self._classes = trace.list_columns()[1]
        self._latency = columns.latency
        self._distance = columns.distance
        self._branch_latency = config.branch_latency
        self._issue_width = config.issue_width
        self._commit_width = config.commit_width
        #: Completion cycle per dispatched trace index.  Kept for the whole
        #: run: traces are tens of kilo-instructions, so this stays small,
        #: and it doubles as the dependency-lookup table.
        self._completion: dict[int, int] = {}
        #: ROB: (trace_index, completion_cycle), dispatch order.
        self._rob: deque[tuple[int, int]] = deque()
        self.committed = 0
        #: Completions scheduled per cycle (virtual execution ports).
        self._exec_busy: dict[int, int] = {}
        #: Optional callback invoked with each retired trace index, in
        #: commit order — the differential harness's commit-stream tap.
        self.commit_hook = None
        #: repro.observe event bus; the observer reads ROB state through
        #: the public accessors below and emits rob_full/rob_drain
        #: transition events on the backend timeline lane.
        self.observer = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def rob_has_room(self) -> bool:
        return len(self._rob) < self.config.rob_entries

    @property
    def rob_full(self) -> bool:
        """The frontend-visible backpressure condition (stall taxonomy)."""
        return len(self._rob) >= self.config.rob_entries

    def dispatch(self, index: int, cycle: int) -> int:
        """Dispatch one µ-op; returns its completion cycle."""
        if self._classes[index]:  # any class other than NOT_BRANCH (0)
            # Branches resolve a fixed depth after dispatch, independent of
            # the synthetic dependency chain: real OOO cores prioritise
            # branch resolution (the compare feeding a branch is almost
            # always ready), so the misprediction penalty must not grow
            # with the distance to the previous misprediction.
            # Branches also bypass the issue-width booking: they execute on
            # a dedicated branch port, so resolution is not queued behind
            # the ALU backlog.
            completion = cycle + 1 + self._branch_latency
            self._completion[index] = completion
            self._rob.append((index, completion))
            return completion

        dep_done = self._completion.get(index - self._distance[index], 0)
        earliest = cycle + 1
        if dep_done > earliest:
            earliest = dep_done
        completion = self._schedule(earliest + self._latency[index])
        self._completion[index] = completion
        self._rob.append((index, completion))
        return completion

    def _schedule(self, earliest: int) -> int:
        """Book an execution-completion slot at or after ``earliest``."""
        busy = self._exec_busy
        width = self._issue_width
        cycle = earliest
        while busy.get(cycle, 0) >= width:
            cycle += 1
        busy[cycle] = busy.get(cycle, 0) + 1
        return cycle

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(self, cycle: int) -> int:
        """Retire up to ``commit_width`` completed µ-ops in order."""
        retired = 0
        hook = self.commit_hook
        rob = self._rob
        while retired < self._commit_width and rob and rob[0][1] <= cycle:
            entry = rob.popleft()
            if hook is not None:
                hook(entry[0])
            retired += 1
        self.committed += retired
        return retired

    @property
    def rob_occupancy(self) -> int:
        return len(self._rob)

    @property
    def dispatched(self) -> int:
        """Total µ-ops dispatched so far (each trace index exactly once)."""
        return len(self._completion)

    def check_invariants(self) -> None:
        """Sim-sanitizer hook: ROB bounds and committed-µ-op conservation.

        There is no wrong-path execution and the ROB is never flushed, so
        every dispatched µ-op is eventually committed and the ROB always
        holds exactly the dispatched-but-uncommitted window, in trace
        order.  Losing, duplicating or reordering a µ-op anywhere in the
        dispatch→commit path breaks one of these equalities.
        """
        rob = self._rob
        assert len(rob) <= self.config.rob_entries, (
            f"ROB holds {len(rob)} > {self.config.rob_entries} entries"
        )
        dispatched = len(self._completion)
        assert self.committed + len(rob) == dispatched, (
            f"µ-op conservation broken: committed {self.committed} + "
            f"ROB {len(rob)} != dispatched {dispatched}"
        )
        if rob:
            assert rob[0][0] == self.committed, (
                f"ROB head index {rob[0][0]} != commit cursor "
                f"{self.committed} — commit stream skipped or duplicated"
            )
            assert rob[-1][0] - rob[0][0] == len(rob) - 1, (
                f"ROB index range [{rob[0][0]}, {rob[-1][0]}] does not "
                f"match its {len(rob)} entries — dispatch out of order"
            )

    def completion_of(self, index: int) -> int | None:
        """Completion cycle of a dispatched (not yet retired) instruction."""
        return self._completion.get(index)
