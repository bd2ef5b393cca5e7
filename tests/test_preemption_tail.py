"""Switch-on-miss preemption tails through the Simulator driver.

These tests drive the real :class:`Simulator`/:class:`InterleavedWorkload`
pair with a scripted stand-in machine whose preemption points are chosen
by the test, so the driver's tail handling is checked exactly:

* the unconsumed suffix of a preempted chunk is pushed back and replayed
  in order (no reference lost or duplicated),
* consumed counts are exact at the preemption point,
* ``skip_switch_trace`` suppresses the scheduled switch trace at the
  slice boundary a preemption itself created.
"""

from types import SimpleNamespace

from repro.systems.simulator import Simulator
from repro.trace.benchmarks import table2_catalog
from repro.trace.interleave import InterleavedWorkload
from repro.trace.synthetic import SyntheticProgram


def programs(n=2, refs=2000):
    specs = list(table2_catalog().values())
    return [
        SyntheticProgram(specs[i], total_refs=refs, pid=i, seed=i, chunk_refs=256)
        for i in range(n)
    ]


def reference_log(n=2, refs=2000):
    """Every program's references in order, keyed by pid."""
    log = {}
    for program in programs(n, refs):
        refs_list = []
        for chunk in program.chunks():
            refs_list.extend(zip(chunk.kinds.tolist(), chunk.addrs.tolist()))
        log[program.pid] = refs_list
    return log


class ScriptedSystem:
    """Counts references and preempts at scripted global indices.

    ``preempt_at`` holds 0-based global reference counts: when the total
    consumed so far reaches such a count mid-chunk, the chunk stops
    *before* consuming that reference, exactly like a switch-on-miss
    fault raised by the reference's translation.
    """

    def __init__(self, preempt_at=(), scheduled_switches=True):
        self.params = SimpleNamespace(scheduled_switches=scheduled_switches)
        self._preempt_at = sorted(preempt_at)
        self.total = 0
        self.consumed = []  # (pid, kind, addr) in consumption order
        self.switch_pids = []
        self.slice_starts = 0
        self.finalized = False

    def run_chunk(self, chunk):
        self.slice_starts += chunk.new_slice
        kinds = chunk.kinds.tolist()
        addrs = chunk.addrs.tolist()
        for idx in range(len(kinds)):
            if self._preempt_at and self.total == self._preempt_at[0]:
                self._preempt_at.pop(0)
                return idx
            self.total += 1
            self.consumed.append((chunk.pid, kinds[idx], addrs[idx]))
        return len(kinds)

    def context_switch(self, pid):
        self.switch_pids.append(pid)

    def finalize(self):
        self.finalized = True
        return None


def drive(preempt_at=(), scheduled_switches=True, slice_refs=500):
    system = ScriptedSystem(preempt_at, scheduled_switches)
    sim = Simulator(system, InterleavedWorkload(programs(), slice_refs=slice_refs))
    sim.run()
    return system, sim


def test_no_preemption_consumes_in_program_order():
    system, sim = drive()
    assert sim.preemptions == 0
    expected = reference_log()
    for pid, refs in expected.items():
        consumed = [(k, a) for p, k, a in system.consumed if p == pid]
        assert consumed == refs


def test_preempted_tails_replay_without_loss_or_duplication():
    # Preemption points chosen to land mid-chunk (chunks are 256 refs).
    system, sim = drive(preempt_at=(100, 300, 777))
    assert sim.preemptions == 3
    expected = reference_log()
    assert system.total == sum(len(refs) for refs in expected.values())
    for pid, refs in expected.items():
        consumed = [(k, a) for p, k, a in system.consumed if p == pid]
        assert consumed == refs
    assert system.finalized


def test_consumed_count_exact_at_preemption():
    # First preemption after exactly 100 refs: the 101st reference the
    # machine sees must be the same one it refused, replayed later.
    system, _ = drive(preempt_at=(100,))
    expected = reference_log()
    pid0_consumed = [(k, a) for p, k, a in system.consumed if p == 0]
    # 500-ref slices start with pid 0, so the first 100 consumed refs
    # are pid 0's first 100 and the refused ref is pid 0's ref #100.
    assert system.consumed[:100] == [
        (0, k, a) for k, a in expected[0][:100]
    ]
    assert pid0_consumed[100] == expected[0][100]


def test_zero_consumed_preemption_replays_whole_chunk():
    # total == 0 preempts before the very first reference.
    system, sim = drive(preempt_at=(0,))
    assert sim.preemptions == 1
    expected = reference_log()
    for pid, refs in expected.items():
        consumed = [(k, a) for p, k, a in system.consumed if p == pid]
        assert consumed == refs


def test_skip_switch_trace_after_preemption():
    # Every slice boundary after the first gets a switch trace EXCEPT
    # the boundary a preemption itself created (the fault path already
    # charged one): switches == boundaries - preemptions.
    system = ScriptedSystem(preempt_at=(100,), scheduled_switches=True)
    workload = InterleavedWorkload(programs(n=1), slice_refs=500)
    sim = Simulator(system, workload)
    sim.run()
    assert sim.preemptions == 1
    assert system.total == 2000
    boundaries = system.slice_starts - 1  # first slice is not a switch
    assert boundaries == 4  # the preemption added one to the 3 scheduled
    assert len(system.switch_pids) == boundaries - sim.preemptions


def test_scheduled_switches_still_charged_between_ordinary_slices():
    system, sim = drive(preempt_at=(), scheduled_switches=True)
    # 2 programs x 2000 refs in 500-ref slices: 8 slices, 7 boundaries.
    assert len(system.switch_pids) == 7
    assert system.slice_starts == 8


def test_preemption_does_not_suppress_later_scheduled_switches():
    system, sim = drive(preempt_at=(100, 777))
    assert sim.preemptions == 2
    boundaries = system.slice_starts - 1
    # Only the two preempted boundaries go untraced.
    assert len(system.switch_pids) == boundaries - sim.preemptions
    assert len(system.switch_pids) >= 7  # ordinary boundaries all charged
