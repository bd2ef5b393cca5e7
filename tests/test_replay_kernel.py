"""Vectorized decision-op replay kernel == the scalar oracle, always.

The tentpole contract of the replay kernel
(:mod:`repro.trace.replay_kernel`): for *every* decision-op tape and
*every* (Rambus timing, cycle time) pair, :class:`ReplayKernel` returns
exactly the ``(dram_ps, stall_ps, overlap_ps)`` triple the scalar
``_replay_timeline`` interpreter computes -- on the tapes real
recordings produce and on adversarial ones (dense waits, back-to-back
backgrounds, zero-length tapes, non-monotone cycle stamps that defeat
the window segmentation), and for pipelined channels whose pricing
depends on queueing state.  The array price functions in
:mod:`repro.mem.dram` must match their scalar counterparts element for
element, batched group pricing must match per-cell pricing, malformed
tapes must fail identically, and the scalar interpreter's pending-fill
map must stay bounded (it once grew by one entry per fill).
"""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.params import RambusParams
from repro.mem.dram import (
    rambus_pipelined_ps,
    rambus_pipelined_ps_array,
    rambus_transfer_ps,
    rambus_transfer_ps_array,
)
from repro.systems.factory import rampage_machine, virtual_l1_machine
from repro.systems.simulator import simulate
from repro.trace import filter as missplane
from repro.trace.filter import PlaneReplayError, _replay_timeline
from repro.trace.replay_kernel import (
    DOP_BG_FILL,
    DOP_BG_WB,
    DOP_SYNC,
    DOP_WAIT,
    ReplayKernel,
)
from repro.trace.synthetic import build_workload

#: Three genuinely different channels: the default part, a slow part,
#: and a pipelined channel (whose cost rule depends on queueing state,
#: the hardest case for a vectorized pricer), plus a second pipelined
#: variant with a different efficiency so the rounding path is covered.
DRAM_TIMINGS = (
    RambusParams(),
    RambusParams(access_ps=90_000, ps_per_beat=2_500),
    RambusParams(pipelined=True),
    RambusParams(
        pipelined=True, pipeline_efficiency=0.80, ps_per_beat=1_333
    ),
)

#: Cycle times spanning the sweep's issue-rate range and degenerate
#: extremes (1 ps/cycle makes every wait decision tight).
CYCLE_PS = (1, 250, 1_000, 5_000)


def columns(rows):
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    return arr[:, 0].tolist(), arr[:, 1].tolist(), arr[:, 2].tolist()


def assert_kernel_matches_scalar(rows):
    cols = columns(rows)
    kernel = ReplayKernel(np.asarray(rows, dtype=np.int64).reshape(-1, 3))
    for dram in DRAM_TIMINGS:
        for cycle_ps in CYCLE_PS:
            assert kernel.price_many([(dram, cycle_ps)])[0] == _replay_timeline(
                dram, cycle_ps, cols
            ), f"diverged at {dram} cycle_ps={cycle_ps}: {rows}"


# ----------------------------------------------------------------------
# Array price functions
# ----------------------------------------------------------------------


def test_transfer_price_array_matches_scalar_elementwise():
    sizes = np.concatenate(
        [np.arange(0, 70), np.array([127, 128, 129, 511, 512, 4096, 65536])]
    ).astype(np.int64)
    for dram in DRAM_TIMINGS:
        plain = rambus_transfer_ps_array(dram, sizes)
        pipe = rambus_pipelined_ps_array(dram, sizes)
        for nbytes, got_plain, got_pipe in zip(
            sizes.tolist(), plain.tolist(), pipe.tolist()
        ):
            assert got_plain == rambus_transfer_ps(dram, nbytes)
            assert got_pipe == rambus_pipelined_ps(dram, nbytes)


def test_price_arrays_reject_negative_sizes_like_the_scalars():
    with pytest.raises(ConfigurationError):
        rambus_transfer_ps_array(RambusParams(), np.array([64, -1]))
    with pytest.raises(ConfigurationError):
        rambus_pipelined_ps_array(RambusParams(), np.array([-8]))


def test_price_arrays_handle_empty_input():
    assert len(rambus_transfer_ps_array(RambusParams(), [])) == 0
    assert len(rambus_pipelined_ps_array(RambusParams(), [])) == 0


# ----------------------------------------------------------------------
# Kernel == scalar on crafted tapes
# ----------------------------------------------------------------------


def test_empty_tape_prices_to_zero():
    kernel = ReplayKernel(np.zeros((0, 3), dtype=np.int64))
    assert kernel.price_many([(RambusParams(), 1_000)]) == [(0, 0, 0)]
    assert _replay_timeline(RambusParams(), 1_000, ([], [], [])) == (0, 0, 0)


def test_sync_only_tape_matches():
    rows = [(DOP_SYNC, 32 * (i % 4), 10 * i) for i in range(50)]
    assert_kernel_matches_scalar(rows)


def test_back_to_back_backgrounds_then_sync():
    # Several queued backgrounds pile onto the channel before the next
    # synchronous transfer drains it: the contended-scan path, where
    # pipelined pricing of queued transfers matters.
    rows = [
        (DOP_BG_FILL, 512, 0),
        (DOP_BG_WB, 1024, 1),
        (DOP_BG_FILL, 512, 2),
        (DOP_SYNC, 64, 3),
        (DOP_WAIT, 0, 4),
        (DOP_WAIT, 1, 5),
        (DOP_BG_FILL, 256, 6),
        (DOP_WAIT, 2, 7),
        (DOP_SYNC, 32, 2_000),
    ]
    assert_kernel_matches_scalar(rows)


def test_dense_waits_on_one_fill():
    # The same fill waited on repeatedly: only the first wait can
    # stall; the scalar's pop-on-consume and the kernel's window scan
    # must agree on all of them.
    rows = [
        (DOP_BG_FILL, 4096, 0),
        (DOP_WAIT, 0, 1),
        (DOP_WAIT, 0, 2),
        (DOP_WAIT, 0, 3),
        (DOP_SYNC, 64, 4),
        (DOP_WAIT, 0, 5),  # dead: the sync drained the channel
    ]
    assert_kernel_matches_scalar(rows)


def test_trailing_window_without_terminal_sync():
    rows = [
        (DOP_SYNC, 32, 0),
        (DOP_BG_FILL, 512, 10),
        (DOP_WAIT, 0, 12),
        (DOP_BG_WB, 256, 14),
    ]
    assert_kernel_matches_scalar(rows)


def test_zero_byte_transfers_cost_nothing_everywhere():
    rows = [
        (DOP_SYNC, 0, 0),
        (DOP_BG_FILL, 0, 1),
        (DOP_WAIT, 0, 2),
        (DOP_SYNC, 0, 3),
    ]
    assert_kernel_matches_scalar(rows)


def test_non_monotone_cycles_fall_back_to_the_scalar_scan():
    # Never produced by a recording, but the kernel must not *assume*
    # monotonicity: decreasing stamps defeat window independence, and
    # the kernel's whole-tape fallback must still match the oracle.
    rows = [
        (DOP_BG_FILL, 512, 100),
        (DOP_SYNC, 64, 50),
        (DOP_WAIT, 0, 10),
        (DOP_SYNC, 32, 200),
    ]
    kernel = ReplayKernel(np.asarray(rows, dtype=np.int64))
    assert kernel.contended_ops == len(rows)
    assert_kernel_matches_scalar(rows)


# ----------------------------------------------------------------------
# Randomized adversarial tapes
# ----------------------------------------------------------------------


def random_tape(rng, n, wait_bias):
    """A structurally valid but adversarial decision-op tape."""
    rows, cycles, fills = [], 0, 0
    for _ in range(n):
        cycles += int(rng.integers(0, 40))
        roll = rng.random()
        if roll < 0.30:
            rows.append((DOP_SYNC, int(rng.integers(0, 5)) * 32, cycles))
        elif roll < 0.55:
            rows.append(
                (DOP_BG_FILL, int(rng.integers(0, 4)) * 256, cycles)
            )
            fills += 1
        elif roll < 0.70:
            rows.append((DOP_BG_WB, int(rng.integers(0, 3)) * 512, cycles))
        elif fills and roll < wait_bias:
            rows.append((DOP_WAIT, int(rng.integers(0, fills)), cycles))
        else:
            rows.append((DOP_SYNC, 0, cycles))
    return rows


def test_randomized_tapes_match_scalar_across_timings():
    rng = np.random.default_rng(1234)
    for trial in range(120):
        wait_bias = 0.99 if trial % 3 == 0 else 0.85  # dense-wait runs
        rows = random_tape(rng, int(rng.integers(0, 80)), wait_bias)
        assert_kernel_matches_scalar(rows)


def test_group_batched_pricing_equals_per_cell():
    rng = np.random.default_rng(99)
    rows = random_tape(rng, 300, 0.9)
    kernel = ReplayKernel(np.asarray(rows, dtype=np.int64))
    timings = [(dram, cyc) for dram in DRAM_TIMINGS for cyc in CYCLE_PS]
    assert kernel.price_many(timings) == [
        kernel.price_many([timing])[0] for timing in timings
    ]


# ----------------------------------------------------------------------
# Recorded tapes
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "params",
    [
        rampage_machine(10**9, 1024),
        rampage_machine(10**9, 1024, switch_on_miss=True),
        virtual_l1_machine(10**9, 1024, switch_on_miss=True),
    ],
    ids=["rampage", "rampage_som", "vl1_som"],
)
def test_recorded_tapes_match_scalar(params):
    """A recording's own tape: ``SYNC`` rows only for plain RAMpage;
    ``SYNC``, ``BG_FILL`` and ``WAIT`` rows for the preempting
    machines (no ``BG_WB`` at this scale; the random tapes cover it)."""
    scale, slice_refs = 0.00002, 10_000
    recorder = missplane.PlaneRecorder(
        missplane.plane_key(params, scale, 0, slice_refs)
    )
    simulate(
        params,
        build_workload(scale, seed=0),
        slice_refs=slice_refs,
        record_plane=recorder,
    )
    dops = recorder.finalize().dops
    ops = set(dops[:, 0].tolist())
    if params.switch_on_miss:
        assert {DOP_BG_FILL, DOP_WAIT} <= ops
    else:
        assert ops == {DOP_SYNC}
    assert_kernel_matches_scalar(dops)


# ----------------------------------------------------------------------
# Malformed tapes
# ----------------------------------------------------------------------


def test_wait_before_fill_raises_in_both_engines():
    rows = [(DOP_WAIT, 0, 0), (DOP_BG_FILL, 512, 1)]
    with pytest.raises(IndexError):
        _replay_timeline(RambusParams(), 1_000, columns(rows))
    with pytest.raises(IndexError):
        ReplayKernel(np.asarray(rows, dtype=np.int64))


def test_negative_wait_ordinal_raises_in_both_engines():
    rows = [(DOP_BG_FILL, 512, 0), (DOP_WAIT, -1, 1)]
    with pytest.raises(IndexError):
        _replay_timeline(RambusParams(), 1_000, columns(rows))
    with pytest.raises(IndexError):
        ReplayKernel(np.asarray(rows, dtype=np.int64))


def test_miss_plane_kernel_wraps_malformed_tape_as_replay_error():
    plane = missplane.MissPlane(
        key="synthetic",
        cycle_ps=1_000,
        stats={},
        structure="",
        dops=np.asarray([(DOP_WAIT, 3, 0)], dtype=np.int64),
    )
    with pytest.raises(PlaneReplayError):
        plane.kernel()


def test_miss_plane_kernel_is_memoized():
    plane = missplane.MissPlane(
        key="synthetic",
        cycle_ps=1_000,
        stats={},
        structure="",
        dops=np.asarray([(DOP_SYNC, 64, 0)], dtype=np.int64),
    )
    assert plane.kernel() is plane.kernel()


# ----------------------------------------------------------------------
# Bounded pending-fill map (regression)
# ----------------------------------------------------------------------


def test_scalar_pending_map_stays_bounded_on_fill_heavy_tape():
    # 1000 fill/wait/sync triples: the old list-based implementation
    # kept all 1000 completion times alive for the whole replay; the
    # bounded map holds only the fills outstanding since the last
    # synchronous transfer (here: one).
    rows = []
    for i in range(1_000):
        base = 10 * i
        rows.append((DOP_BG_FILL, 512, base))
        rows.append((DOP_WAIT, i, base + 3))
        rows.append((DOP_SYNC, 32, base + 6))
    result = _replay_timeline(RambusParams(), 1_000, columns(rows))
    assert missplane._timeline_pending_peak == 1
    assert result == ReplayKernel(
        np.asarray(rows, dtype=np.int64)
    ).price_many([(RambusParams(), 1_000)])[0]


def test_scalar_pending_map_drains_on_sync_without_waits():
    # Fills that are never waited on are retired by the next sync, not
    # retained forever.
    rows = []
    for i in range(100):
        base = 10 * i
        rows.append((DOP_BG_FILL, 512, base))
        rows.append((DOP_BG_FILL, 512, base + 1))
        rows.append((DOP_SYNC, 32, base + 5))
    _replay_timeline(RambusParams(), 1_000, columns(rows))
    assert missplane._timeline_pending_peak == 2
    assert_kernel_matches_scalar(rows)
