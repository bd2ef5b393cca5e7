"""Multiprogramming interleaver.

The paper interleaves its 18 traces "switching to a different trace
every 500,000 references, to simulate a multiprogramming workload"
(section 4.2).  :class:`InterleavedWorkload` reproduces that: programs
are visited round-robin, each contributing one time slice of references
before the next is scheduled; exhausted programs drop out until all are
drained.

Two consumers exist:

* the plain simulation loop iterates :meth:`InterleavedWorkload.chunks`
  and sees slice boundaries via ``TraceChunk.new_slice``;
* the context-switch-on-miss machinery instead *pulls* chunks via
  :meth:`next_chunk` and calls :meth:`preempt` when a page fault forces
  an early rotation, pushing unconsumed references back onto the
  faulting program.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.errors import ConfigurationError
from repro.trace.record import TraceChunk
from repro.trace.synthetic import SyntheticProgram


class ProgramStream:
    """Buffered cursor over one program's chunk stream.

    Supports ``take(n)`` (at most ``n`` references) and ``push_back``
    for references a preempted process did not consume.
    """

    def __init__(self, program: SyntheticProgram) -> None:
        self.pid = program.pid
        self._iter = program.chunks()
        self._pending: list[TraceChunk] = []
        self._exhausted = False
        self.consumed = 0

    @property
    def exhausted(self) -> bool:
        """True once the stream has no further references."""
        if self._pending:
            return False
        if self._exhausted:
            return True
        self._refill()
        return self._exhausted and not self._pending

    def _refill(self) -> None:
        if self._exhausted:
            return
        try:
            self._pending.append(next(self._iter))
        except StopIteration:
            self._exhausted = True

    def take(self, max_refs: int) -> TraceChunk | None:
        """Return a chunk of at most ``max_refs`` references, or None."""
        if max_refs <= 0:
            raise ConfigurationError(f"max_refs must be positive, got {max_refs}")
        if not self._pending:
            self._refill()
        if not self._pending:
            return None
        chunk = self._pending.pop(0)
        if len(chunk) > max_refs:
            # Cache-preserving split: the tail keeps any list views and
            # pre-translated runs the chunk already materialised.
            self._pending.insert(0, chunk.tail(max_refs))
            chunk = chunk.head(max_refs)
        self.consumed += len(chunk)
        return chunk

    def push_back(self, chunk: TraceChunk) -> None:
        """Return unconsumed references to the front of the stream."""
        if chunk.pid != self.pid:
            raise ConfigurationError(
                f"chunk pid {chunk.pid} does not match stream pid {self.pid}"
            )
        if len(chunk) == 0:
            return
        self.consumed -= len(chunk)
        self._pending.insert(0, chunk)


class InterleavedWorkload:
    """Round-robin scheduler over program streams.

    Parameters
    ----------
    programs:
        The per-process streams (typically from
        :func:`repro.trace.synthetic.build_workload`).
    slice_refs:
        Time-slice length in references (the paper's 500 000, usually
        scaled together with the workload).
    chunk_refs:
        Maximum references handed out per chunk; slices are cut into
        chunks of this size so the simulator can preempt mid-slice.
    """

    def __init__(
        self,
        programs: Sequence[SyntheticProgram],
        slice_refs: int = 500_000,
        chunk_refs: int = 65_536,
    ) -> None:
        if not programs:
            raise ConfigurationError("workload needs at least one program")
        if slice_refs <= 0 or chunk_refs <= 0:
            raise ConfigurationError("slice_refs and chunk_refs must be positive")
        pids = [p.pid for p in programs]
        if len(set(pids)) != len(pids):
            raise ConfigurationError(f"duplicate pids in workload: {pids}")
        self.streams = [ProgramStream(p) for p in programs]
        self.slice_refs = slice_refs
        self.chunk_refs = chunk_refs
        self._current = 0
        self._slice_left = slice_refs
        self._slice_open = False  # becomes True after first chunk of a slice

    @property
    def current_stream(self) -> ProgramStream:
        return self.streams[self._current]

    def _advance_to_runnable(self) -> bool:
        """Move ``_current`` to the next non-exhausted stream.

        Skipping an exhausted program is a scheduling switch, so the
        slice state resets for the program that actually runs.  Returns
        False when every stream is drained.
        """
        moved = False
        for _ in range(len(self.streams)):
            if not self.streams[self._current].exhausted:
                if moved:
                    self._slice_left = self.slice_refs
                    self._slice_open = False
                return True
            self._current = (self._current + 1) % len(self.streams)
            moved = True
        return False

    def rotate(self) -> None:
        """End the current slice and schedule the next runnable program."""
        self._current = (self._current + 1) % len(self.streams)
        self._slice_left = self.slice_refs
        self._slice_open = False

    def preempt(self, unconsumed: TraceChunk) -> None:
        """Context-switch away mid-slice (switch-on-miss path).

        ``unconsumed`` references return to the preempted program; it
        will resume them at its next turn.
        """
        self.current_stream.push_back(unconsumed)
        self.rotate()

    def next_chunk(self) -> TraceChunk | None:
        """Pull the next chunk under round-robin scheduling.

        Returns None when the workload is drained.  The first chunk of
        every slice has ``new_slice=True`` (including the very first).
        """
        while True:
            if self._slice_left <= 0:
                self.rotate()
            if not self._advance_to_runnable():
                return None
            stream = self.current_stream
            chunk = stream.take(min(self.chunk_refs, self._slice_left))
            if chunk is None:
                self.rotate()
                continue
            self._slice_left -= len(chunk)
            chunk.new_slice = not self._slice_open
            self._slice_open = True
            return chunk

    def chunks(self) -> Iterator[TraceChunk]:
        """Iterate the whole interleaved workload (plain scheduling)."""
        while True:
            chunk = self.next_chunk()
            if chunk is None:
                return
            yield chunk

    def total_consumed(self) -> int:
        return sum(stream.consumed for stream in self.streams)
