"""Shared helpers for the test suite.

Importable as ``from helpers import ...`` because pytest (rootdir mode,
no ``__init__.py``) puts this directory on ``sys.path``.
"""

from pathlib import Path

import numpy as np

from repro.core.params import KIB
from repro.trace.record import TraceChunk


def random_chunks(seed, n_chunks=6, chunk_len=400):
    """Multi-process chunks with realistic region structure."""
    rng = np.random.default_rng(seed)
    chunks = []
    for i in range(n_chunks):
        kinds = rng.choice(
            [0, 1, 2], size=chunk_len, p=[0.2, 0.1, 0.7]
        ).astype(np.uint8)
        region = rng.choice([0x40_0000, 0x100_0000, 0x200_0000])
        addrs = (
            region + rng.integers(0, 64 * KIB, size=chunk_len, dtype=np.int64) // 4 * 4
        ).astype(np.uint64)
        chunks.append(TraceChunk(pid=i % 3, kinds=kinds, addrs=addrs))
    return chunks


def tree_state(root) -> dict[str, tuple[int, int, int]]:
    """Every path under ``root``: its size, inode and ``st_mtime_ns``.

    Two equal states mean nothing under ``root`` was written, replaced,
    added or removed in between.
    """
    root = Path(root)
    state = {}
    for path in sorted(root.rglob("*")):
        info = path.stat()
        state[str(path.relative_to(root))] = (
            info.st_size,
            info.st_ino,
            info.st_mtime_ns,
        )
    return state
