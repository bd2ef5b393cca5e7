"""The Table 2 workload catalogue.

The paper drives its simulations with 18 programs traced on an R2000
(SPEC92 plus Unix utilities), totalling ~1.1 billion references.  Table 2
gives, for each, the number of instruction fetches and total references
(millions).  Those counts are reproduced here verbatim; the locality
parameters (working-set sizes, pattern mix) are our modelling of each
program class, documented per entry, since the original traces are not
redistributable.

Two OCR notes on the source text, recorded for transparency:
* the program column lists "SC" and "Sd"; these are ``gcc`` and ``sed``
  (descriptions "C compiler (int92)" and "unix text utility" appear in
  the description column),
* description/count columns are slightly misaligned in the OCR; counts
  are assigned in row order, giving the 1.09 G-reference total the paper
  reports as "1.1-billion references".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class PatternMix:
    """Relative weights of the data-access patterns for one program.

    ``stack`` is a small, intensely reused region (activation records,
    loop variables) responsible for the high L1 data hit rates real
    traces exhibit; the other four are described in
    :mod:`repro.trace.patterns`.
    """

    sequential: float = 0.0
    strided: float = 0.0
    hot: float = 0.0
    chase: float = 0.0
    stack: float = 0.0

    def __post_init__(self) -> None:
        weights = self.as_tuple()
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigurationError("pattern weights must be >= 0 and sum > 0")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.sequential, self.strided, self.hot, self.chase, self.stack)


@dataclass(frozen=True)
class ProgramSpec:
    """One Table 2 program: paper counts plus locality modelling.

    ``ifetch_millions`` / ``total_millions`` are Table 2's columns.
    ``code_bytes`` sizes the instruction footprint; ``array_bytes``,
    ``hot_bytes`` and ``chase_bytes`` size the data regions the pattern
    mix draws from; ``write_fraction`` is the fraction of data
    references that are writes.
    """

    name: str
    description: str
    ifetch_millions: float
    total_millions: float
    code_bytes: int = 32 * KIB
    array_bytes: int = 256 * KIB
    hot_bytes: int = 16 * KIB
    chase_bytes: int = 32 * KIB
    stack_bytes: int = 4 * KIB
    stride_bytes: int = 128
    mean_run: int = 12
    write_fraction: float = 0.34
    mix: PatternMix = field(default_factory=lambda: PatternMix(hot=1.0))

    def __post_init__(self) -> None:
        if self.ifetch_millions <= 0 or self.total_millions <= 0:
            raise ConfigurationError(f"{self.name}: reference counts must be positive")
        if self.ifetch_millions > self.total_millions:
            raise ConfigurationError(
                f"{self.name}: instruction fetches exceed total references"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError(f"{self.name}: write_fraction out of range")
        for size_name in (
            "code_bytes",
            "array_bytes",
            "hot_bytes",
            "chase_bytes",
            "stack_bytes",
        ):
            if getattr(self, size_name) <= 0:
                raise ConfigurationError(f"{self.name}: {size_name} must be positive")

    @property
    def ifetch_fraction(self) -> float:
        return self.ifetch_millions / self.total_millions

    def references_at_scale(self, scale: float) -> int:
        """Total references this program contributes at a given scale."""
        return max(1, round(self.total_millions * 1e6 * scale))


def _fp_kernel(
    name: str,
    description: str,
    ifetch: float,
    total: float,
    array_kib: int,
    stride: int = 512,
) -> ProgramSpec:
    """SPECfp92 kernels: long straight-line loops sweeping big arrays.

    Mostly sequential/strided array traffic with a small scalar stack;
    long fetch runs (few branches).
    """
    return ProgramSpec(
        name=name,
        description=description,
        ifetch_millions=ifetch,
        total_millions=total,
        code_bytes=16 * KIB,
        array_bytes=array_kib * KIB,
        hot_bytes=64 * KIB,
        chase_bytes=16 * KIB,
        stack_bytes=4 * KIB,
        stride_bytes=stride,
        mean_run=24,
        write_fraction=0.30,
        mix=PatternMix(
            sequential=0.30, strided=0.05, hot=0.25, chase=0.02, stack=0.38
        ),
    )


def _int_program(
    name: str,
    description: str,
    ifetch: float,
    total: float,
    hot_kib: int = 32,
    chase_kib: int = 48,
) -> ProgramSpec:
    """Integer codes: branchy, stack-heavy, hot structures plus some
    pointer chasing over heap-sized regions."""
    return ProgramSpec(
        name=name,
        description=description,
        ifetch_millions=ifetch,
        total_millions=total,
        code_bytes=48 * KIB,
        array_bytes=64 * KIB,
        hot_bytes=hot_kib * KIB,
        chase_bytes=chase_kib * KIB,
        stack_bytes=8 * KIB,
        stride_bytes=64,
        mean_run=8,
        write_fraction=0.38,
        mix=PatternMix(
            sequential=0.12, strided=0.03, hot=0.30, chase=0.08, stack=0.47
        ),
    )


def _stream_utility(
    name: str, description: str, ifetch: float, total: float, hot_kib: int = 32
) -> ProgramSpec:
    """Streaming utilities (compress/uncompress): sequential input plus
    hash-table probing over a dictionary-sized hot set."""
    return ProgramSpec(
        name=name,
        description=description,
        ifetch_millions=ifetch,
        total_millions=total,
        code_bytes=16 * KIB,
        array_bytes=256 * KIB,
        hot_bytes=hot_kib * KIB,
        chase_bytes=32 * KIB,
        stack_bytes=4 * KIB,
        stride_bytes=32,
        mean_run=10,
        write_fraction=0.40,
        mix=PatternMix(
            sequential=0.40, strided=0.0, hot=0.25, chase=0.08, stack=0.27
        ),
    )


TABLE2_PROGRAMS: tuple[ProgramSpec, ...] = (
    _fp_kernel("alvinn", "neural net training (fp92)", 59.0, 72.8, array_kib=128, stride=128),
    _int_program("awk", "unix text utility", 62.8, 86.4, hot_kib=64),
    _int_program("cexp", "expression evaluator (int92)", 28.5, 37.5, hot_kib=32),
    _stream_utility("compress", "file compression (int92)", 8.0, 10.5),
    _fp_kernel("ear", "human ear simulator (fp92)", 65.0, 80.4, array_kib=192, stride=256),
    _int_program("gcc", "C compiler (int92)", 78.8, 100.0, hot_kib=96, chase_kib=128),
    _fp_kernel("hydro2d", "physics computation (fp92)", 8.2, 11.0, array_kib=256, stride=1024),
    _fp_kernel("mdljdp2", "solves motion eqns (fp92)", 65.0, 84.2, array_kib=192, stride=512),
    _fp_kernel("mdljsp2", "solves motion eqns (fp92)", 65.0, 77.0, array_kib=192, stride=512),
    _fp_kernel("nasa7", "NASA applications (fp92)", 65.0, 99.7, array_kib=384, stride=2048),
    _fp_kernel("ora", "ray tracing (fp92)", 65.0, 82.9, array_kib=96, stride=64),
    _int_program("sed", "unix text utility", 7.7, 9.8, hot_kib=24),
    _fp_kernel("su2cor", "physics computation (fp92)", 65.0, 88.8, array_kib=256, stride=1024),
    _fp_kernel("swm256", "physics computation (fp92)", 65.0, 87.4, array_kib=320, stride=512),
    _int_program("tex", "unix text utility", 50.3, 66.8, hot_kib=128),
    _stream_utility("uncompress", "file decompression (int92)", 5.7, 7.5),
    _fp_kernel("wave5", "solves particle equations (fp92)", 65.0, 78.3, array_kib=256, stride=1024),
    _int_program("yacc", "unix text utility", 9.7, 12.1, hot_kib=48),
)


def table2_catalog() -> dict[str, ProgramSpec]:
    """Return the catalogue keyed by program name."""
    return {spec.name: spec for spec in TABLE2_PROGRAMS}


def total_references_millions() -> float:
    """Total references across the catalogue (paper: ~1.1 billion)."""
    return sum(spec.total_millions for spec in TABLE2_PROGRAMS)
