"""Exception hierarchy for the RAMpage reproduction.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch one type at the API boundary.  Configuration mistakes raise
:class:`ConfigurationError` at construction time -- never during a run --
so a simulation that starts will not die half way through a sweep because
of a bad parameter.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A machine or experiment parameter is invalid or inconsistent.

    Raised while building parameter objects or systems, e.g. a cache
    whose block size is not a power of two, or an SRAM page smaller than
    an L1 block.
    """


class SimulationError(ReproError, RuntimeError):
    """An invariant was violated while a simulation was running.

    These indicate bugs in the simulator (or corrupted state injected by
    a test), not user error; they should never occur in normal use.
    """


class TraceFormatError(ReproError, ValueError):
    """A trace file or trace record could not be parsed or validated."""


class CacheIntegrityError(ReproError, ValueError):
    """A cached run record failed validation (torn, tampered or stale).

    Raised while decoding a cache file whose JSON is invalid, whose
    schema or workload version does not match the running code, or
    whose checksum disagrees with its payload.  The experiment runner
    treats this as a cache *miss* -- the file is quarantined and the
    cell recomputed -- so corruption never aborts a sweep.
    """


class StaleArtifactError(CacheIntegrityError):
    """A cache artifact was written in an older, unreachable layout.

    Its key hashes the old schema, so no lookup can find it; ``cache
    verify`` reports it as stale rather than corrupt and ``cache purge
    --corrupt-only`` removes it.
    """
