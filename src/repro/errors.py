"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Subclasses are grouped by subsystem:
platform description, ILP solving, simulation and model construction.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class PlatformError(ReproError):
    """Invalid platform description or query (targets, memory map, ...)."""


class InvalidAccessError(PlatformError):
    """An (target, operation) pair that the TC27x architecture forbids.

    The canonical example is a *code* access to the DFlash interface:
    Figure 2 / Table 3 of the paper show code can only be fetched from
    pf0, pf1 or the LMU.
    """


class DeploymentError(PlatformError):
    """A deployment configuration violates Table 3 placement constraints."""


class CounterError(ReproError):
    """Inconsistent or incomplete debug-counter readings."""


class ModelError(ReproError):
    """A contention model was given inputs it cannot work with."""


class IlpError(ReproError):
    """Base class for ILP-substrate failures."""


class IlpInfeasibleError(IlpError):
    """The ILP instance admits no feasible point."""


class IlpUnboundedError(IlpError):
    """The ILP objective can be improved without bound."""


class IlpNumericalError(IlpError):
    """The solver lost numerical precision (ill-conditioned instance)."""


class SimulationError(ReproError):
    """The simulator was configured or driven inconsistently."""


class WorkloadError(ReproError):
    """A workload specification is malformed (negative counts, ...)."""


class EngineError(ReproError):
    """The experiment engine was misused (unknown scenario, bad batch,
    unhashable cache key, invalid execution mode, ...)."""


class StoreError(ReproError):
    """The result store was misused (unknown run id, bad selector,
    diffing a run against itself, ...)."""


class JobCancelledError(EngineError):
    """A service job was cancelled before it completed.

    Raised by clients waiting on a cancelled job (``repro watch``,
    ``mode="service"`` execution): the coordinator will never report
    the job complete, so waiting further is pointless.  Results of
    units that finished before the cancel remain downloadable."""


class RemoteError(EngineError):
    """The analysis-service protocol was violated.

    Raised for wire-format violations (undecodable envelopes, protocol
    version mismatches, result counts that do not match their jobs) and
    for job failures on a worker whose original exception could not be
    reconstructed on the client.  Transport faults (connection refused,
    coordinator restarting) are *not* surfaced as errors — clients and
    workers retry them under :mod:`repro.service.retry`, and a
    coordinator that stays unreachable hands the batch back to the
    engine for in-process execution."""
