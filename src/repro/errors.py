"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError, ValueError):
    """A setting (environment variable or override) has an invalid value."""


class IRError(ReproError):
    """Malformed IR: bad operands, missing terminators, dangling refs."""


class ParseError(ReproError):
    """Raised by the IR text parser and the kernel-language parser."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class VerifierError(IRError):
    """The IR verifier found a structural violation."""


class AnalysisError(ReproError):
    """An analysis was queried on input it cannot handle."""


class TransformError(ReproError):
    """A compiler transform could not be applied."""


class DeconflictionError(TransformError):
    """Conflicting barriers could not be resolved (Section 4.3)."""


class AllocationError(TransformError):
    """Barrier register allocation ran out of physical registers."""


class SimulationError(ReproError):
    """The SIMT simulator hit an invalid execution state."""


class DeadlockError(SimulationError):
    """No thread is runnable and no barrier can be released."""

    def __init__(self, message, warp_id=None, waiting=None):
        super().__init__(message)
        self.warp_id = warp_id
        self.waiting = waiting or []


class LaunchError(SimulationError):
    """Kernel launch configuration is invalid."""


class WorkloadError(ReproError):
    """A workload was configured with invalid parameters."""


class WorkerError(ReproError):
    """A pool worker process died mid-sweep. ``task_index`` and
    ``function`` name the first unfinished task; ``exitcode`` is the dead
    worker's (negative: the killing signal), or None when unknown."""

    def __init__(self, message, task_index=None, function=None, exitcode=None):
        super().__init__(message)
        self.task_index = task_index
        self.function = function
        self.exitcode = exitcode
