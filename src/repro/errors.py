"""Exception hierarchy for the ttm-cas reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class. Specific subclasses signal which subsystem rejected the
input, mirroring the paper's constraints (e.g. a process node with zero wafer
production rate cannot fabricate anything, Sec. 6.2).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class UnknownNodeError(ReproError, KeyError):
    """A process node name is not present in the technology database."""

    def __init__(self, name: str, known: tuple = ()):  # type: ignore[assignment]
        self.name = name
        self.known = tuple(known)
        message = f"unknown process node {name!r}"
        if self.known:
            message += f" (known nodes: {', '.join(self.known)})"
        super().__init__(message)

    def __str__(self) -> str:
        # ``KeyError.__str__`` would quote the message as its repr.
        return self.args[0]


class NodeUnavailableError(ReproError):
    """A node exists but has no production capacity (e.g. 20 nm / 10 nm).

    TSMC reported 0% revenue from 20 nm and 10 nm in 2022 Q2 (paper Sec. 6.2),
    which the dataset encodes as a zero wafer production rate. Requesting
    fabrication on such a node is a modeling error, not a long queue.
    """

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"process node {name!r} has no wafer production capacity; "
            "it cannot fabricate wafers under current market conditions"
        )


class InvalidDesignError(ReproError, ValueError):
    """A chip design violates a structural invariant (e.g. NUT > NTT)."""


class InvalidParameterError(ReproError, ValueError):
    """A numeric model parameter is outside its valid domain."""


class CalibrationError(ReproError):
    """A regression fit could not be computed from the given anchor data."""
