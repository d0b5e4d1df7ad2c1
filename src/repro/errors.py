"""Exception hierarchy for the repro library, plus typed error payloads.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class at the API boundary.  :class:`ErrorInfo` is the wire
form of a failure: a stable machine-readable ``code``, a human-readable
``message``, and a ``retryable`` hint — the serving layer puts these in
HTTP error payloads and on :class:`~repro.optimizer.api.OptimizationResult`
instead of bare exception reprs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

__all__ = [
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "CatalogError",
    "OptimizationError",
    "DeadlineExceededError",
    "AdmissionError",
    "CircuitOpenError",
    "RetryExhaustedError",
    "InvalidRequestError",
    "UnsupportedVersionError",
    "ErrorInfo",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed query graphs (bad vertices, edges, or sets)."""


class CatalogError(ReproError):
    """Raised for inconsistent statistics (cardinalities, selectivities)."""


class OptimizationError(ReproError):
    """Raised when plan generation cannot complete."""


class DisconnectedGraphError(GraphError, OptimizationError):
    """Raised when an operation requires a connected (sub)graph.

    The paper's well-accepted heuristic excludes cross products, which
    presumes the query graph is connected (Sec. I); optimizing a
    disconnected graph without cross products has no solution.  Inherits
    both :class:`GraphError` (it is a structural property of the graph)
    and :class:`OptimizationError` (enumerators and heuristics raise it
    when refusing a disconnected search), so handlers catching either
    keep working; the wire code is ``invalid_query``.
    """


class DeadlineExceededError(OptimizationError):
    """Raised (or recorded on a batch result) when a request exceeds its
    batch deadline.

    The service layer's batch executors convert this into an
    :class:`~repro.optimizer.api.OptimizationResult` with ``error`` set
    instead of letting one slow query stall the whole batch.
    """


class AdmissionError(OptimizationError):
    """Raised when a request is rejected by admission control and no
    degradation rung can serve it either.

    The common case — an over-budget request with a usable heuristic
    rung — does *not* raise: the service silently degrades and records
    the rung and reason on the result.  This error surfaces only when
    every rung of the ladder is unusable for the query.
    """


class CircuitOpenError(OptimizationError):
    """Raised when a request is refused because the circuit breaker for
    its algorithm label is open and no degradation rung applies.

    Like :class:`AdmissionError`, the usual outcome of an open breaker
    is a degraded (heuristic) plan, not an exception.
    """


class RetryExhaustedError(OptimizationError):
    """Recorded when a transient worker failure persisted through every
    allowed retry attempt (or the per-batch retry budget ran out)."""


class InvalidRequestError(ReproError):
    """Raised for a structurally invalid wire request document — wrong
    ``kind``, missing required fields, or values of the wrong type.

    Distinct from :class:`GraphError`/:class:`CatalogError` (the document
    decoded fine but describes an unusable query): this one means the
    document itself cannot be decoded.  The serving layer maps it to the
    stable error code ``invalid_request`` (HTTP 400).
    """


class UnsupportedVersionError(ReproError):
    """Raised by :mod:`repro.serialize` readers handed a document whose
    ``version`` field names a format this build cannot read.

    The serving layer maps it to the stable error code
    ``unsupported_version`` (HTTP 400) instead of a traceback, so a
    client speaking a future wire schema gets an actionable rejection.
    """


# ----------------------------------------------------------------------
# Typed error payloads
# ----------------------------------------------------------------------

#: Exception class name -> stable wire error code.  Order matters only in
#: :meth:`ErrorInfo.from_exception`, which walks the MRO; this table is
#: the single place a new typed error gets its code.
_CODE_BY_EXCEPTION = {
    "DeadlineExceededError": ("deadline_exceeded", True),
    "AdmissionError": ("admission_rejected", False),
    "CircuitOpenError": ("breaker_open", True),
    "RetryExhaustedError": ("retry_exhausted", False),
    "UnsupportedVersionError": ("unsupported_version", False),
    "InvalidRequestError": ("invalid_request", False),
    "DisconnectedGraphError": ("invalid_query", False),
    "GraphError": ("invalid_query", False),
    "CatalogError": ("invalid_query", False),
    "OptimizationError": ("optimization_failed", False),
    "ReproError": ("optimization_failed", False),
}


class ErrorInfo(str):
    """A failure with a stable machine code: ``(code, message, retryable)``.

    Subclasses :class:`str` (the value *is* the message), so every caller
    that treats :attr:`OptimizationResult.error` as a plain string —
    ``result.error is None``, substring checks, formatting — keeps
    working unchanged, while typed consumers read :attr:`code` and
    :attr:`retryable`.  ``code`` values are part of the wire schema
    (documented in ``docs/SERVING.md``) and must stay stable across
    releases; ``message`` is free-form and may change.
    """

    def __new__(
        cls, message: str, code: str = "internal", retryable: bool = False
    ) -> "ErrorInfo":
        self = super().__new__(cls, message)
        self.code = str(code)
        self.retryable = bool(retryable)
        return self

    @property
    def message(self) -> str:
        """The human-readable message (the string value itself)."""
        return str(self)

    def to_dict(self) -> Dict[str, Any]:
        """Wire form: ``{"code", "message", "retryable"}``."""
        return {
            "code": self.code,
            "message": str(self),
            "retryable": self.retryable,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "ErrorInfo":
        """Rebuild from the wire form (tolerant of missing fields)."""
        if not isinstance(document, dict):
            return cls.coerce(document)
        return cls(
            str(document.get("message", "")),
            code=str(document.get("code", "internal")),
            retryable=bool(document.get("retryable", False)),
        )

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorInfo":
        """Map an exception to its stable code via the class hierarchy.

        The message keeps the legacy ``"TypeName: message"`` shape that
        error strings have always carried, so logs and substring-matching
        callers see no change.
        """
        code, retryable = "internal", False
        for klass in type(exc).__mro__:
            entry = _CODE_BY_EXCEPTION.get(klass.__name__)
            if entry is not None:
                code, retryable = entry
                break
        return cls(f"{type(exc).__name__}: {exc}", code=code, retryable=retryable)

    @classmethod
    def coerce(cls, value: Union[str, Dict[str, Any], None]) -> Optional["ErrorInfo"]:
        """Normalize any legacy error value into an :class:`ErrorInfo`.

        Accepts an existing :class:`ErrorInfo` (returned as-is), a wire
        dict, or a bare string.  Legacy ``"TypeName: message"`` strings
        recover their code from the type-name prefix when it names a
        known library error; anything else gets ``internal``.  ``None``
        stays ``None``.
        """
        if value is None or isinstance(value, ErrorInfo):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        text = str(value)
        prefix, separator, _ = text.partition(":")
        if separator:
            entry = _CODE_BY_EXCEPTION.get(prefix.strip())
            if entry is not None:
                return cls(text, code=entry[0], retryable=entry[1])
        return cls(text, code="internal")
