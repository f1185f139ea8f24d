"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subsystems raise the most specific
subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class XmlParseError(ReproError):
    """Raised when an XML document cannot be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class DtdError(ReproError):
    """Raised for malformed DTD declarations or unsupported DTD features."""


class ValidationError(ReproError):
    """Raised when a document does not conform to its DTD."""


class ModelError(ReproError):
    """Raised for illegal manipulations of the in-memory XML data model.

    Examples: inserting a duplicate attribute, detaching a node that is
    not a child of the given parent, or using a node after deletion.
    """


class XPathError(ReproError):
    """Raised for XPath syntax or evaluation errors."""


class XQueryError(ReproError):
    """Raised for XQuery syntax errors."""


class UpdateError(ReproError):
    """Raised when an update operation is invalid or violates semantics.

    This covers the paper's restrictions from Section 3.2, e.g. an
    ``Insert`` of an attribute whose name already exists on the target,
    or use of a deleted binding later in an operation sequence.
    """


class DeletedBindingError(UpdateError):
    """Raised when a binding that was deleted earlier in an update
    sequence is used by a later operation (other than as content)."""


class UnreadableContentError(UpdateError):
    """Raised when an update would write a character or a name that
    XML 1.0 cannot carry (a C0 control character in text, an element
    named ``1bad``): the document's serialization could not be parsed
    back, so the update is refused before it is logged or applied."""


class MappingError(ReproError):
    """Raised when an XML-to-relational mapping cannot be derived or a
    document does not fit the derived schema."""


class StorageError(ReproError):
    """Raised for errors in the relational storage layer."""


class TranslationError(ReproError):
    """Raised when an XQuery query or update cannot be translated to SQL
    for the selected storage mapping."""


class ServiceError(ReproError):
    """Raised for errors in the concurrent update service layer."""


class WalError(ServiceError):
    """Raised for write-ahead-log framing or corruption problems that
    cannot be resolved by truncating a torn tail."""


class CheckpointError(ServiceError):
    """Raised when a checkpoint snapshot or its manifest is missing,
    malformed, or fails its checksum during recovery."""


class ServiceTimeoutError(ServiceError):
    """Raised when a service submission, lock acquisition, or query does
    not complete within its timeout."""


class ServiceClosedError(ServiceError):
    """Raised when work is submitted to a service that is shutting down
    or already closed."""


class ServiceBusyError(ServiceError):
    """Raised when the service's admission control rejects a request
    because a capacity bound (connection limit, in-flight bound, or the
    batcher queue) is full.  Retryable: the client should back off and
    resubmit — nothing was enqueued or applied."""

    retryable = True


class ProtocolError(ServiceError):
    """Raised for malformed, oversized, or version-mismatched frames on
    the network protocol (:mod:`repro.service.net`)."""


class ServiceConnectionError(ServiceError):
    """Raised by the network client when the transport fails — the
    connection was refused, reset, or closed mid-request.  Wraps the
    underlying ``OSError`` so callers never see a bare socket
    exception."""
