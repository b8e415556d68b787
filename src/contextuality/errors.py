"""Exception hierarchy, global enumeration limits and snapping defaults.

Every public operation raises a subclass of :class:`ContextualityError` so
callers (including the CLI) can separate contract violations from bugs.
The snapping defaults live here, not in ``quantum``, so that the CLI can
show them in its help without compiling and running ``quantum``.
"""

from __future__ import annotations

#: Default ceiling on the number of sections enumerated in one call.
DEFAULT_ENUMERATION_CAP = 2**20
#: Defaults for snapping Born-rule probabilities to exact rationals.
DEFAULT_SNAP_TOLERANCE = 1e-9
DEFAULT_DENOMINATOR_BOUND = 4096


class ContextualityError(Exception):
    """Base error for this package."""


class EnumerationCapError(ContextualityError):
    """An enumeration would exceed the configured cap."""

    def __init__(self, required: int, cap: int, what: str = "sections"):
        self.required = required
        self.cap = cap
        super().__init__(f"enumerating {required} {what} exceeds the cap of {cap}")


class DomainError(ContextualityError):
    """A restriction or marginalization target is not a subset of the source domain."""


class IncompatibleSectionsError(ContextualityError):
    """Two sections in a family to be glued disagree on a shared measurement."""

    def __init__(self, first: int, second: int, measurement, left, right):
        self.first = first
        self.second = second
        self.measurement = measurement
        self.left = left
        self.right = right
        super().__init__(
            f"sections {first} and {second} clash at measurement {measurement!r}: "
            f"{left!r} vs {right!r}"
        )


class WeightError(ContextualityError):
    """Distribution or mixture weights violate their contract."""


class ScenarioMismatchError(ContextualityError):
    """Objects built over different scenarios were combined."""


class CompatibilityError(ContextualityError):
    """An empirical model fails the exact no-signaling check."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class NotAnEventError(ContextualityError):
    """A set was used where a member of the event set (or an event image) is required."""


class UnionNotEvaluableError(ContextualityError):
    """The union of a witness collection has no value in the event set."""


class TierMismatchError(ContextualityError):
    """A witness was requested for a tier the model does not occupy."""


class NonCombinatorialError(ContextualityError):
    """An operation that requires a combinatorial representation got a padded one."""


class PaddingError(ContextualityError):
    """A padding specification is malformed or breaks a representation condition."""


class NotAnExtensionError(ContextualityError):
    """A candidate extension disagrees with the base set function on its events."""


class SnapError(ContextualityError):
    """A numeric probability has no rational approximation within tolerance."""


class SchemaError(ContextualityError):
    """An input file violates the document schema."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{message} (at {field})")


class InternalConsistencyError(ContextualityError):
    """A construction invariant failed; this signals a bug, not bad input."""
