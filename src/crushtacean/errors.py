"""Exception types shared across the package."""

from __future__ import annotations


class CrushtaceanError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(CrushtaceanError):
    """Raised when painted-graph JSON (or in-memory data) is malformed."""


class NonplanarError(CrushtaceanError):
    """Raised when an embedding is requested for a non-planar graph."""


class InvalidRotationError(CrushtaceanError):
    """Raised when a rotation system does not match its graph."""


class PreconditionError(CrushtaceanError):
    """Raised when an operation is invoked outside its stated domain."""


class CapExceededError(CrushtaceanError):
    """Raised when a group grows past its element cap."""


class CatalogMissError(CrushtaceanError):
    """Raised when no catalog seed realizes a requested symmetry group."""
