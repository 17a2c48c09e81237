"""Exception types shared across the package.  The command line reports a
:class:`Curv4Error` as ``error: ...`` with exit status 1."""


class Curv4Error(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(Curv4Error, ValueError):
    """Input violates a structural contract (finiteness, symmetry, Bianchi, schema)."""


class ConsistencyError(Curv4Error, RuntimeError):
    """An internal identity failed: the computation itself is broken, not the input."""
