"""Exception types shared across the package.

I/O failures are left to the builtin OSError hierarchy (CLI exit code 3);
these classes cover domain validation (exit code 2).
"""


class PoolPartError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(PoolPartError, ValueError):
    """Input violates a documented precondition or invariant."""
