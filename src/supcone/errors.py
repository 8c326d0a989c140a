"""Error types shared across the package.

The CLI maps these onto exit codes: InputError -> 2, RefusedError,
SizingError and inconclusive verdicts -> 3, verification violations -> 1,
InternalCheckError -> 4. Everything else is a bug.
"""


class InputError(ValueError):
    """Malformed or inconsistent input (bad file, bad rational, wrong dimension)."""


class PreconditionError(InputError):
    """A documented precondition of an operation does not hold for the given data."""


class RefusedError(PreconditionError):
    """A hypothesis the method needs could not be verified, so no verdict is
    issued; distinct from malformed input, and mapped to its own exit code."""


class SizingError(RuntimeError):
    """An intermediate representation exceeded the configured row cap."""


class InternalCheckError(AssertionError):
    """An internal cross-check failed; indicates a bug, never bad user input."""
