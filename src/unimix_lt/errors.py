"""The package's own exception type.

The CLI maps each fault to its exit code by exception type alone:
`ValueError` and `OSError` (bad input or I/O) exit 1, and
`InvariantViolation` (a run that went wrong mid-way) exits 2.
"""


class InvariantViolation(RuntimeError):
    """A runtime invariant broke mid-run, e.g. non-finite loss (exit code 2)."""
