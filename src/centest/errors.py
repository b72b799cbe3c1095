"""Exception types and the checks shared across the package."""

from numbers import Integral


class SingularMatrixError(ValueError):
    """A covariance or second-moment matrix failed the eigenvalue floor.

    Raised instead of silently regularizing: a singular instrument moment
    matrix is a data problem (collinear instruments, degenerate errors) that
    the caller has to resolve.
    """


class DegenerateErrors(ValueError):
    """The forecast errors carry no dispersion (zero MAD or zero variance).

    Every bandwidth and every test statistic is meaningless in this case, so
    it is surfaced as an error rather than floored away.
    """


class MissingColumnError(ValueError):
    """A required column is absent from an input CSV."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"required column {column!r} not found in input header")


def raise_row_failure(failures: list) -> None:
    """Raise the failure a one-row block recorded, if it has one.

    Every block kernel returns its per-row values and a failures list
    holding, for each row, None or the exception the matching single-dataset
    function raises; that function is the kernel's one-row case and raises
    through here.
    """
    (failure,) = failures
    if failure is not None:
        raise failure


def first_failures(*stages: list) -> list:
    """Per row, the failure of the earliest check (stage) that has one: how a
    block kernel keeps the one-row path's check order."""
    return [next((f for f in row if f is not None), None) for row in zip(*stages)]


def check_integer(value, name: str) -> int:
    """``value`` as a Python int: ValueError naming ``name`` unless it is an
    int or a numpy integer (a bool is not), so that a count or a seed reaches
    neither a range nor a JSON report as a float, a bool or a numpy scalar."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)
