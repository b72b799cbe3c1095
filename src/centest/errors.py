"""Exception types shared across the package."""


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


def first_failures(earlier: list, later: list) -> list:
    """Per row, the earlier check's failure if it has one, else the later's:
    how a block kernel keeps the one-row path's check order."""
    return [a if a is not None else b for a, b in zip(earlier, later)]
