"""Exception types shared across the package.

The CLI maps these to exit codes: usage errors exit 2, precondition
failures exit 3, budget refusals exit 4.
"""

from __future__ import annotations

import os

DEFAULT_DENSE_BUDGET = 150_000_000
DEFAULT_UNKNOWNS_BUDGET = 20_000


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the input."""


class SingularInputError(PreconditionError):
    """A fixture fails its nondegeneracy requirement (e.g. singular hypersurface)."""


class BudgetExceededError(Exception):
    """A computation would exceed the configured size budget.

    Raised instead of attempting work that cannot finish at desk scale;
    the message names the offending size and the cap.
    """


def _env_budget(name: str, default: int) -> int:
    """A positive integer cap read from environment variable ``name``."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        val = int(raw)
    except ValueError as exc:
        raise PreconditionError(f"{name} must be an integer, got {raw!r}") from exc
    if val <= 0:
        raise PreconditionError(f"{name} must be positive")
    return val


def dense_entry_budget() -> int:
    """Cap on dense matrix entries, overridable via IVHS_BUDGET_ENTRIES."""
    return _env_budget("IVHS_BUDGET_ENTRIES", DEFAULT_DENSE_BUDGET)


def unknowns_budget() -> int:
    """Cap on linear-system unknowns, overridable via IVHS_MAX_UNKNOWNS."""
    return _env_budget("IVHS_MAX_UNKNOWNS", DEFAULT_UNKNOWNS_BUDGET)


def check_dense_budget(rows: int, cols: int, *, what: str) -> None:
    cap = dense_entry_budget()
    entries = rows * cols
    if entries > cap:
        raise BudgetExceededError(
            f"{what}: dense matrix of {rows} x {cols} = {entries} entries "
            f"exceeds the budget of {cap} (raise IVHS_BUDGET_ENTRIES to override)"
        )
