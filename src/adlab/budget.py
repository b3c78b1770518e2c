"""State budgets for the search-style operations.

Every potentially exponential search takes a ``budget`` argument counting
elementary states (search nodes, enumerated coefficient vectors, table
entries).  A call's budget is one ``WorkMeter``: ``as_meter`` makes it
once, at the top of the call, from an int (``None`` means
``DEFAULT_BUDGET``), and every sub-search of the call spends that meter.
A budget therefore bounds the total work of a call, not the work of each
sub-call; passing a meter in shares it with the caller.

States are charged through ``WorkMeter.tick`` everywhere but in one place:
the node loop of ``dissociation.dim_k_exact`` counts its own ticks and
adds them to ``states`` when it returns.  When it runs out it charges the
ticks that fit and calls ``tick`` for the next one, so the meter raises
at the same tick, with the same states, as if every tick had gone through
``tick``.
"""

from .errors import BudgetExceededError

DEFAULT_BUDGET = 1 << 26


def as_meter(budget) -> "WorkMeter":
    """Accept an int, None, or an existing meter (shared across sub-calls)."""
    if isinstance(budget, WorkMeter):
        return budget
    return WorkMeter(budget)


class WorkMeter:
    """Counts elementary states and raises once a budget is exhausted."""

    __slots__ = ("limit", "states")

    def __init__(self, budget: int | None):
        if budget is None:
            budget = DEFAULT_BUDGET
        elif budget <= 0:
            raise ValueError("budget must be positive")
        self.limit = budget
        self.states = 0

    def tick(self, n: int = 1) -> None:
        self.states += n
        if self.states > self.limit:
            raise BudgetExceededError(
                f"state budget exhausted ({self.states} > {self.limit})",
                budget=self.limit,
                states=self.states,
            )

    def check_feasible(self, projected: int, what: str) -> None:
        """Fail fast when a projected enumeration cannot fit in the budget."""
        if projected > self.limit - self.states:
            raise BudgetExceededError(
                f"{what} needs about {projected} states, budget leaves "
                f"{self.limit - self.states}",
                budget=self.limit,
                states=self.states,
            )
