"""Error types shared across the package.

The split mirrors the three ways a run can go wrong: the input was
malformed (ConfigError), the input was fine but a precondition of the
requested computation is not met (DomainError), or the computation was
abandoned because it hit its node budget (BudgetExceededError).  The
command line maps these onto distinct exit codes.
"""


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


class DomainError(ValueError):
    """Operation called outside its stated domain or preconditions."""


class BudgetExceededError(RuntimeError):
    """A computation was stopped by its node budget."""


# the budget of every budgeted walk and scan that is not given one
DEFAULT_NODE_BUDGET = 10_000_000
