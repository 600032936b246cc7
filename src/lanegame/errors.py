"""Exception types shared across the package.

Every error the package raises on purpose derives from LanegameError, so
a caller (the CLI among them) can catch them all in one place. Each also
keeps the builtin base it had, ValueError or RuntimeError.
"""


class LanegameError(Exception):
    """Base of the package's own errors."""


class ConfigError(LanegameError, ValueError):
    """A scenario or parameter block failed validation."""


class DomainError(LanegameError, ValueError):
    """An input left the domain a function is defined on."""


class InfeasibleDecisionError(LanegameError, RuntimeError):
    """Every candidate action was excluded by the feasibility rules."""
