"""Exception hierarchy shared across the package.

ConfigurationError covers invalid user input (bad parameters, malformed
specs). Every entry point checks its arguments by one rule, `lattice.checked`,
in three forms: an exact integer within optional bounds, an instance of a
type, or one of a known set; a value that breaks it is a ConfigurationError
naming the argument. NumericalError covers runtime failures of well-formed
configurations (zero mass, empty horizons, fit degeneracies). The CLI maps
them to distinct exit codes.
"""


class WalklabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(WalklabError):
    """Invalid configuration or parameters."""


class NumericalError(WalklabError):
    """A well-formed computation failed numerically."""


class NoAbsorptionError(NumericalError):
    """No probability was absorbed within the requested horizon."""


class EmptyStateError(NumericalError):
    """All probability mass has been absorbed; the state is empty."""
