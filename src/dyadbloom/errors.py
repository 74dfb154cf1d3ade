"""Exception types shared across the package."""


class DyadBloomError(Exception):
    """Base class for package-specific errors."""


class GridMismatchError(DyadBloomError):
    """Two objects live on different dyadic grids."""


class InadmissibleLevelError(DyadBloomError):
    """A shift-based operator met nonzero coefficients at an unrepresentable level.

    Attributes
    ----------
    level : int
        The offending coefficient level.
    max_abs : float
        Largest offending |coefficient|.
    """

    def __init__(self, message: str, level: int, max_abs: float):
        super().__init__(message)
        self.level = level
        self.max_abs = max_abs


class PackingSearchError(DyadBloomError):
    """No constant on the search grid achieved the packing target.

    Attributes
    ----------
    min_ratio : float
        Smallest packing ratio achieved over the grid (at the largest constant).
    """

    def __init__(self, message: str, min_ratio: float):
        super().__init__(message)
        self.min_ratio = min_ratio


class EnsembleTargetError(DyadBloomError):
    """Rejection sampling could not reach the requested characteristic range."""


class ConfigError(DyadBloomError):
    """Invalid configuration file or CLI arguments (exit code 2 territory)."""
