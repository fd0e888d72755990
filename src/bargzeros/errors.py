"""Exception types shared across the package, one per CLI exit code.

``ConfigError`` (exit 2) covers bad parameters and geometry that cannot
hold the requested computation: a box too close to the grid edge, a
subsampling ladder deeper than the grid allows, a point outside the stored
domain.  Its message says which.  ``DataError`` (exit 3) covers missing
or corrupt input files.
"""


class ConfigError(ValueError):
    """Invalid configuration: parameter values violate a precondition."""


class DataError(RuntimeError):
    """Input data files are missing, malformed, or inconsistent."""
