"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration-type errors
(bad parameters, geometry that cannot hold the requested computation,
such as a box too close to the grid edge or a subsampling ladder deeper
than the grid allows) exit with 2, data errors (missing or corrupt input
files) with 3.
"""


class ConfigError(ValueError):
    """Invalid configuration: parameter values violate a precondition."""


class BoundaryError(ConfigError):
    """A computation needs samples outside the stored grid."""


class DomainError(ValueError):
    """A point lies outside the domain covered by the available data."""


class SubsampleError(ConfigError):
    """A grid cannot be subsampled: it fails validation at twice the spacing."""


class DataError(RuntimeError):
    """Input data files are missing, malformed, or inconsistent."""
