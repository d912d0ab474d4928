"""Exception types shared across the package."""


class NonlocalError(Exception):
    """Base class for all package-specific failures."""


class EllipticityError(NonlocalError):
    """A matrix field violated its symmetric-positive-definite contract."""


class DomainError(NonlocalError):
    """A parameter left its admissible range (order s, dimensions, radii)."""


class CapacityError(NonlocalError):
    """A requested lattice or dense operator exceeds the memory budget."""


class SingularityError(NonlocalError):
    """Kernel evaluation was requested at coincident points."""


class ConvergenceError(NonlocalError):
    """An iterative solver or minimizer failed to reach its tolerance."""


class PositivityError(NonlocalError):
    """A quantity that must be positive (eigenvector, density) is not."""


class ResolutionError(NonlocalError):
    """A transform grid is too coarse for the requested tolerance."""


class OracleInconsistencyError(NonlocalError):
    """Two routes to one quantity disagree beyond tolerance: probe
    measurements of the recovery, or an eigenvalue and its oracle."""


class ReconstructionError(NonlocalError):
    """Recovered coefficients fail a structural check (e.g. not SPD)."""


class ConfigError(NonlocalError):
    """A run configuration violates the schema.

    Attributes
    ----------
    field_path : str
        Dotted/indexed path to the offending entry, e.g. ``"kernel.matrix[0]"``.
    """

    def __init__(self, message: str, field_path: str = "") -> None:
        super().__init__(message)
        self.field_path = field_path
