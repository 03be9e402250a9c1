"""Exception types shared across the package."""


class DoseDistillError(Exception):
    """Base class for package-specific failures."""


class DataError(DoseDistillError):
    """Invalid input data, schema, or catalog content."""


class NumericError(DoseDistillError):
    """A numeric procedure failed (non-finite loss, singular system)."""


class TrainingDivergedError(NumericError):
    """Training produced a non-finite loss."""


class NoFeasibleProfileError(DoseDistillError):
    """No stored profile's required features fit inside a disclosure."""
