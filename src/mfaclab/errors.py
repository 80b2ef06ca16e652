"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands disagree in dimension or block layout."""


class NonFiniteModelError(ValueError):
    """A model evaluation produced NaN or infinity.

    arg_index is the index of the first non-finite component of the model
    output, not an argument slot.  For a batched evaluation it is taken from
    the first evaluation point that has a non-finite output.
    """

    def __init__(self, message: str, arg_index: int | None = None):
        super().__init__(message)
        self.arg_index = arg_index


class RankDeficiencyError(ValueError):
    """Undamped control solve hit a rank-deficient lead block."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class InfeasibleBoxError(ValueError):
    """Box constraint set is empty."""


class DegenerateLoopError(ValueError):
    """Closed-loop determinant vanishes identically."""


class UnstableLoopError(ValueError):
    """Static-error formula requested on an unstable loop."""


class SingularMatrixError(ValueError):
    """A matrix that must be inverted is numerically singular."""


class InvalidRotationError(ValueError):
    """Matrix is not a proper rotation."""


class DegenerateDirectionError(ValueError):
    """Line direction undefined: start and goal coincide."""


class DivergenceError(RuntimeError):
    """Closed-loop simulation left the admissible output region."""

    def __init__(self, message: str, step: int, log=None):
        super().__init__(message)
        self.step = step
        self.log = log


class ConfigError(ValueError):
    """Experiment configuration is malformed."""
