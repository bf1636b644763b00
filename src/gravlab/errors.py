"""Exception types shared across gravlab modules."""

from __future__ import annotations


class GravlabError(Exception):
    """Base class for all gravlab errors."""


class DivergentSelfEnergy(GravlabError):
    """The 1/|x-y| kernel diverges for the given configuration.

    Raised for point masses with zero smearing length; set ``smearing_length``
    to a positive value to regularize.
    """


class NormalizationError(GravlabError):
    """Wavefunction norm deviates from unity beyond tolerance."""


class QuadratureWarning(UserWarning):
    """An adaptive integral stopped at its panel cap short of its tolerance."""


class ConvergenceError(GravlabError):
    """Iterative solver failed to reach the requested residual.

    Carries the residual history so the caller can inspect stagnation.
    """

    def __init__(self, message: str, residual_history: list[float] | None = None):
        super().__init__(message)
        self.residual_history = residual_history or []


class GridError(GravlabError):
    """Radial grid fails a resolution/extent validator."""


class StepSizeError(GravlabError):
    """Time step fails the stability validator for the chosen grid."""


class NumericalBlowup(GravlabError):
    """NaN/Inf detected during time stepping."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


class FloatRangeError(GravlabError):
    """Python float arithmetic overflowed or divided by zero on a valid input;
    the message keeps the Python exception's type and text."""


class OutputError(GravlabError):
    """An output could not be written; the message names the directory and the OS error."""


class ManifestError(GravlabError):
    """Run manifest failed schema validation; ``field`` names the offender."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message if not field else f"{field}: {message}")
        self.field = field


class ProvenanceError(GravlabError):
    """Result and model digests disagree; the inputs do not match."""
