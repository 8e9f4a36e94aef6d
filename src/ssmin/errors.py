"""Exception types shared across the package, and the lookup of a classification row."""

from enum import Enum


class UsageError(Exception):
    """A command line or config the CLI cannot run (exit code 1)."""


class VerifierError(Exception):
    """Base class for every error raised by this package."""


class DomainError(VerifierError):
    """Evaluation outside the domain of a function or profile."""


class QuadratureFailure(VerifierError):
    """Adaptive quadrature exhausted its depth budget before reaching tolerance."""


class DegenerateSurface(VerifierError):
    """EG - F^2 is not positive: degenerate, or not spacelike in Minkowski space."""


class UnknownCase(VerifierError):
    """Identifier names no case, family or reduced ODE of the classification."""


def _row_of(table: dict, ids: type[Enum], member: Enum):
    """The row of `member` in a table keyed by the values of `ids`; UnknownCase for
    anything that is not a member with a row."""
    if isinstance(member, ids) and member.value in table:
        return table[member.value]
    raise UnknownCase(repr(member))


class IllConditionedFit(VerifierError):
    """Too few usable samples: the equivalence sweep's sampler starved, or (in
    `tests/oracles.py`) a least-squares fit met rank-deficient or constant data."""


class BlowUp(VerifierError):
    """ODE trajectory exceeded the blow-up threshold."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class InvalidStep(VerifierError):
    """Integration step or span is unusable."""


class DomainMismatch(VerifierError):
    """Trajectory nodes fall outside the profile being compared against."""


class ParameterConstraintViolation(VerifierError):
    """Solution-family parameters violate their admissibility constraints."""


class EmptyDomain(VerifierError):
    """The admissible (u, v) region of a family is empty."""
