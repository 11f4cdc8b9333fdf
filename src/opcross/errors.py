"""Exception hierarchy shared by all modules.

NumericalError covers everything that can go wrong for mathematical
reasons on well-formed input; a plain ValueError, and nothing else, is
malformed input.  Any other exception is a fault of the program.
"""


class NumericalError(Exception):
    """Base class for failures of a numerical precondition."""


class Singular(NumericalError):
    """A matrix that must be inverted is numerically singular."""


class NonConvergence(NumericalError):
    """An iterative eigenvalue/SVD routine exhausted its budget."""


class RankDeficient(NumericalError):
    """Columns meant to span a subspace are not linearly independent."""


class OutsideChart(NumericalError):
    """A subspace does not belong to the requested big cell."""


class NotPolarization(NumericalError):
    """A pair of subspaces fails the direct-sum (polarization) test."""


class DegeneratePosition(NumericalError):
    """The smaller pair of an unequal-dimension cross-ratio is not a direct sum."""


class Overflow(NumericalError):
    """A computed quantity left the floating-point range."""


class BlowUp(NumericalError):
    """A Riccati solution escaped to infinity inside the integration window."""

    def __init__(self, t):
        self.t = t
        super().__init__(f"solution blew up near t = {t:.6g}")
