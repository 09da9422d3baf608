"""Exception types shared across the package."""


class BHNeumannError(Exception):
    """Base class for every error this package raises on purpose."""


class SequenceConstructionError(BHNeumannError):
    """Raised when the divisor/offset sequences cannot be derived."""


class DivisorTooSmall(SequenceConstructionError):
    """The prime divisor at some index is below the floor 16*n.

    The greedy offset search is only sound above that floor, so the
    derivation stops instead of silently producing unusable data.
    """

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        super().__init__(f"d({n}) = {d} is below the required floor {16 * n}")


class NoAdmissibleResidue(SequenceConstructionError):
    """Every candidate offset in the search window was rejected."""

    def __init__(self, n: int, lo: int, hi: int):
        self.n = n
        self.lo = lo
        self.hi = hi
        super().__init__(
            f"no admissible offset for index {n} in the window ({lo}, {hi}]"
        )


class ProfileTooSmall(SequenceConstructionError):
    """The growth profile is too flat for the inverse size map.

    The inverse map divides by log(log F); it needs log F > 1 at the
    shifted index.
    """


class InvalidGenerators(BHNeumannError, ValueError):
    """A degree and offsets that do not define the generator pair.

    The degree must be an odd prime >= 5 and the offsets must keep the
    three points of the 3-cycle distinct (perm.check_generators).  It is
    also a ValueError, since the arguments are bad values.
    """


class DegreeTooLarge(BHNeumannError):
    """A coordinate's degree is past the largest dense table built."""


class SpreadAssertionFailed(BHNeumannError):
    """A coordinate past the cutoff violated the support separation bound."""


class WitnessCheckFailed(BHNeumannError):
    """A constructed witness word failed one of its defining properties."""


class BudgetExceeded(BHNeumannError):
    """An enumeration exceeded its configured work budget."""
