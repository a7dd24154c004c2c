"""Exception and warning types shared across the package.

The CLI maps these onto exit codes: anything derived from InputError exits 2,
NumericsError exits 3, and OutputError exits 4.
"""


class MixsepError(Exception):
    """Base class for all package errors."""


class InputError(MixsepError):
    """Bad user input: config, argument values, malformed data files."""


class ValidationError(InputError):
    pass


class ParseError(InputError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class PoleAtResonance(InputError):
    """Field requested within the guard window of the resonance pole."""


class NonPositiveInput(InputError):
    pass


class GridTooSmall(InputError):
    """Cloud extent exceeds the grid box, or the box's cells miss the cloud."""


class GridMismatch(InputError):
    """Fields defined on different grids were combined."""


class MissingInput(InputError):
    """A named input artifact (file, column) is absent."""


class TooFewPoints(InputError):
    pass


class OutOfDomain(InputError):
    pass


class InsufficientData(InputError):
    pass


class NumericsError(MixsepError):
    """Numerical failure: divergence, NaN, non-convergence."""


class StepUnstable(NumericsError):
    """Imaginary-time step keeps raising the energy after repeated halving."""


class NumericalBlowup(NumericsError):
    """NaN or Inf appeared; message names the energy term."""


class FitDiverged(NumericsError):
    pass


class TooNoisy(NumericsError):
    """Reconstruction dominated by noise (negative mass above threshold)."""


class CenterNotFound(NumericsError):
    pass


class ThomasFermiCollapse(NumericsError):
    """Tf mode found no pointwise state that holds the target atom numbers
    with every cell at a local minimum: under strong boson-fermion
    attraction the Thomas-Fermi mixture collapses."""


class NotSeparated(NumericsError):
    """Requested an interface measure on a state with no density hole."""


class ZeroReference(NumericsError):
    """Overlap normalization integral vanished."""


class ZeroDenominator(NumericsError):
    pass


class OutputError(MixsepError):
    """Filesystem/serialization failure while writing results."""


class ResolutionWarning(UserWarning):
    """Grid spacing too coarse for the healing length or cloud size."""


class NonDecayingWarning(UserWarning):
    """Profile or series does not decay where the algorithm assumes it does."""
