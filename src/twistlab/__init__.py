"""twistlab: partition twisting combinatorics over a prime p.

The package has three layers:

* pure partition combinatorics (partitions, abacus displays, the Mullineux
  map and its two-row symbol),
* closed-form criteria for extensions, endomorphism rings and fixed points
  of hook Specht modules,
* an exact GF(p) Specht-module workbench used as the independent oracle for
  the closed forms, plus a search harness and a command line front end.
"""

from .errors import (
    CongruenceViolated,
    EqualSizeRequired,
    HypothesisViolated,
    InvalidSymbol,
    NoInsertion,
    NonPartitionDifference,
    NotDistinctParts,
    NotPrime,
    NotPRegular,
    NotPRestricted,
    NotTwoPart,
    Overflow,
    PrimeTooSmall,
    SizeMismatch,
    TooFewBeads,
    TooLarge,
    TwistlabError,
)
from .partitions import Partition, enumerate_partitions
from .mullineux import (
    MullineuxSymbol,
    mullineux_map,
    mullineux_restricted,
    mullineux_symbol,
    tau,
)

__version__ = "0.1.0"

__all__ = [
    "CongruenceViolated",
    "EqualSizeRequired",
    "HypothesisViolated",
    "InvalidSymbol",
    "MullineuxSymbol",
    "NoInsertion",
    "NonPartitionDifference",
    "NotDistinctParts",
    "NotPrime",
    "NotPRegular",
    "NotPRestricted",
    "NotTwoPart",
    "Overflow",
    "Partition",
    "PrimeTooSmall",
    "SizeMismatch",
    "TooFewBeads",
    "TooLarge",
    "TwistlabError",
    "enumerate_partitions",
    "mullineux_map",
    "mullineux_restricted",
    "mullineux_symbol",
    "tau",
    "__version__",
]
