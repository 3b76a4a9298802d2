"""Published 14-sample reference table for the 0/1 drift-ratio experiment.

Each sample drew 100 fair bits; zeros play the role of decrease steps and
ones of increase steps, xi is zeros/ones, and the std column is the sample
standard deviation (n-1 denominator) of the 0/1 indicator.  The printed
columns are kept verbatim (decimal commas normalized to points); the integer
(zeros, ones) pairs are recovered from xi and let every printed column be
recomputed, which the tests do.

The source also printed confidence intervals said to be for mu = E(1+xi),
yet both of its interval tables show the same numbers on the 2^mu scale while
the sample mean of the 1+xi column is about 2.08.  Those printed bounds are
reproduced here as constants for comparison only; `collatzlab.stats`
recomputes intervals from the rows and reports the discrepancy.
"""

from __future__ import annotations

from typing import NamedTuple

SAMPLE_LENGTH = 100


class ReferenceRow(NamedTuple):
    sample: int
    zeros: int
    ones: int
    xi: float
    one_plus_xi: float
    indicator_std: float
    chi: float  # printed value of 2^(1+xi)


REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow(1, 42, 58, 0.7241, 1.7241, 0.4960, 3.3038),
    ReferenceRow(2, 52, 48, 1.0833, 2.0833, 0.5021, 4.2379),
    ReferenceRow(3, 53, 47, 1.1277, 2.1277, 0.5016, 4.3701),
    ReferenceRow(4, 52, 48, 1.0833, 2.0833, 0.5021, 4.2379),
    ReferenceRow(5, 57, 43, 1.3256, 2.3256, 0.4976, 5.0127),
    ReferenceRow(6, 44, 56, 0.7857, 1.7857, 0.4989, 3.4479),
    ReferenceRow(7, 52, 48, 1.0833, 2.0833, 0.5021, 4.2379),
    ReferenceRow(8, 52, 48, 1.0833, 2.0833, 0.5021, 4.2379),
    ReferenceRow(9, 65, 35, 1.8571, 2.8571, 0.4794, 7.2458),
    ReferenceRow(10, 46, 54, 0.8519, 1.8519, 0.5009, 3.6096),
    ReferenceRow(11, 51, 49, 1.0408, 2.0408, 0.5024, 4.1148),
    ReferenceRow(12, 48, 52, 0.9231, 1.9231, 0.5021, 3.7923),
    ReferenceRow(13, 49, 51, 0.9608, 1.9608, 0.5024, 3.8927),
    ReferenceRow(14, 54, 46, 1.1739, 2.1739, 0.5009, 4.5125),
)

# Printed interval bounds, identical in both of the source's tables (the
# mu-labelled one and the chi = 2^mu one).  Not reproducible from the rows;
# kept for the discrepancy report.
PUBLISHED_INTERVALS: dict[float, tuple[float, float]] = {
    0.95: (3.8953, 4.9174),
    0.98: (3.7794, 5.0333),
    0.99: (3.6938, 5.1189),
}
