"""dyadlab: a numerical laboratory for dyadic harmonic analysis."""

__version__ = "0.1.0"
