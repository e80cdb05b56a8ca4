"""Truncated dyadic grids on the line.

A grid is parametrized by a scaling factor r in [1,2) and shift bits
beta_j in {0,1} for generations j in the window [j_min, j_max].  Generation j
consists of the intervals  r*[k/2^j + x_j, (k+1)/2^j + x_j)  where
x_j = sum_{i>j} beta_i 2^{-i}, the sum truncated at j_max.  Larger j means
finer intervals.  Endpoint arithmetic keeps the unscaled endpoints as exact
integers over the common denominator 2^{j_max}; the real factor r is applied
last, so nestedness and partition queries never suffer float drift.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OutOfWindowError

MAX_GENERATION = 1022  # a grid's window: every 2^-j with |j| <= 1022 is a normal double


@dataclass(frozen=True)
class GridParameters:
    """A truncated random dyadic grid D^{r,beta}.

    beta holds the shift bits for generations j_min..j_max in order, |j| <= MAX_GENERATION.
    """

    r: float
    j_min: int
    j_max: int
    beta: tuple[int, ...]

    def __post_init__(self):
        if not 1.0 <= self.r < 2.0:
            raise ValueError(f"scaling parameter r={self.r} not in [1,2)")
        if not -MAX_GENERATION <= self.j_min < self.j_max <= MAX_GENERATION:
            raise ValueError(f"window [{self.j_min},{self.j_max}]: need j_min < j_max and |j| <= {MAX_GENERATION}")
        if len(self.beta) != self.j_max - self.j_min + 1:
            raise ValueError("beta must carry one bit per generation in the window")
        if any(b not in (0, 1) for b in self.beta):
            raise ValueError("beta bits must be 0 or 1")
        # beta read as one binary number whose last digit is beta_{j_max}
        object.__setattr__(self, "_bits", int("".join("1" if b else "0" for b in self.beta), 2))

    # -- bits and shifts -------------------------------------------------

    def bit(self, j: int) -> int:
        self.check_generation(j)
        return self.beta[j - self.j_min]

    def shift_numerator(self, j: int) -> int:
        """Numerator of x_j over 2^{j_max}, the last j_max - j binary digits of beta (j_min-1 <= j <= j_max)."""
        if not self.j_min - 1 <= j <= self.j_max:
            raise OutOfWindowError(f"shift x_{j} not defined in window [{self.j_min},{self.j_max}]")
        return self._bits & ((1 << (self.j_max - j)) - 1)

    def shift(self, j: int) -> Fraction:
        return self._unscaled(self.shift_numerator(j))

    def _unscaled(self, numerator: int) -> Fraction:
        """numerator / 2^{j_max} exactly; j_max may be negative."""
        return Fraction(numerator) / Fraction(2) ** self.j_max

    def check_generation(self, j: int):
        if not self.j_min <= j <= self.j_max:
            raise OutOfWindowError(f"generation {j} outside window [{self.j_min},{self.j_max}]")

    # -- intervals -------------------------------------------------------

    def interval(self, j: int, k: int) -> "DyadicInterval":
        self.check_generation(j)
        return DyadicInterval(self, j, int(k))

    def generation_length(self, j: int) -> float:
        return self.r * 2.0 ** (-j)

    def locate(self, x: float, j: int) -> "DyadicInterval":
        """The unique generation-j interval containing x (exact rationals)."""
        self.check_generation(j)
        t = Fraction(x) / Fraction(self.r) - self.shift(j)
        k = math.floor(t * (1 << j)) if j >= 0 else math.floor(t / (1 << -j))
        return self.interval(j, k)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "r": self.r,
                "j_min": self.j_min,
                "j_max": self.j_max,
                "beta": "".join(str(b) for b in self.beta),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GridParameters":
        """Read a grid file: exactly the keys r (a number), j_min and j_max (integers) and beta (a 0/1 string)."""
        d = json.loads(text)
        if not isinstance(d, dict) or set(d) != {"r", "j_min", "j_max", "beta"}:
            raise ValueError("grid file needs an object with exactly the keys r, j_min, j_max and beta")
        r, j_min, j_max, beta = d["r"], d["j_min"], d["j_max"], d["beta"]
        if isinstance(r, bool) or not isinstance(r, (int, float)):
            raise ValueError(f"grid r must be a number, got {r!r}")
        if type(j_min) is not int or type(j_max) is not int:
            raise ValueError(f"grid j_min and j_max must be integers, got {j_min!r} and {j_max!r}")
        if not isinstance(beta, str):  # int() and the bit check reject any character but 0 and 1
            raise ValueError("grid beta must be a string of 0/1 bits")
        return cls(float(r), j_min, j_max, tuple(int(c) for c in beta))


@dataclass(frozen=True)
class DyadicInterval:
    """Half-open interval of generation j, index k, in a fixed grid."""

    grid: GridParameters
    j: int
    k: int

    def _unscaled_left_numerator(self) -> int:
        # left/r = k * 2^{-j} + x_j, expressed over denominator 2^{j_max}
        return self.k * (1 << (self.grid.j_max - self.j)) + self.grid.shift_numerator(self.j)

    def unscaled_left(self) -> Fraction:
        return self.grid._unscaled(self._unscaled_left_numerator())

    def unscaled_right(self) -> Fraction:
        return self.grid._unscaled(self._unscaled_left_numerator() + (1 << (self.grid.j_max - self.j)))

    @property
    def left(self) -> float:
        return self.grid.r * float(self.unscaled_left())

    @property
    def right(self) -> float:
        return self.grid.r * float(self.unscaled_right())

    @property
    def length(self) -> float:
        return self.grid.generation_length(self.j)

    def endpoints(self) -> tuple[float, float]:
        return (self.left, self.right)

    def parent(self) -> "DyadicInterval":
        if self.j <= self.grid.j_min:
            raise OutOfWindowError(f"generation {self.j - 1} below j_min={self.grid.j_min}")
        return DyadicInterval(self.grid, self.j - 1, (self.k - self.grid.bit(self.j)) >> 1)

    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        if self.j >= self.grid.j_max:
            raise OutOfWindowError(f"generation {self.j + 1} above j_max={self.grid.j_max}")
        b = self.grid.bit(self.j + 1)
        left = DyadicInterval(self.grid, self.j + 1, 2 * self.k + b)
        right = DyadicInterval(self.grid, self.j + 1, 2 * self.k + b + 1)
        return (left, right)

    def contains(self, x: float) -> bool:
        t = Fraction(x) / Fraction(self.grid.r)
        return self.unscaled_left() <= t < self.unscaled_right()

    def contains_range(self, a: float, b: float) -> bool:
        """Whether [a, b) is contained in this interval (exact comparison)."""
        lo = Fraction(self.grid.r) * self.unscaled_left()
        hi = Fraction(self.grid.r) * self.unscaled_right()
        return lo <= Fraction(a) and Fraction(b) <= hi

    def __repr__(self):
        return f"DyadicInterval(j={self.j}, k={self.k}, [{self.left:.6g}, {self.right:.6g}))"


# -- grid factories ------------------------------------------------------


def standard_grid(j_min: int, j_max: int) -> GridParameters:
    """The standard dyadic grid truncated to the window (r=1, beta identically 0)."""
    return GridParameters(1.0, j_min, j_max, (0,) * (j_max - j_min + 1))


def third_grid(i: int, j_min: int, j_max: int) -> GridParameters:
    """The i-th 1/3-shifted grid, i in {0,1,2}.

    i=0 is the standard grid; i=1 sets beta_j = 1 at even generations,
    i=2 at odd generations.  In the infinite-window limit the generation-0
    offsets are 0, 1/3 and 2/3.
    """
    if i not in (0, 1, 2):
        raise ValueError("third_grid index must be 0, 1 or 2")
    beta = tuple(int(i > 0 and j % 2 == i - 1) for j in range(j_min, j_max + 1))
    return GridParameters(1.0, j_min, j_max, beta)


def sample_random_grid(seed, j_min: int, j_max: int) -> GridParameters:
    """Draw grid parameters: beta_j i.i.d. fair bits, r with density 1/(r ln 2) on [1,2).

    The r law is realized as r = 2^U with U uniform on [0,1).  `seed` may be
    an integer, a seed sequence, or an existing Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    beta = tuple(int(b) for b in rng.integers(0, 2, size=j_max - j_min + 1))
    r = float(2.0 ** rng.random())
    if r >= 2.0:  # guard the half-open law against rounding
        r = 1.0
    return GridParameters(r, j_min, j_max, beta)


def covering_interval(a: float, b: float, grids=None) -> tuple[int, DyadicInterval]:
    """Find (i, J) with J in the i-th supplied grid, [a,b) subset of J and 3(b-a) <= |J| <= 6(b-a).

    Defaults to the three 1/3-shifted grids on a window wide enough for the
    requested sandwich.  Raises OutOfWindowError when no supplied grid
    contains a valid J.
    """
    if not b > a:
        raise ValueError("need a < b")
    d = b - a
    if grids is None:
        # the shift sums are truncated at j_max, so keep the window a couple of
        # dozen generations deeper than the candidate lengths
        j_hi = math.floor(math.log2(1.0 / (3.0 * d))) + 1
        grids = [third_grid(i, j_hi - 3, j_hi + 24) for i in range(3)]
    for i, g in enumerate(grids):
        for j in range(g.j_min, g.j_max + 1):
            length = g.generation_length(j)
            if not 3.0 * d <= length <= 6.0 * d:
                continue
            cand = g.locate(a, j)
            if cand.contains_range(a, b):
                return (i, cand)
    raise OutOfWindowError(f"no covering interval for [{a},{b}) in the supplied grids")
