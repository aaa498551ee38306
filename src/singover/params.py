"""Parameter pair (k, i) selecting a singular overpartition family."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class SingularParams:
    """Modulus k and overline residue class i.

    C-bar_{k,i}(n) counts overpartitions of n with no part divisible by k
    in which only parts congruent to +-i (mod k) may be overlined.
    Requires k >= 3 and 1 <= i <= k // 2.
    """

    k: int
    i: int

    def __post_init__(self):
        if not isinstance(self.k, int) or not isinstance(self.i, int):
            raise ParameterError(f"k and i must be integers, got ({self.k!r}, {self.i!r})")
        if self.k < 3:
            raise ParameterError(f"modulus k must be >= 3, got {self.k}")
        if not 1 <= self.i <= self.k // 2:
            raise ParameterError(
                f"residue i must satisfy 1 <= i <= floor(k/2) = {self.k // 2}, got {self.i}"
            )
