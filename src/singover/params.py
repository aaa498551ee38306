"""Parameter pair (k, i) selecting a singular overpartition family."""

from __future__ import annotations

from .errors import ParameterError


class SingularParams:
    """Modulus k and overline residue class i.

    C-bar_{k,i}(n) counts overpartitions of n with no part divisible by k
    in which only parts congruent to +-i (mod k) may be overlined.
    Requires k >= 3 and 1 <= i <= k // 2. Values are immutable: equal
    pairs hash equal, and assigning a field raises AttributeError.
    """

    __slots__ = ("k", "i")

    def __init__(self, k: int, i: int):
        for value in (k, i):
            # bool is an int subclass, but True is no modulus or residue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParameterError(f"k and i must be integers, got ({k!r}, {i!r})")
        if k < 3:
            raise ParameterError(f"modulus k must be >= 3, got {k}")
        if not 1 <= i <= k // 2:
            raise ParameterError(
                f"residue i must satisfy 1 <= i <= floor(k/2) = {k // 2}, got {i}"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "i", i)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since fields refuse assignment
        return (SingularParams, (self.k, self.i))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.i) == (other.k, other.i)

    def __hash__(self):
        return hash((self.k, self.i))

    def __repr__(self):
        return f"SingularParams(k={self.k!r}, i={self.i!r})"
