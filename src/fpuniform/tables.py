"""Function tables: explicit maps F_p^n -> C stored on the standard
enumeration order, and their JSON file format.

Values are stored as complex128; a table with codomain "real" additionally
guarantees exactly-zero imaginary parts, and pointwise algebra on real tables
and real scalars stays real.  At p = 2 the exact kernels of analysis work on a
table whose imaginary parts are exactly zero as float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError, ValidationError, parse_at
from .field import (
    AffineMap, digit_table, is_space_size, place_values, space_size, validate_dims, validate_prime,
)
from .rng import as_rng

if TYPE_CHECKING:
    from .polynomials import Polynomial

SCHEMA = "fpuniform/v1"

CODOMAINS = ("complex", "real")


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """A map F_p^n -> C; equal and hashed by identity, so it can key a cache."""

    p: int
    n: int
    values: np.ndarray
    codomain: str = "complex"

    def __post_init__(self):
        p, n = validate_dims(self.p, self.n)
        if self.codomain not in CODOMAINS:
            raise ValidationError(f"codomain must be one of {CODOMAINS}")
        arr = np.asarray(self.values, dtype=np.complex128).reshape(-1).copy()
        if not is_space_size(arr.size, p, n):
            raise ValidationError(f"expected p^n values for p={p}, n={n}, got {arr.size}")
        if self.codomain == "real" and arr.imag.any():
            raise ValidationError("real codomain requires zero imaginary parts")
        if not np.isfinite(arr).all():
            raise ValidationError("table values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", arr)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, p: int, n: int, value=1.0) -> "FunctionTable":
        vals = np.full(space_size(p, n), value, dtype=np.complex128)
        codomain = "real" if not complex(value).imag else "complex"
        return cls(p, n, vals, codomain)

    def __repr__(self) -> str:
        return f"FunctionTable(p={self.p}, n={self.n}, codomain={self.codomain!r})"

    # -- pointwise algebra ------------------------------------------------------

    def _same_space(self, other: "FunctionTable"):
        if (self.p, self.n) != (other.p, other.n):
            raise ValidationError("tables live on different spaces")

    def _pointwise(self, op, other) -> "FunctionTable":
        """op(self, other) pointwise; real when both operands are real, a
        table by its codomain and anything else by its values."""
        if isinstance(other, FunctionTable):
            self._same_space(other)
            real, other = other.codomain == "real", other.values
        else:
            real = not np.any(np.imag(other))
        codomain = "real" if real and self.codomain == "real" else "complex"
        return FunctionTable(self.p, self.n, op(self.values, other), codomain)

    def __mul__(self, other):
        return self._pointwise(np.multiply, other)

    __rmul__ = __mul__

    def __add__(self, other):
        return self._pointwise(np.add, other)

    def __sub__(self, other):
        return self._pointwise(np.subtract, other)

    # -- structure maps ---------------------------------------------------------

    def apply_affine(self, amap: AffineMap) -> "FunctionTable":
        """Table of x -> f(Ax + b)."""
        if (amap.p, amap.n) != (self.p, self.n):
            raise ValidationError("affine map acts on a different space")
        digits = digit_table(self.p, self.n)
        image = (digits @ amap.matrix.T + amap.offset) % self.p
        perm = image @ place_values(self.p, self.n)
        return FunctionTable(self.p, self.n, self.values[perm], self.codomain)

    def tensor_product(self, other: "FunctionTable") -> "FunctionTable":
        """(f tensor g)(x, y) = f(x) g(y) on the concatenated variables."""
        if self.p != other.p:
            raise ValidationError("tensor product needs a common prime")
        codomain = "real" if self.codomain == other.codomain == "real" else "complex"
        return FunctionTable(
            self.p, self.n + other.n, np.kron(self.values, other.values), codomain
        )

    # -- file format --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "function-table",
            "p": self.p,
            "n": self.n,
            "codomain": self.codomain,
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }


def phases(p: int, x: np.ndarray, c: int = 1) -> np.ndarray:
    """e_p(c x) = exp(2 pi i c x / p) of integers x, with 2 pi c rounded
    before it multiplies x, as seeded reports have always had it.  At p = 2 it
    is (-1)^(c x), exactly +-1 and real: np.exp would leave about 1e-16 of
    imaginary part, which would keep a table off the float64 kernels of
    analysis, and would load the complex exponential's code into every p = 2
    command."""
    if p == 2:
        return 1.0 - 2.0 * (c * x % 2)
    return np.exp(2j * np.pi * c * x / p)


def phase_table(P: Polynomial) -> FunctionTable:
    """e_p(P): the phase function of a polynomial."""
    return FunctionTable(P.p, P.n, phases(P.p, P.value_table()))


def random_unit_table(p: int, n: int, seed=0) -> FunctionTable:
    """Uniform phases on the unit circle."""
    rng = as_rng(seed)
    angles = rng.random(space_size(p, n)) * 2 * np.pi
    return FunctionTable(p, n, np.exp(1j * angles))


def random_real_table(p: int, n: int, seed=0, low=-1.0, high=1.0) -> FunctionTable:
    rng = as_rng(seed)
    vals = rng.random(space_size(p, n)) * (high - low) + low
    return FunctionTable(p, n, vals, codomain="real")


def _parse_value(entry, where: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(c, (int, float)) for c in entry)
    ):
        return complex(entry[0], entry[1])
    raise FormatError("value must be a number or an [re, im] pair", pointer=where)


def _parse_values(entries: list):
    """The values of a table file: numbers, or [re, im] pairs of numbers.  A
    list of numbers only or of pairs only takes one numpy conversion; any other
    list (the two kinds mixed, or an entry of neither kind) is read entry by
    entry, which reports the first bad entry as /values/i."""
    try:
        arr = np.array(entries)
    except ValueError:  # a ragged list
        arr = None
    if arr is not None and arr.dtype.kind in "biuf":  # bool, int or float
        arr = arr.astype(np.float64)
        if arr.ndim == 1:
            return arr
        if arr.ndim == 2 and arr.shape[1] == 2:
            return arr.view(np.complex128)
    return [_parse_value(entry, f"/values/{i}") for i, entry in enumerate(entries)]


def parse_function_table(obj) -> FunctionTable:
    """Read a table from decoded JSON.

    The schema version is mandatory; structural problems carry a JSON
    pointer to the offending element.
    """
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON value must be an object")
    if obj.get("schema") != SCHEMA:
        raise FormatError(f"schema must be {SCHEMA!r}", pointer="/schema")
    for key in ("p", "n", "values"):
        if key not in obj:
            raise FormatError(f"missing field {key!r}", pointer=f"/{key}")
    codomain = obj.get("codomain", "complex")
    if codomain not in CODOMAINS:
        raise FormatError(f"codomain must be one of {CODOMAINS}", pointer="/codomain")
    p = parse_at("/p", validate_prime, obj["p"])
    n = parse_at("/n", validate_dims, p, obj["n"])[1]
    if not isinstance(obj["values"], list):
        raise FormatError("values must be an array", pointer="/values")
    return parse_at("/values", FunctionTable, p, n, _parse_values(obj["values"]), codomain)
