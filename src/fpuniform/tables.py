"""Function tables: explicit maps F_p^n -> C stored on the standard
enumeration order, plus the JSON/CSV interchange formats.

Values are complex128 throughout; a table with codomain "real" additionally
guarantees exactly-zero imaginary parts.
"""

from __future__ import annotations

import cmath
import csv
import io
import json

import numpy as np

from .config import check_budget
from .errors import FormatError, ValidationError
from .field import AffineMap, digit_table, place_values, space_size, validate_dims
from .polynomials import Polynomial
from .rng import as_rng

SCHEMA = "fpuniform/v1"

CODOMAINS = ("complex", "real")


class FunctionTable:
    __slots__ = ("p", "n", "codomain", "values")

    def __init__(self, p: int, n: int, values, codomain: str = "complex"):
        p, n = validate_dims(p, n)
        if codomain not in CODOMAINS:
            raise ValidationError(f"codomain must be one of {CODOMAINS}")
        arr = np.asarray(values, dtype=np.complex128).reshape(-1).copy()
        if arr.shape != (space_size(p, n),):
            raise ValidationError(
                f"expected {space_size(p, n)} values for p={p}, n={n}, got {arr.shape[0]}"
            )
        if codomain == "real" and arr.imag.any():
            raise ValidationError("real codomain requires zero imaginary parts")
        if not np.isfinite(arr).all():
            raise ValidationError("table values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, *_):
        raise AttributeError("FunctionTable is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, p: int, n: int, value=1.0) -> "FunctionTable":
        vals = np.full(space_size(p, n), value, dtype=np.complex128)
        codomain = "real" if not complex(value).imag else "complex"
        return cls(p, n, vals, codomain)

    @classmethod
    def from_callable(cls, p: int, n: int, fn, codomain: str = "complex") -> "FunctionTable":
        from .field import enumerate_vectors

        vals = [fn(x) for x in enumerate_vectors(p, n)]
        return cls(p, n, vals, codomain)

    def __repr__(self) -> str:
        return f"FunctionTable(p={self.p}, n={self.n}, codomain={self.codomain!r})"

    # -- pointwise algebra ------------------------------------------------------

    def _same_space(self, other: "FunctionTable"):
        if (self.p, self.n) != (other.p, other.n):
            raise ValidationError("tables live on different spaces")

    def __mul__(self, other):
        if isinstance(other, FunctionTable):
            self._same_space(other)
            return FunctionTable(self.p, self.n, self.values * other.values)
        return FunctionTable(self.p, self.n, self.values * other)

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, FunctionTable):
            self._same_space(other)
            return FunctionTable(self.p, self.n, self.values + other.values)
        return FunctionTable(self.p, self.n, self.values + other)

    def __sub__(self, other):
        if isinstance(other, FunctionTable):
            self._same_space(other)
            return FunctionTable(self.p, self.n, self.values - other.values)
        return FunctionTable(self.p, self.n, self.values - other)

    def conjugate(self) -> "FunctionTable":
        return FunctionTable(self.p, self.n, np.conj(self.values), self.codomain)

    def mean(self) -> complex:
        return complex(self.values.mean())

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def is_one_bounded(self, tol: float = 1e-9) -> bool:
        return self.sup_norm() <= 1 + tol

    # -- structure maps ---------------------------------------------------------

    def shift(self, y) -> "FunctionTable":
        """Table of x -> f(x + y)."""
        y = tuple(int(v) % self.p for v in y)
        if len(y) != self.n:
            raise ValidationError("shift direction has wrong arity")
        digits = digit_table(self.p, self.n)
        perm = ((digits + np.array(y)) % self.p) @ place_values(self.p, self.n)
        return FunctionTable(self.p, self.n, self.values[perm], self.codomain)

    def modulate(self, alpha) -> "FunctionTable":
        """Multiply pointwise by the character e_p(alpha . x)."""
        alpha = np.asarray(alpha, dtype=np.int64) % self.p
        if alpha.shape != (self.n,):
            raise ValidationError("character frequency has wrong arity")
        digits = digit_table(self.p, self.n)
        phases = np.exp(2j * np.pi * ((digits @ alpha) % self.p) / self.p)
        return FunctionTable(self.p, self.n, self.values * phases)

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

    # -- interchange --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "function-table",
            "p": self.p,
            "n": self.n,
            "codomain": self.codomain,
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([f"x{i + 1}" for i in range(self.n)] + ["re", "im"])
        digits = digit_table(self.p, self.n)
        for row, v in zip(digits, self.values):
            writer.writerow([int(d) for d in row] + [repr(float(v.real)), repr(float(v.imag))])
        return out.getvalue()


def phase_table(P: Polynomial) -> FunctionTable:
    """e_p(P): the phase function of a polynomial."""
    vals = np.exp(2j * np.pi * P.value_table() / P.p)
    return FunctionTable(P.p, P.n, vals)


def character_table(p: int, n: int, alpha) -> FunctionTable:
    return FunctionTable.constant(p, n, 1.0).modulate(alpha)


def random_unit_table(p: int, n: int, seed=0) -> FunctionTable:
    """Uniform phases on the unit circle."""
    rng = as_rng(seed)
    angles = rng.random(space_size(p, n)) * 2 * np.pi
    return FunctionTable(p, n, np.exp(1j * angles))


def random_real_table(p: int, n: int, seed=0, low=-1.0, high=1.0) -> FunctionTable:
    rng = as_rng(seed)
    vals = rng.random(space_size(p, n)) * (high - low) + low
    return FunctionTable(p, n, vals, codomain="real")


def random_sign_table(p: int, n: int, seed=0) -> FunctionTable:
    rng = as_rng(seed)
    vals = rng.choice(np.array([-1.0, 1.0]), size=space_size(p, n))
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


def parse_function_table(source) -> FunctionTable:
    """Read a table from a JSON string or an already-decoded dict.

    The schema version is mandatory; structural problems carry a JSON
    pointer to the offending element.
    """
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from exc
    else:
        obj = source
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
    if not isinstance(obj["values"], list):
        raise FormatError("values must be an array", pointer="/values")
    values = [
        _parse_value(entry, f"/values/{i}") for i, entry in enumerate(obj["values"])
    ]
    try:
        return FunctionTable(obj["p"], obj["n"], values, codomain)
    except ValidationError as exc:
        raise FormatError(str(exc), pointer="/values") from exc


def parse_function_table_csv(text: str, p: int, n: int) -> FunctionTable:
    """Inverse of FunctionTable.to_csv for a known (p, n)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty CSV") from None
    expected = [f"x{i + 1}" for i in range(n)] + ["re", "im"]
    if header != expected:
        raise FormatError(f"CSV header must be {expected}")
    check_budget(space_size(p, n), None, "table parse")
    values = np.zeros(space_size(p, n), dtype=np.complex128)
    seen = np.zeros(space_size(p, n), dtype=bool)
    places = place_values(p, n)
    for row_num, row in enumerate(reader, start=2):
        if len(row) != n + 2:
            raise FormatError(f"row {row_num} has {len(row)} fields, expected {n + 2}")
        try:
            digits = [int(v) % p for v in row[:n]]
            value = complex(float(row[n]), float(row[n + 1]))
        except ValueError as exc:
            raise FormatError(f"row {row_num}: {exc}") from exc
        idx = int(np.dot(digits, places))
        if seen[idx]:
            raise FormatError(f"row {row_num} repeats a point")
        seen[idx] = True
        values[idx] = value
    if not seen.all():
        raise FormatError(f"{int((~seen).sum())} points missing from CSV")
    return FunctionTable(p, n, values)


def dirac_table(p: int, n: int, point) -> FunctionTable:
    """Indicator of a single point (not normalised)."""
    point = tuple(int(v) % p for v in point)
    vals = np.zeros(space_size(p, n), dtype=np.complex128)
    idx = int(np.dot(point, place_values(p, n)))
    vals[idx] = 1.0
    return FunctionTable(p, n, vals, codomain="real")


def exponential(p: int, value: complex | float | int) -> complex:
    """e_p(m) = exp(2 pi i m / p) for integer m (residues accepted)."""
    return cmath.exp(2j * cmath.pi * (int(value) % p) / p)
