"""Multivariate polynomials over F_p with per-variable exponents below p.

Monomials with exponents in [0, p) form a basis of the space of functions
F_p^n -> F_p, so every polynomial here *is* its function.  Degree of the
zero polynomial is -1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormatError, ValidationError, parse_at
from .field import (
    as_int, digit_table, digits, int_tuple, space_size, validate_dims, validate_prime,
)

Exponents = tuple[int, ...]


@lru_cache(maxsize=None)
def _power_table(p: int) -> np.ndarray:
    out = np.empty((p, p), dtype=np.int64)
    for d in range(p):
        for e in range(p):
            out[d, e] = pow(d, e, p) if (d, e) != (0, 0) else 1
    out.setflags(write=False)
    return out


def _monomial_column(points: np.ndarray, exps: Exponents, p: int) -> np.ndarray:
    # prod_i x_i^e_i mod p on reduced (m, n) points, one factor at a time
    pw = _power_table(p)
    t = np.ones(len(points), dtype=np.int64)
    for i, e in enumerate(exps):
        if e:
            t = (t * pw[points[:, i], e]) % p
    return t


@dataclass(frozen=True)
class Polynomial:
    """Immutable polynomial; ``terms`` maps exponent tuples to coefficients."""

    p: int
    n: int
    terms: dict[Exponents, int]

    def __post_init__(self):
        p, n = validate_dims(self.p, self.n)
        clean: dict[Exponents, int] = {}
        for exps, coeff in self.terms.items():
            exps = int_tuple(exps, "an exponent tuple")
            if len(exps) != n:
                raise ValidationError(f"exponent tuple {exps} has wrong arity")
            if any(e < 0 or e >= p for e in exps):
                raise ValidationError(f"exponents must lie in [0, {p}): {exps}")
            c = as_int(coeff, "a coefficient") % p
            if c:
                clean[exps] = c
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        d = self.degree
        return all(sum(e) == d for e in self.terms)

    def is_constant(self) -> bool:
        return self.degree <= 0

    @classmethod
    def zero(cls, p: int, n: int) -> "Polynomial":
        return cls(p, n, {})

    @classmethod
    def from_coefficients(cls, p: int, n: int, monomials, coeffs) -> "Polynomial":
        return cls(p, n, dict(zip(monomials, (int(c) for c in coeffs))))

    # -- arithmetic ----------------------------------------------------------

    def _check_same_space(self, other: "Polynomial"):
        if (self.p, self.n) != (other.p, other.n):
            raise ValidationError("polynomials live on different spaces")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_space(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = (terms.get(e, 0) + c) % self.p
        return Polynomial(self.p, self.n, terms)

    def scale(self, c: int) -> "Polynomial":
        return Polynomial(self.p, self.n, {e: c * v for e, v in self.terms.items()})

    def __hash__(self) -> int:
        # terms is a dict, which the generated hash could not hash
        return hash((self.p, self.n, tuple(sorted(self.terms.items()))))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x) -> int:
        x = tuple(int(v) % self.p for v in x)
        if len(x) != self.n:
            raise ValidationError("point dimension mismatch")
        total = 0
        for exps, c in self.terms.items():
            t = c
            for xi, e in zip(x, exps):
                if e:
                    t = t * pow(xi, e, self.p)
            total += t
        return total % self.p

    def value_table(self) -> np.ndarray:
        """Values on all of F_p^n in enumeration order."""
        return self.values_at(digit_table(self.p, self.n))

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (m, n) array of points."""
        pts = np.asarray(points, dtype=np.int64) % self.p
        vals = np.zeros(len(pts), dtype=np.int64)
        for exps, c in self.terms.items():
            vals = (vals + c * _monomial_column(pts, exps, self.p)) % self.p
        return vals

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial(p={self.p}, n={self.n}, {self.to_text()!r})"

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            factors = [str(c)]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, p: int, n: int, text: str) -> "Polynomial":
        terms: dict[Exponents, int] = {}
        text = text.strip()
        if text in ("", "0"):
            return cls(p, n, {})
        for part in text.split("+"):
            part = part.strip()
            exps = [0] * n
            coeff = 1
            saw_coeff = False
            for factor in part.split("*"):
                factor = factor.strip()
                m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor)
                if m:
                    i = int(m.group(1)) - 1
                    if not 0 <= i < n:
                        raise FormatError(f"variable x{i + 1} out of range in {part!r}")
                    exps[i] += int(m.group(2) or 1)
                elif re.fullmatch(r"\d+", factor):
                    coeff = coeff * int(factor)
                    saw_coeff = True
                else:
                    raise FormatError(f"cannot parse factor {factor!r}")
            if not saw_coeff and all(e == 0 for e in exps):
                raise FormatError(f"empty term {part!r}")
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        return cls(p, n, terms)

    def to_json_dict(self) -> dict:
        return {
            "schema": "fpuniform/v1",
            "kind": "polynomial",
            "p": self.p,
            "n": self.n,
            "terms": [
                {"exps": list(e), "coeff": self.terms[e]} for e in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Polynomial":
        try:
            p, n = obj["p"], obj["n"]
            raw = obj["terms"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"polynomial JSON missing field: {exc}") from exc
        p = parse_at("/p", validate_prime, p)
        n = parse_at("/n", validate_dims, p, n)[1]
        terms: dict[Exponents, int] = {}
        for i, t in enumerate(raw):
            try:
                exps = int_tuple(t["exps"], "exps")
                coeff = as_int(t["coeff"], "coeff")
            except (KeyError, TypeError, ValueError, ValidationError) as exc:
                raise FormatError(
                    f"bad term: {exc}", pointer=f"/terms/{i}"
                ) from exc
            terms[exps] = terms.get(exps, 0) + coeff
        return parse_at("/terms", cls, p, n, terms)


def monomials_up_to(p: int, n: int, d: int) -> list[Exponents]:
    """Exponent tuples (< p entrywise) of total degree ≤ d."""
    if d < 0:
        return []
    out: list[Exponents] = []

    def rec(prefix: list[int], remaining: int, budget_left: int):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(min(p - 1, budget_left) + 1):
            prefix.append(e)
            rec(prefix, remaining - 1, budget_left - e)
            prefix.pop()

    rec([], n, d)
    return sorted(out)


def monomial_values(p: int, points: np.ndarray, monos) -> np.ndarray:
    """The (points x monomials) table of each monomial's value at each point.

    A coefficient block times its transpose, mod p, gives the value tables
    of every polynomial in the block."""
    pts = np.asarray(points, dtype=np.int64) % p
    out = np.empty((len(pts), len(monos)), dtype=np.int64)
    for j, exps in enumerate(monos):
        out[:, j] = _monomial_column(pts, exps, p)
    return out


def value_block(p: int, points: np.ndarray, monos):
    """values(lo, hi): the (hi - lo, points) value tables Q_t(x) of the
    polynomials Q_t = sum_j t_j m_j over `monos`, t = lo..hi-1, whose
    coefficients t_j are the digits of t (field.digits: the first most
    significant): one coefficient block times the monomial table, mod p."""
    table = monomial_values(p, points, monos)
    return lambda lo, hi: digits(np.arange(lo, hi), p, len(monos)) @ table.T % p


def twisted_rows(values: np.ndarray, p: int, points: np.ndarray, monos):
    """rows(lo, hi): the (hi - lo, points) array of e_p(-Q_t(x)) * values(x)
    for the polynomials Q_t of value_block, t = lo..hi-1.

    At p = 2, e_2(-Q_t(x)) = (-1)^popcount(t & mask_x), where mask_x packs the
    monomials' values at x with the first monomial in the most significant
    bit, as field.digits orders the coefficients.  t and the masks are
    held in the narrowest unsigned type with a bit per monomial, and a row is
    the float64 words of `values` with the sign bit XOR-ed by the parity of
    t & mask_x (both words of a complex value): -v exactly, +-0.0 included,
    in the dtype of `values`.  At p > 2 a row is gathered from the p twists
    e_p(-c) * values by the value table of Q_t."""
    if p == 2:
        assert len(monos) < 63, "a coefficient vector is one int64 bit field"
        bits = np.min_scalar_type((1 << len(monos)) - 1)
        places = 1 << np.arange(len(monos))[::-1]
        masks = (monomial_values(2, points, monos) @ places).astype(bits)
        words = np.ascontiguousarray(values).view(np.uint64)
        complex_words = np.iscomplexobj(values)

        def rows(lo, hi):
            counts = np.bitwise_count(np.arange(lo, hi).astype(bits)[:, None] & masks)
            if complex_words:  # the real and imaginary word of each value, side by side
                counts = np.repeat(counts, 2, axis=1)
            flips = counts.astype(np.uint64)
            flips <<= 63  # the count's lowest bit, its parity, becomes the sign bit
            flips ^= words
            return flips.view(values.dtype)

        return rows
    from .tables import phases  # here, so that a rank search does not load tables

    value_tables = value_block(p, points, monos)
    twists = phases(p, np.arange(p), -1)[:, None] * values
    cols = np.arange(len(values))
    return lambda lo, hi: twists[value_tables(lo, hi), cols]


def family_size(p: int, n: int, d: int) -> int:
    """|Poly_d(F_p^n)| = p^(number of monomials)."""
    return p ** len(monomials_up_to(p, n, d))


def priced_family(p: int, n: int, degree: int, homogeneous: bool):
    """The parts of a Poly_d family on F_p^n as correlation_with_family scores
    them, the cost of scoring them all, the sum over parts of
    p^(#enumerated monomials) * p^n points, and the family's name for a
    budget message."""
    if degree < 1:
        raise ValidationError("degree must be >= 1")
    if degree > n * (p - 1):
        # reduced exponents stay below p coordinatewise, so total degree caps out
        raise ValidationError(f"no degree-{degree} monomials exist on F_{p}^{n}")
    monos = monomials_up_to(p, n, degree)
    if homogeneous:
        parts = [([], True)] + [
            ([e for e in monos if sum(e) == j], False) for j in range(2, degree + 1)
        ]
    else:
        parts = [([e for e in monos if sum(e) >= 2], True)]
    what = "homogeneous phase family" if homogeneous else "polynomial phase family"
    cost = sum(p ** len(upper) for upper, _ in parts) * space_size(p, n)
    return parts, cost, what
