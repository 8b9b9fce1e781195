"""Exact sparse multivariate polynomials over integer matrix coordinates.

Variables are 1-based index pairs (i, j) standing for the coordinate x[i,j];
a monomial is a tuple of ((i, j), exponent) items sorted by variable, and a
polynomial maps monomials to nonzero arbitrary-precision integer
coefficients.  The zero polynomial is the empty mapping.  Nothing here is
floating point and nothing truncates: exactness is the contract.

Determinants of matrices whose entries are integers or single variables are
computed by sparse Laplace expansion memoized over column subsets, falling
back to fraction-free elimination over the polynomial ring for large, mostly
constant matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import InternalError, InvalidInputError, UndefinedGradingError

Var = tuple[int, int]
Monomial = tuple[tuple[Var, int], ...]
Entry = Union[int, Var]

_ONE: Monomial = ()


def _make_monomial(powers: Mapping[Var, int]) -> Monomial:
    return tuple(sorted((v, e) for v, e in powers.items() if e != 0))


class Polynomial:
    """Sparse integer polynomial in x[i,j] variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def const(cls, c: int) -> "Polynomial":
        return cls({_ONE: c})

    @classmethod
    def x(cls, i: int, j: int) -> "Polynomial":
        return cls({(((i, j), 1),): 1})

    @classmethod
    def variable(cls, var: Var) -> "Polynomial":
        return cls({((tuple(var), 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == Polynomial.const(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            return Polynomial({m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise InvalidInputError("negative powers are not defined")
        result = Polynomial.const(1)
        for _ in range(k):
            result = result * self
        return result

    def degree(self) -> int:
        """Maximal total exponent; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e for _, e in m) for m in self.terms)

    def top_term(self) -> "Polynomial":
        """Homogeneous component of maximal total degree."""
        if not self.terms:
            raise UndefinedGradingError("the zero polynomial has no top term")
        d = self.degree()
        return Polynomial({m: c for m, c in self.terms.items() if sum(e for _, e in m) == d})

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items())

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms():
            factors = [f"x[{i},{j}]" + (f"^{e}" if e > 1 else "") for (i, j), e in mono]
            if not factors:
                body = str(abs(coeff))
            else:
                body = "*".join(factors)
                if abs(coeff) != 1:
                    body = f"{abs(coeff)}*{body}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    powers = dict(a)
    for v, e in b:
        powers[v] = powers.get(v, 0) + e
    return _make_monomial(powers)


def _mono_lex_key_cmp(a: Monomial, b: Monomial) -> int:
    """Lexicographic monomial order: lower variables weigh more."""
    da, db = dict(a), dict(b)
    for v in sorted(set(da) | set(db)):
        ea, eb = da.get(v, 0), db.get(v, 0)
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


def _leading(p: Polynomial) -> tuple[Monomial, int]:
    lead = None
    for m in p.terms:
        if lead is None or _mono_lex_key_cmp(m, lead) > 0:
            lead = m
    assert lead is not None
    return lead, p.terms[lead]


def divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f / g; raises InternalError when g does not divide f."""
    if g.is_zero():
        raise InternalError("division by the zero polynomial")
    quotient: dict[Monomial, int] = {}
    rem = Polynomial(dict(f.terms))
    mg, cg = _leading(g)
    dg = dict(mg)
    while not rem.is_zero():
        mf, cf = _leading(rem)
        df = dict(mf)
        if cf % cg != 0 or any(df.get(v, 0) < e for v, e in dg.items()):
            raise InternalError("inexact polynomial division")
        qc = cf // cg
        qm = _make_monomial({v: e - dg.get(v, 0) for v, e in df.items()})
        quotient[qm] = quotient.get(qm, 0) + qc
        rem = rem - Polynomial({qm: qc}) * g
    return Polynomial(quotient)


@dataclass(frozen=True)
class SymbolicMatrix:
    """Square matrix whose entries are integers or single variables (i, j)."""

    rows: tuple[tuple[Entry, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.rows)
        if m == 0:
            raise InvalidInputError("matrix must have positive size")
        norm = []
        for row in self.rows:
            if len(row) != m:
                raise InvalidInputError("matrix must be square")
            cells = []
            for cell in row:
                if isinstance(cell, int):
                    cells.append(cell)
                else:
                    i, j = cell
                    cells.append((int(i), int(j)))
            norm.append(tuple(cells))
        object.__setattr__(self, "rows", tuple(norm))

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry_poly(self, r: int, c: int) -> Polynomial:
        cell = self.rows[r][c]
        if isinstance(cell, int):
            return Polynomial.const(cell)
        return Polynomial.variable(cell)


_ELIMINATION_THRESHOLD = 13


def det(matrix: SymbolicMatrix) -> Polynomial:
    """Exact symbolic determinant."""
    if matrix.size >= _ELIMINATION_THRESHOLD:
        return _det_fraction_free(matrix)
    return _det_expansion(matrix)


def _det_expansion(matrix: SymbolicMatrix) -> Polynomial:
    """Laplace expansion, sparsest rows first, memoized on column subsets."""
    m = matrix.size
    order = sorted(range(m), key=lambda r: (sum(1 for c in matrix.rows[r] if c != 0), r))
    sign = _permutation_sign(order)
    rows = [matrix.rows[r] for r in order]
    result = _expand(rows, 0, (1 << m) - 1, {})
    return result if sign == 1 else -result


def _expand(
    rows: list[tuple[Entry, ...]], depth: int, mask: int, memo: dict[int, Polynomial]
) -> Polynomial:
    """Determinant of rows[depth:] on the columns in mask, memoized on mask.

    A module-level function, not a closure: a closure that calls itself is a
    reference cycle, and it would keep the memo's polynomials alive until the
    cyclic garbage collector next runs instead of freeing them on return.
    """
    if depth == len(rows):
        return Polynomial.const(1)
    cached = memo.get(mask)
    if cached is not None:
        return cached
    total = Polynomial.zero()
    row = rows[depth]
    parity = 0
    for c in range(len(rows)):
        bit = 1 << c
        if not mask & bit:
            continue
        cell = row[c]
        if cell != 0:
            sub = _expand(rows, depth + 1, mask & ~bit, memo)
            if not sub.is_zero():
                term = sub * cell if isinstance(cell, int) else sub * Polynomial.variable(cell)
                total = total + (term if parity % 2 == 0 else -term)
        parity += 1
    memo[mask] = total
    return total


def _permutation_sign(perm: Iterable[int]) -> int:
    perm = list(perm)
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _det_fraction_free(matrix: SymbolicMatrix) -> Polynomial:
    """Bareiss elimination over the polynomial ring.

    Pivots prefer integer entries, then short polynomials; every division is
    exact by construction.
    """
    m = matrix.size
    a = [[matrix.entry_poly(r, c) for c in range(m)] for r in range(m)]
    sign = 1
    prev = Polynomial.const(1)
    for k in range(m - 1):
        pivot_row = _pick_pivot(a, k)
        if pivot_row is None:
            return Polynomial.zero()
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, m):
            row_i = a[i]
            if all(row_i[j].is_zero() for j in range(k, m)):
                continue
            lead = row_i[k]
            for j in range(k + 1, m):
                row_i[j] = divexact(pivot * row_i[j] - lead * a[k][j], prev)
            row_i[k] = Polynomial.zero()
        prev = pivot
    result = a[m - 1][m - 1]
    return result if sign == 1 else -result


def _pick_pivot(a: list[list[Polynomial]], k: int) -> int | None:
    best = None
    best_key = None
    for i in range(k, len(a)):
        cell = a[i][k]
        if cell.is_zero():
            continue
        is_const = 0 if cell.degree() == 0 else 1
        key = (is_const, len(cell.terms), i)
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best
