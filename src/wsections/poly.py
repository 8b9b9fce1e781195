"""Exact sparse multivariate polynomials over integer matrix coordinates.

Variables are 1-based index pairs (i, j) standing for the coordinate x[i,j];
a monomial is a tuple of ((i, j), exponent) items sorted by variable, and a
polynomial maps monomials to nonzero arbitrary-precision integer
coefficients.  The zero polynomial is the empty mapping.  Nothing here is
floating point and nothing truncates: exactness is the contract.

Determinants of matrices whose entries are integers or single variables have
one engine at every size: a sparse Laplace expansion tabulated over the sets
of columns left free, whose tables hold plain monomial -> coefficient dicts.
Its top mode, which the generic invariants use, keeps only the cofactors of
highest degree in every table; it is exact when no two permutations share a
monomial, which it checks first.  A determinant whose tables would outgrow
MEMO_BUDGET entries raises ResourceLimitError rather than exhaust memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import InternalError, InvalidInputError, ResourceLimitError, UndefinedGradingError

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

    def degree(self) -> int:
        """Maximal total exponent; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e for _, e in m) for m in self.terms)

    def top_term(self) -> "Polynomial":
        """Homogeneous component of maximal total degree."""
        if not self.terms:
            raise UndefinedGradingError("the zero polynomial has no top term")
        best, kept = -1, {}
        for m, c in self.terms.items():
            d = sum(e for _, e in m)
            if d > best:
                best, kept = d, {m: c}
            elif d == best:
                kept[m] = c
        return Polynomial(kept)

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


MEMO_BUDGET = 1 << 20  # column sets plus terms one determinant may tabulate


def det(matrix: SymbolicMatrix, *, top: bool = False) -> Polynomial:
    """Exact symbolic determinant by sparse Laplace expansion.

    Rows are expanded sparsest first.  For every set of columns the rows
    above can leave free, a table holds the minor of the remaining rows on
    those columns, as its degree and a monomial -> coefficient dict.  The
    tables are built from the last row up, and each is dropped once the row
    above has used it.  Raises ResourceLimitError once the column sets and
    terms tabulated for this determinant exceed MEMO_BUDGET.

    With top=True only the homogeneous component of maximal total degree is
    expanded: every table keeps the cofactors of its highest degree and
    skips the rest.  That is exact only when no two permutations share a
    monomial, so top mode first checks that no variable appears twice and
    no row holds two nonzero constants, and raises InternalError otherwise.
    """
    m = matrix.size
    # rise: the degree a cell adds to its cofactor, counted in top mode only.
    nonzero = [
        [(c, cell, top and not isinstance(cell, int)) for c, cell in enumerate(row) if cell != 0]
        for row in matrix.rows
    ]
    if top:
        # Each variable, and each row's nonzero constant, may occur once.
        keys = [cell if rise else r for r, row in enumerate(nonzero) for _, cell, rise in row]
        if len(set(keys)) < len(keys):
            raise InternalError("top mode: a variable repeats or a row holds two constants")
    order = sorted(range(m), key=lambda r: (len(nonzero[r]), r))
    rows = [nonzero[r] for r in order]
    free = [{(1 << m) - 1}]
    held = 1
    for row in rows[:-1]:
        free.append({mask ^ 1 << c for mask in free[-1] for c, _, _ in row if mask >> c & 1})
        held += len(free[-1])
        _check_budget(held, m)
    minors: dict[int, tuple[int, dict[Monomial, int]]] = {0: (0, {_ONE: 1})}
    for row, masks in zip(reversed(rows), reversed(free)):
        table = {}
        for mask in masks:
            best, total = -1, {}
            for c, cell, rise in row:
                bit = 1 << c
                if mask & bit:
                    degree, sub = minors[mask ^ bit]
                    if sub:
                        degree += rise
                        if degree < best:
                            continue
                        if degree > best:
                            best, total = degree, {}
                        # Moving column c to the front passes the free columns below it.
                        _add_product(total, sub, cell, (mask & (bit - 1)).bit_count() & 1)
            table[mask] = best, total
            held += len(total)
            _check_budget(held, m)
        minors = table
    terms = minors[(1 << m) - 1][1]
    if _permutation_sign(order) == -1:
        terms = {mono: -coeff for mono, coeff in terms.items()}
    return Polynomial(terms)


def _check_budget(held: int, size: int) -> None:
    if held > MEMO_BUDGET:
        raise ResourceLimitError(
            f"determinant of size {size} needs more than {MEMO_BUDGET} table entries"
        )


def _add_product(total: dict[Monomial, int], sub: dict[Monomial, int], cell: Entry, odd: int) -> None:
    """total += (-1)**odd * cell * sub, in place."""
    if isinstance(cell, int):
        factor = -cell if odd else cell
        if not total:
            total.update(sub if factor == 1 else {mono: k * factor for mono, k in sub.items()})
            return
        for mono, k in sub.items():
            s = total.get(mono, 0) + k * factor
            if s:
                total[mono] = s
            else:
                del total[mono]
        return
    last = ((cell, 1),)
    for mono, k in sub.items():
        mono = mono + last if not mono or mono[-1][0] < cell else _times_var(mono, cell)
        s = total.get(mono, 0) + (-k if odd else k)
        if s:
            total[mono] = s
        else:
            del total[mono]


def _times_var(mono: Monomial, var: Var) -> Monomial:
    """mono * var: a sorted insert, or one more power of a variable already there."""
    k = len(mono)
    while k and mono[k - 1][0] > var:
        k -= 1
    if k and mono[k - 1][0] == var:
        return mono[: k - 1] + ((var, mono[k - 1][1] + 1),) + mono[k:]
    return mono[:k] + ((var, 1),) + mono[k:]


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
