"""The exact determinant engine and the polynomial value it returns.

Variables are 1-based index pairs (i, j) standing for the coordinate x[i,j];
a monomial is a tuple of ((i, j), 1) items sorted by variable, and a
Polynomial maps monomials to nonzero arbitrary-precision integer
coefficients.  The zero polynomial is the empty mapping.  det accepts only
matrices whose variables are distinct, so every value is squarefree.  A
Polynomial is a value to read (terms, degree, top term, string) that only
det builds; nothing here adds or multiplies two of them.  It holds one form:
the matrix's sorted variables, each monomial as the sorted tuple of its
variables' numbers with its coefficient, in sorted order, and the least and
greatest degree (a tuple's length).  Nothing here is floating point and
nothing truncates: exactness is the contract.

Determinants of matrices whose entries are integers or single variables have
one engine at every size and in both modes: a sparse Laplace expansion
tabulated over the sets of columns left free, where each set records how
many completions reach it and the cells that lead there, then a walk along
those cells whose leaves are the permutations' signed monomials.  Full mode
keeps every cell and sums the leaves that share a monomial.  Top mode, which
the generic invariants use, keeps only the cells of top degree, and its
leaves never merge: it is exact when no two permutations share a monomial,
which it checks first.  Both modes fill the value's form from their leaves.
A determinant whose column sets and completions would outgrow MEMO_BUDGET
raises ResourceLimitError rather than exhaust memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .errors import InternalError, InvalidInputError, ResourceLimitError, UndefinedGradingError

Var = tuple[int, int]
Monomial = tuple[tuple[Var, int], ...]
Entry = Union[int, Var]

_ONE: Monomial = ()


class Polynomial:
    """Squarefree integer polynomial in x[i,j] variables, read but never combined.

    One form: the sorted variables, each monomial's number tuple over them
    with its coefficient, sorted (numbers sort as the variables do, so this
    is sorted_terms() order), and the least and greatest degree.  Only det
    builds one; there is no public constructor.  Every reading but terms
    uses the form alone; terms builds the monomial dict once and keeps it."""

    __slots__ = ("_vars", "_pairs", "_low", "_high", "_terms")

    def __init__(self, *args, **kwargs):
        raise TypeError("a Polynomial is built only by det")

    @property
    def terms(self) -> dict[Monomial, int]:
        """The monomial -> coefficient dict, in sorted_terms() order; built on first read."""
        if self._terms is None:
            items = [(var, 1) for var in self._vars]
            self._terms = {tuple([items[k] for k in nums]): c for nums, c in self._pairs}
        return self._terms

    def is_zero(self) -> bool:
        return not self._pairs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({_ONE: other} if other else {})
        return NotImplemented

    def degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        return self._high

    def top_term(self) -> "Polynomial":
        """Homogeneous component of maximal total degree."""
        if not self._pairs:
            raise UndefinedGradingError("the zero polynomial has no top term")
        if self._low == self._high:
            return self  # already homogeneous; a Polynomial is never changed
        high = self._high
        return _value(self._vars, [p for p in self._pairs if len(p[0]) == high], high, high)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return list(self.terms.items())

    def to_string(self) -> str:
        if not self._pairs:
            return "0"
        # Each variable is named once; a monomial joins its names by number, hashing nothing.
        names = [f"x[{i},{j}]" for i, j in self._vars].__getitem__
        pieces = []
        for nums, coeff in self._pairs:
            if not nums:
                body = str(abs(coeff))
            else:
                body = "*".join(map(names, nums))
                if abs(coeff) != 1:
                    body = f"{abs(coeff)}*{body}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    __str__ = to_string

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


def _value(
    names: list[Var], pairs: list[tuple[tuple[int, ...], int]], low: int, high: int
) -> Polynomial:
    """The Polynomial of one form: sorted variables, sorted nonzero (number
    tuple, coefficient) pairs, least and greatest degree (-1 for zero)."""
    p = Polynomial.__new__(Polynomial)
    p._vars, p._pairs, p._low, p._high, p._terms = names, pairs, low, high, None
    return p


@dataclass(frozen=True)
class SymbolicMatrix:
    """Square matrix of ints and single variables (i, j) of two ints; nothing else, no bool."""

    rows: tuple[tuple[Entry, ...], ...]

    def __post_init__(self) -> None:
        try:
            rows = tuple(map(tuple, self.rows))  # a tuple row is kept as it is
        except TypeError:
            raise InvalidInputError("matrix rows must be sequences of cells") from None
        m = len(rows)
        if m == 0:
            raise InvalidInputError("matrix must have positive size")
        for row in rows:
            if len(row) != m:
                raise InvalidInputError("matrix must be square")
            for cell in row:
                if cell.__class__ is not int and not (
                    cell.__class__ is tuple and len(cell) == 2 and cell[0].__class__ is cell[1].__class__ is int
                ):
                    raise InvalidInputError(f"matrix cell {cell!r} is neither an int nor a pair of ints")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)


MEMO_BUDGET = 1 << 20  # column sets plus completions one determinant may tabulate


def det(matrix: SymbolicMatrix, *, top: bool = False) -> Polynomial:
    """Exact symbolic determinant by sparse Laplace expansion.

    Rows are expanded sparsest first, over every set of columns the rows
    above can leave free.  From the last row up, each column set records how
    many completions the rows below have on it and the cells that lead
    there; a cell whose next column set has a single cell takes that forced
    step at once.  A walk on an explicit stack then follows the cells from
    the full column set, and each leaf is one permutation's signed monomial.
    Raises ResourceLimitError once the column sets and completions tabulated
    for this determinant exceed MEMO_BUDGET.

    The matrix's variables must be distinct, so every monomial is
    squarefree; a repeated variable raises InvalidInputError in either mode.
    Both modes fill one numbered form: the matrix's sorted variables (one no
    monomial uses is numbered but never named), the sorted leaf number
    tuples with their nonzero coefficients, and the least and greatest leaf
    length as the degrees (-1 when no term survives).

    Full mode keeps every cell with a completion, so the completions count
    permutations.  Leaves that share a monomial are summed and zeros
    dropped: cancellation stays exact.

    With top=True only the homogeneous component of maximal total degree is
    expanded: each column set also records its rows' best degree and keeps
    only the tight cells, those that reach it, and their completions.  Its
    leaves must never merge, so top mode first checks that no row holds two
    nonzero constants, and raises InternalError otherwise.
    """
    m = matrix.size
    nonzero = [[(c, cell) for c, cell in enumerate(row) if cell != 0] for row in matrix.rows]
    # Number the variables in sorted order: a leaf sorts small ints, and the
    # numbers sort as the variables do.
    variables = [cell for row in nonzero for _, cell in row if cell.__class__ is not int]
    names = sorted(set(variables))
    if len(names) < len(variables):
        raise InvalidInputError("a variable repeats in the matrix")
    if top and any(sum(cell.__class__ is int for _, cell in row) > 1 for row in nonzero):
        raise InternalError("top mode: a row holds two nonzero constants")
    number = dict(zip(names, range(len(names))))
    order = sorted(range(m), key=lambda r: (len(nonzero[r]), r))
    rows = [nonzero[r] for r in order]
    free = [{(1 << m) - 1}]
    held = 1
    for row in rows[:-1]:
        free.append({mask ^ 1 << c for mask in free[-1] for c, _ in row if mask >> c & 1})
        held += len(free[-1])
        _check_budget(held, m)
    # reach[mask]: (best degree of the rows below on mask, completions reaching it,
    # cells (the cells to follow next or None at the end, multiplier, numbers)).
    # A variable raises the degree in top mode only, so full mode keeps every cell.
    var_rise = int(top)
    reach: dict[int, tuple] = {0: (0, 1, None)}
    for row, masks in zip(reversed(rows), reversed(free)):
        # Each cell once: (bit, lower bits, rise, multiplier, numbers).
        row_cells = [
            (1 << c, (1 << c) - 1)
            + ((0, cell, ()) if isinstance(cell, int) else (var_rise, 1, (number[cell],)))
            for c, cell in row
        ]
        table = {}
        for mask in masks:
            best, count, cells = -1, 0, []
            for bit, low, rise, mult, own in row_cells:
                if mask & bit:
                    degree, n, sub = reach[mask ^ bit]
                    degree += rise
                    if not n or degree < best:
                        continue
                    if degree > best:
                        best, count, cells = degree, 0, []
                    if sub and len(sub) == 1:  # a forced step below: take it here
                        sub, sub_mult, sub_own = sub[0]
                        mult, own = mult * sub_mult, own + sub_own
                    # Moving column c to the front passes the free columns below it.
                    odd = (mask & low).bit_count() & 1
                    cells.append((sub, -mult if odd else mult, own))
                    count += n
            table[mask] = best, count, cells
            held += count
            _check_budget(held, m)
        reach = table
    best, _, cells = reach[(1 << m) - 1]
    leaves: dict[tuple, int] = {}
    stack = [(cells, _permutation_sign(order), ())]
    while stack:
        cells, coeff, nums = stack.pop()
        for sub, mult, own in cells:
            if sub is None:
                key = tuple(sorted(nums + own))
                leaves[key] = leaves.get(key, 0) + coeff * mult
            else:
                stack.append((sub, coeff * mult, nums + own))
    # Squarefree leaves: sorting their number tuples is sorted_terms() order.
    if top:  # top leaves never merge, so none is zero, and all have the best degree
        return _value(names, sorted(leaves.items()), best, best)
    pairs = sorted((k, c) for k, c in leaves.items() if c)
    degrees = [len(k) for k, _ in pairs] or [-1]
    return _value(names, pairs, min(degrees), max(degrees))


def _check_budget(held: int, size: int) -> None:
    if held > MEMO_BUDGET:
        raise ResourceLimitError(
            f"determinant of size {size} needs more than {MEMO_BUDGET} table entries"
        )


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
