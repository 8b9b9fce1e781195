"""The exact determinant engine and the polynomial value it returns.

Variables are 1-based index pairs (i, j) standing for the coordinate x[i,j];
a monomial is a tuple of ((i, j), exponent) items sorted by variable, and a
Polynomial maps monomials to nonzero arbitrary-precision integer
coefficients.  The zero polynomial is the empty mapping.  A Polynomial is a
value to read (terms, degree, top term, string); nothing here adds or
multiplies two of them.  Nothing here is floating point and nothing
truncates: exactness is the contract.

Determinants of matrices whose entries are integers or single variables have
one engine at every size and in both modes: a sparse Laplace expansion
tabulated over the sets of columns left free, where each set records how
many completions reach it and the cells that lead there, then a walk along
those cells whose leaves are the permutations' signed monomials.  Full mode
keeps every cell and sums the leaves that share a monomial.  Top mode, which
the generic invariants use, keeps only the cells of top degree, and its
leaves never merge: it is exact when no two permutations share a monomial,
which it checks first.  Its value keeps the sorted variables and the sorted
number tuples of its monomials, with the degree recorded: the string renders
from the numbers, the terms dict is built on first read, and reading the top
term, the degree or the string re-grades and builds nothing.
A determinant whose column sets and completions would outgrow MEMO_BUDGET
raises ResourceLimitError rather than exhaust memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping, Union

from .errors import InternalError, InvalidInputError, ResourceLimitError, UndefinedGradingError

Var = tuple[int, int]
Monomial = tuple[tuple[Var, int], ...]
Entry = Union[int, Var]

_ONE: Monomial = ()
_EXPONENT = itemgetter(1)


class Polynomial:
    """Sparse integer polynomial in x[i,j] variables, read but never combined.

    A result of det's top mode keeps what its walk found: the sorted
    variables and the sorted number tuples of its monomials, with their
    coefficients.  It records its degree, which is_zero(), degree() and
    top_term() read in constant time; to_string() renders from the numbers,
    and terms builds the monomial dict on first read and keeps it."""

    __slots__ = ("_terms", "_top", "_numbered")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms: dict[Monomial, int] | None = {m: c for m, c in (terms or {}).items() if c != 0}
        self._top: int | None = None  # degree of a homogeneous result; only det sets it
        self._numbered: tuple | None = None  # (items, sorted (numbers, coeff)); only det sets it

    @property
    def terms(self) -> dict[Monomial, int]:
        """The monomial -> coefficient dict; a top-mode value builds it on first read."""
        if self._terms is None:
            items, pairs = self._numbered
            self._terms = {tuple([items[k] for k in nums]): c for nums, c in pairs}
        return self._terms

    def is_zero(self) -> bool:
        return self._top < 0 if self._top is not None else not self._terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({_ONE: other} if other else {})
        return NotImplemented

    def degree(self) -> int:
        """Maximal total exponent; -1 for the zero polynomial."""
        if self._top is not None:
            return self._top
        if not self._terms:
            return -1
        return max([sum(map(_EXPONENT, m)) for m in self._terms])

    def top_term(self) -> "Polynomial":
        """Homogeneous component of maximal total degree."""
        if self.is_zero():
            raise UndefinedGradingError("the zero polynomial has no top term")
        if self._top is not None:
            return self  # det's top mode: homogeneous already
        degrees = [sum(map(_EXPONENT, m)) for m in self._terms]
        best = max(degrees)
        if min(degrees) == best:
            return self  # already homogeneous; a Polynomial is never changed
        return Polynomial({m: c for (m, c), d in zip(self._terms.items(), degrees) if d == best})

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items())

    def to_string(self) -> str:
        items, pairs = self._numbered or _number(self._terms)
        if not pairs:
            return "0"
        # Each item is named once; a monomial joins its names by number, hashing nothing.
        names = [f"x[{i},{j}]" + (f"^{e}" if e > 1 else "") for (i, j), e in items].__getitem__
        pieces = []
        for nums, coeff in pairs:
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

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


def _number(terms: dict[Monomial, int]) -> tuple[list, list]:
    """Number the (variable, exponent) items in sorted order; the monomials'
    number tuples then sort as the monomials do."""
    items = sorted({item for mono in terms for item in mono})
    number = {item: k for k, item in enumerate(items)}
    return items, sorted((tuple([number[item] for item in mono]), c) for mono, c in terms.items())


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

    Full mode keeps every cell with a completion, so the completions count
    permutations.  Leaves that share a monomial are summed, zeros dropped,
    and a variable a leaf meets k times gets exponent k: cancellation and
    powers stay exact.

    With top=True only the homogeneous component of maximal total degree is
    expanded: each column set also records its rows' best degree and keeps
    only the tight cells, those that reach it, and their completions.  The
    result keeps the sorted variables and the sorted leaf number tuples with
    their coefficients, renders its string from them, builds terms (in
    sorted_terms() order) only on first read, and records its degree (-1
    when no permutation survives), which is_zero(), degree() and top_term()
    then read.  Its leaves must never merge, so top mode first checks that
    no variable appears twice and no row holds two nonzero constants, and
    raises InternalError otherwise.
    """
    m = matrix.size
    nonzero = [[(c, cell) for c, cell in enumerate(row) if cell != 0] for row in matrix.rows]
    if top:
        # Each variable, and each row's nonzero constant, may occur once.
        keys = [r if isinstance(x, int) else x for r, row in enumerate(nonzero) for _, x in row]
        if len(set(keys)) < len(keys):
            raise InternalError("top mode: a variable repeats or a row holds two constants")
    order = sorted(range(m), key=lambda r: (len(nonzero[r]), r))
    rows = [nonzero[r] for r in order]
    free = [{(1 << m) - 1}]
    held = 1
    for row in rows[:-1]:
        free.append({mask ^ 1 << c for mask in free[-1] for c, _ in row if mask >> c & 1})
        held += len(free[-1])
        _check_budget(held, m)
    # Number the variables in sorted order: a leaf sorts small ints, and the
    # numbers sort as the variables do.
    names = sorted({cell for row in rows for _, cell in row if not isinstance(cell, int)})
    number = dict(zip(names, range(len(names))))
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
    if top:
        # Squarefree monomials of one degree: sorting their numbers is sorted_terms() order.
        return _value(None, best, ([(var, 1) for var in names], sorted(leaves.items())))
    terms = {}
    for key, c in leaves.items():
        if c:  # a run of one number in a sorted leaf is one variable and its exponent
            terms[tuple([(names[k], len(list(run))) for k, run in groupby(key)])] = c
    return _value(terms)


def _value(
    terms: dict[Monomial, int] | None, top: int | None = None, numbered: tuple | None = None
) -> Polynomial:
    """A Polynomial on det's own nonzero terms, or on its top mode's numbers,
    without __init__'s copy and filter."""
    p = Polynomial.__new__(Polynomial)
    p._terms, p._top, p._numbered = terms, top, numbered
    return p


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
