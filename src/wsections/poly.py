"""The exact determinant engine and the polynomial value it returns.

Variables are 1-based index pairs (i, j) standing for the coordinate x[i,j];
a monomial is a tuple of ((i, j), exponent) items sorted by variable, and a
Polynomial maps monomials to nonzero arbitrary-precision integer
coefficients.  The zero polynomial is the empty mapping.  A Polynomial is a
value to read (terms, degree, top term, string); nothing here adds or
multiplies two of them.  It holds one form, whoever builds it: the sorted
items, each monomial as the tuple of its items' numbers with its
coefficient, in sorted order, and the least and greatest degree.  Nothing
here is floating point and nothing truncates: exactness is the contract.

Determinants of matrices whose entries are integers or single variables have
one engine at every size and in both modes: a sparse Laplace expansion
tabulated over the sets of columns left free, where each set records how
many completions reach it and the cells that lead there, then a walk along
those cells whose leaves are the permutations' signed monomials.  Full mode
keeps every cell and sums the leaves that share a monomial.  Top mode, which
the generic invariants use, keeps only the cells of top degree, and its
leaves never merge: it is exact when no two permutations share a monomial,
which it checks first, and it fills the value's form from its walk
directly; full mode hands its summed terms to the constructor.
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

    A value has one form: its sorted (variable, exponent) items, the number
    tuple of each monomial over those items with its coefficient, sorted
    (numbers sort as the items do, so this is sorted_terms() order), and its
    least and greatest degree.  The constructor numbers the terms it is
    given; det's top mode fills the form directly.  is_zero(), degree() and
    a homogeneous value's top_term() read the degrees, to_string() renders
    from the numbers, and terms builds the monomial dict on first read and
    keeps it."""

    __slots__ = ("_items", "_pairs", "_low", "_high", "_terms")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        terms = [(mono, c) for mono, c in (terms or {}).items() if c != 0]
        self._items = items = sorted({item for mono, _ in terms for item in mono})
        number = dict(zip(items, range(len(items)))).__getitem__
        self._pairs = sorted([(tuple(map(number, mono)), c) for mono, c in terms])
        degrees = [sum(map(_EXPONENT, mono)) for mono, _ in terms] or [-1]
        self._low, self._high = min(degrees), max(degrees)
        self._terms: dict[Monomial, int] | None = None

    @property
    def terms(self) -> dict[Monomial, int]:
        """The monomial -> coefficient dict, in sorted_terms() order; built on first read."""
        if self._terms is None:
            items = self._items
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
        """Maximal total exponent; -1 for the zero polynomial."""
        return self._high

    def top_term(self) -> "Polynomial":
        """Homogeneous component of maximal total degree."""
        if not self._pairs:
            raise UndefinedGradingError("the zero polynomial has no top term")
        if self._low == self._high:
            return self  # already homogeneous; a Polynomial is never changed
        best = self._high
        return Polynomial({m: c for m, c in self.terms.items() if sum(map(_EXPONENT, m)) == best})

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return list(self.terms.items())

    def to_string(self) -> str:
        if not self._pairs:
            return "0"
        # Each item is named once; a monomial joins its names by number, hashing nothing.
        names = [f"x[{i},{j}]" + (f"^{e}" if e > 1 else "") for (i, j), e in self._items].__getitem__
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

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


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
    leaves are the value's numbered form as they stand: the matrix's sorted
    variables (a variable no top monomial uses is numbered but never named),
    the sorted leaf number tuples with their coefficients, and the best
    degree as both least and greatest degree (-1 when no permutation
    survives).  Its leaves must never merge, so top mode first checks that
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
        p = Polynomial.__new__(Polynomial)
        p._items, p._pairs, p._terms = [(var, 1) for var in names], sorted(leaves.items()), None
        p._low = p._high = best
        return p
    terms = {}
    for key, c in leaves.items():
        if c:  # a run of one number in a sorted leaf is one variable and its exponent
            terms[tuple([(names[k], len(list(run))) for k, run in groupby(key)])] = c
    return Polynomial(terms)


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
