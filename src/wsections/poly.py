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
tabulated over sets of columns, where each row's table is pushed from the
table below and each set records how many completions reach it and the
cells that lead there, then a walk along those cells whose leaves are the
permutations' signed monomials.  Full mode expands the rows sparsest first,
keeps every cell and sums the leaves that share a monomial.
Top mode, which the generic invariants use, expands the rows in index order
and keeps only the cells of top degree, and its leaves never merge: it is
exact when no two permutations share a monomial, which it checks first.
When the variables' numbers grow row by row, as in every generic minor, its
leaves come out already sorted.  Both modes fill the value's form from their
leaves.  A determinant whose column sets and completions would outgrow
MEMO_BUDGET raises ResourceLimitError rather than exhaust memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import InvalidInputError, ResourceLimitError, UndefinedGradingError

Var = tuple[int, int]
Monomial = tuple[tuple[Var, int], ...]
Entry = Union[int, Var]


class Polynomial:
    """Squarefree integer polynomial in x[i,j] variables, read but never combined.

    One form: the sorted variables, each monomial's number tuple over them
    with its coefficient, sorted (numbers sort as the variables do, so this
    is sorted_terms() order), and the least and greatest degree.  Only det
    builds one; there is no public constructor.  Every reading but terms
    uses the form alone; terms builds the monomial dict once and keeps it.
    Two values compare, and hash, by identity: compare their terms."""

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

    From the last row up, each of a row's cells, in storage order, extends
    every column set of the table below that lacks its column.  So each set
    the rows below can fill records how many completions those rows have on
    it and the cells that lead there, in storage order; a cell whose set
    below has a single cell takes that forced step at once.  A walk on an
    explicit stack then follows the cells from the full column set, and
    each leaf is one permutation's signed monomial.  Raises
    ResourceLimitError once the column sets and completions tabulated for
    this determinant exceed MEMO_BUDGET.

    The matrix's variables must be distinct, so every monomial is
    squarefree; a repeated variable raises InvalidInputError in either mode.
    Both modes fill one numbered form: the matrix's sorted variables (one no
    monomial uses is numbered but never named), the sorted leaf number
    tuples with their nonzero coefficients, and the least and greatest leaf
    length as the degrees (-1 when no term survives).

    Full mode expands the rows sparsest first, keeps only the column sets
    the rows above can leave free, and keeps every cell, so the completions
    count permutations.  Leaves that share a monomial are summed and zeros
    dropped: cancellation stays exact.

    With top=True only the homogeneous component of maximal total degree is
    expanded: each column set also records its rows' best degree and keeps
    only the tight cells, those that reach it, and their completions.  Its
    leaves must never merge, so top mode first checks that no row holds two
    nonzero constants, and raises InvalidInputError otherwise.  It expands
    the rows in index order and walks each row's variables from the left,
    then its constant.  All its leaves have one degree, so when the
    matrix's variables, read row by row from the left, are already sorted,
    the leaves come out in sorted_terms() order and neither a leaf nor the
    leaves are sorted; otherwise each leaf and then all of them are sorted
    once.
    """
    m = len(matrix.rows)
    nonzero = [[(c, cell) for c, cell in enumerate(row) if cell] for row in matrix.rows]
    variables = [cell for row in nonzero for _, cell in row if cell.__class__ is tuple]
    names = sorted(variables)  # numbered in this order, so numbers sort as variables do
    number = {}
    if variables:
        number = dict(zip(names, range(len(names))))
        if len(number) < len(names):
            raise InvalidInputError("a variable repeats in the matrix")
    # Each row's cells as (bit, lower bits, rise, multiplier, numbers), stored
    # reversed for the walk's stack: the row's constant, then its variables
    # from the right.  A variable raises the degree in top mode only, so full
    # mode keeps every cell.
    var_rise = 1 if top else 0
    cells_of = []
    for row in nonzero:
        cells = [(1 << c, (1 << c) - 1, 0, cell, ()) for c, cell in row if cell.__class__ is int]
        if top and len(cells) > 1:
            raise InvalidInputError("top mode: a row holds two nonzero constants")
        cells += [
            (1 << c, (1 << c) - 1, var_rise, 1, (number[cell],))
            for c, cell in reversed(row) if cell.__class__ is tuple
        ]
        cells_of.append(cells)
    full = (1 << m) - 1
    rows, sign, held, keep_of = cells_of, 1, 0, [None] * m
    if not top:
        # Sparsest first, keeping only the column sets the rows above can leave free.
        lengths = [*map(len, cells_of)]
        if lengths != sorted(lengths):  # rows already sparsest first keep sign 1
            order = sorted(range(m), key=lengths.__getitem__)  # stable: ties by index
            rows, seen = [cells_of[r] for r in order], 0
            for r in order:  # the order's sign: the earlier rows of greater index
                if (seen >> r).bit_count() & 1:
                    sign = -sign
                seen |= 1 << r
        keep_of, held = [{full}], 1
        for row in rows[:-1]:
            bits = [cell[0] for cell in row]
            keep_of.append({mask ^ bit for mask in keep_of[-1] for bit in bits if mask & bit})
            held += len(keep_of[-1])
            _check_budget(held, m)
    # reach[mask]: [best degree of the rows below on mask, completions reaching it,
    # cells (the cells to follow next or None at the end, multiplier, numbers)].
    # Top mode counts a column set when first pushed, full mode above.  A
    # later, tighter cell may drop completions, so they count once a row is done.
    reach: dict[int, list] = {0: [0, 1, None]}
    for row, keep in zip(reversed(rows), reversed(keep_of)):
        table: dict[int, list] = {}
        count = 0
        for bit, low, rise, mult, own in row:
            for below, (degree, n, sub) in reach.items():
                mask = below | bit
                if mask == below or keep is not None and mask not in keep:
                    continue
                degree += rise
                entry = table.get(mask)
                if entry is None:
                    entry = table[mask] = [degree, 0, []]
                    held += top
                elif degree != entry[0]:
                    if degree < entry[0]:
                        continue
                    count -= entry[1]
                    entry[:] = degree, 0, []
                step, step_own = mult, own
                if sub and len(sub) == 1:  # a forced step below: take it here
                    sub, sub_mult, sub_own = sub[0]
                    step, step_own = mult * sub_mult, own + sub_own
                # Moving column c to the front passes the free columns below it.
                entry[2].append((sub, -step if (below & low).bit_count() & 1 else step, step_own))
                entry[1] += n
                count += n
            _check_budget(held, m)
        held += count
        _check_budget(held, m)
        reach = table
    # The walk pops each node's cells in reverse storage order: a row's
    # variables from the left, then its constant, and leaves in turn.  Top
    # leaves all have length best, so when the numbers grow row by row each
    # leaf is a sorted tuple, and a leaf that takes a row's constant, not a
    # variable there, has a later row's greater number in that place.
    best, _, cells = reach.get(full, (-1, 0, []))
    pairs: list[tuple[tuple[int, ...], int]] = []
    leaves: dict[tuple[int, ...], int] = {}
    stack = [(cells, sign, ())]
    while stack:
        cells, coeff, nums = stack.pop()
        if cells is not None:
            stack += [(sub, coeff * mult, nums + own) for sub, mult, own in cells]
        elif top:  # top leaves never merge, so none is zero
            pairs.append((nums, coeff))
        else:
            key = tuple(sorted(nums))
            leaves[key] = leaves.get(key, 0) + coeff
    if top:
        if variables != names:  # leaves out of order: sort each, then all
            pairs = sorted((tuple(sorted(k)), c) for k, c in pairs)
        return _value(names, pairs, best, best)
    pairs = sorted([item for item in leaves.items() if item[1]])
    degrees = [len(k) for k, _ in pairs] or [-1]
    return _value(names, pairs, min(degrees), max(degrees))


def _check_budget(held: int, size: int) -> None:
    if held > MEMO_BUDGET:
        raise ResourceLimitError(
            f"determinant of size {size} needs more than {MEMO_BUDGET} table entries"
        )
