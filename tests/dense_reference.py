"""Dense transition matrices: the tests' reference for the row-based checks.

forge reads P_k as its table rows only.  This module builds the same
matrices densely, as tuples of Fractions with per-row exactness and
completeness flags, so that the tests can recompute every verdict by
plain matrix arithmetic and compare.  Row i of P_k is the table row
x_k o x_i, read through StructureTable.row; nothing here uses forge's
matrix code.

Row-vector convention: (xi P)_j = sum_i xi_i P[i][j].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from forge.errors import BadParameter, ForgeError

ZERO = Fraction(0)


class DimensionMismatch(ForgeError):
    """Vector length does not match matrix dimension."""


@dataclass(frozen=True)
class TransitionMatrix:
    """Dense matrix with per-row exactness and completeness flags.

    row_exact[i]: every stored entry equals the ambient value (nothing
    outside the window contributed to it).  row_complete[i]: row_exact
    and the ambient row's support lies inside the matrix, so the visible
    mass sums to 1.  Exact rows may be compared entrywise; complete rows
    additionally support mass and support-size arguments.
    """

    k: int | None
    dim: int
    entries: tuple
    row_exact: tuple
    row_complete: tuple
    truncated: bool
    label: str = ""

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def support_row(self, i: int) -> tuple[int, ...]:
        return tuple(j for j, w in enumerate(self.entries[i]) if w)

    def support_col(self, j: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.dim) if self.entries[i][j])


def transition_matrix(table, k: int) -> TransitionMatrix:
    """P_k with entry(i,j) = p[k,i][j] for i, j up to the table bound.
    A k past the bound raises IndexOutOfRange, from table.row."""
    rows = [table.row(k, i) for i in table.indices]
    dim = len(rows)
    entries = tuple(tuple(row.coefficient(j) for j in range(dim)) for row in rows)
    return TransitionMatrix(
        k,
        dim,
        entries,
        tuple(True for _ in range(dim)),
        tuple(row.support[-1] <= table.bound for row in rows),
        table.truncated,
        label=f"P_{k}",
    )


def matmul(a: TransitionMatrix, b: TransitionMatrix) -> TransitionMatrix:
    """Exact product with flag propagation.

    Row i of the product is exact when row i of a is complete (so no
    unseen column feeds it) and every contributing row of b is exact;
    it is complete when additionally no mass leaves the matrix.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim} x {b.dim}")
    dim = a.dim
    entries = []
    exact = []
    complete = []
    for i in range(dim):
        arow = a.entries[i]
        acc = [ZERO] * dim
        ok = a.row_complete[i]
        for c, w in enumerate(arow):
            if not w:
                continue
            ok = ok and b.row_exact[c]
            brow = b.entries[c]
            for j in range(dim):
                if brow[j]:
                    acc[j] += w * brow[j]
        entries.append(tuple(acc))
        exact.append(ok)
        complete.append(ok and sum(acc, ZERO) == 1)
    return TransitionMatrix(
        None,
        dim,
        tuple(entries),
        tuple(exact),
        tuple(complete),
        a.truncated or b.truncated,
        label=f"{a.label}{b.label}",
    )


def matrix_combination(terms) -> TransitionMatrix:
    """Sum of weight * matrix, with flags intersected per row."""
    terms = [(Fraction(w), m) for w, m in terms]
    if not terms:
        raise BadParameter("empty combination")
    dim = terms[0][1].dim
    entries = []
    exact = []
    complete = []
    for i in range(dim):
        acc = [ZERO] * dim
        ok_exact = True
        ok_complete = True
        for w, m in terms:
            if m.dim != dim:
                raise DimensionMismatch(f"{m.dim} != {dim}")
            ok_exact = ok_exact and m.row_exact[i]
            ok_complete = ok_complete and m.row_complete[i]
            for j in range(dim):
                if m.entries[i][j]:
                    acc[j] += w * m.entries[i][j]
        entries.append(tuple(acc))
        exact.append(ok_exact)
        complete.append(ok_complete)
    truncated = any(m.truncated for _, m in terms)
    return TransitionMatrix(
        None, dim, tuple(entries), tuple(exact), tuple(complete), truncated
    )


def apply(p: TransitionMatrix, xi) -> tuple:
    """Row-vector action: (xi P)_j = sum_i xi_i P[i][j]."""
    xi = tuple(xi)
    if len(xi) != p.dim:
        raise DimensionMismatch(f"vector length {len(xi)} != dim {p.dim}")
    out = []
    for j in range(p.dim):
        out.append(sum((xi[i] * p.entries[i][j] for i in range(p.dim) if xi[i]), ZERO))
    return tuple(out)
