"""Integer matrices, Smith normal form and finitely generated abelian groups.

All arithmetic is exact arbitrary-precision integer arithmetic.
`smith_normal_form` is the one elimination: it picks pivots of minimal
absolute value to limit entry growth and carries explicit unimodular
transforms along.  `cokernel` reads its diagonal.

Fundamental groups of orbits are computed in closed form from a voltage
graph (`cyclocone.orbits`), not here.  The Smith normal form is the
reference they are checked against: the `pi1` command computes both and
exits 3 if they differ, and the tests compare them mask by mask.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._frozen import Frozen


class IntMatrix(Frozen):
    """Immutable integer matrix; either dimension may be zero."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(int(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        self._assign(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None):
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        return cls(len(rows), cols, [e for r in rows for e in r])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int):
        columns = [list(c) for c in columns]
        if any(len(c) != rows for c in columns):
            raise ValueError(f"every column must have {rows} entries")
        return cls(
            rows,
            len(columns),
            [columns[j][i] for i in range(rows) for j in range(len(columns))],
        )

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self[i, i] for i in range(min(self.rows, self.cols)))

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}"
            )
        a, b = self.row_lists(), other.row_lists()
        out = [
            [sum(a[i][k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for i in range(self.rows)
        ]
        return IntMatrix.from_rows(out, cols=other.cols)

    def __repr__(self) -> str:
        return f"IntMatrix.from_rows({self.row_lists()!r}, cols={self.cols})"


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (U, D, V) with U*M*V = D diagonal, d1 | d2 | ... >= 0.

    Every row operation on M is also applied to U, and every column
    operation to V, both starting from the identity.
    """
    nr, nc = m.rows, m.cols
    a = m.row_lists()
    u = IntMatrix.identity(nr).row_lists()
    v = IntMatrix.identity(nc).row_lists()
    left, right = (a, u), (a, v)

    def add_row(i, k, q):
        # row i -= q * row k
        for x in left:
            x[i] = [e - q * f for e, f in zip(x[i], x[k])]

    def add_col(j, k, q):
        # col j -= q * col k
        for x in right:
            for row in x:
                row[j] -= q * row[k]

    for t in range(min(nr, nc)):
        while True:
            # Pivot of minimal absolute value in the trailing block.
            pivot = None
            best = 0
            for i in range(t, nr):
                for j in range(t, nc):
                    e = a[i][j]
                    if e != 0 and (pivot is None or abs(e) < best):
                        pivot, best = (i, j), abs(e)
            if pivot is None:
                break
            p, q = pivot
            if p != t:
                for x in left:
                    x[t], x[p] = x[p], x[t]
            if q != t:
                for x in right:
                    for row in x:
                        row[t], row[q] = row[q], row[t]
            # Clear row and column t; restart if a smaller remainder shows up.
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    add_row(i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    add_col(j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Pivot must divide every remaining entry, otherwise pull the
            # offending row up and run another euclidean round.
            offender = next(
                (
                    i
                    for i in range(t + 1, nr)
                    if any(a[i][j] % a[t][t] for j in range(t + 1, nc))
                ),
                None,
            )
            if offender is None:
                break
            add_row(t, offender, -1)
        if a[t][t] < 0:
            for x in left:
                x[t] = [-e for e in x[t]]
    return (
        IntMatrix.from_rows(u, cols=nr),
        IntMatrix.from_rows(a, cols=nc),
        IntMatrix.from_rows(v, cols=nc),
    )


class FGAbelianGroup(Frozen):
    """Finitely generated abelian group in invariant factor form.

    Stored as a free rank together with invariant factors d1 | d2 | ...,
    each at least 2; this canonical form makes equality of groups literal
    equality of the data.
    """

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: Iterable[int] = ()):
        factors = tuple(int(d) for d in invariant_factors)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for k, d in enumerate(factors):
            if d < 2:
                raise ValueError(f"invariant factors must be >= 2: {factors!r}")
            if k + 1 < len(factors) and factors[k + 1] % d != 0:
                raise ValueError(f"divisibility chain violated: {factors!r}")
        self._assign(int(free_rank), factors)

    def __repr__(self) -> str:
        return f"FGAbelianGroup({self.free_rank}, {self.invariant_factors!r})"

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "1"

    def to_json(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "invariant_factors": list(self.invariant_factors),
        }


def cokernel(m: IntMatrix) -> FGAbelianGroup:
    """Cokernel of Z^cols -> Z^rows, in invariant factor form.

    Read off the diagonal of smith_normal_form(m): its zeros, and the rows
    past its end, become free rank, and its unit entries are dropped.  A
    matrix with no columns has trivial image, so the cokernel is Z^rows.
    """
    diag = smith_normal_form(m)[1].diagonal()
    return FGAbelianGroup(
        m.rows - sum(1 for e in diag if e), tuple(e for e in diag if e >= 2)
    )
