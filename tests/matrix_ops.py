"""Matrix arithmetic and subspace containment, for the tests.

The library multiplies, transposes and negates `linalg.Matrix` values and
tests single vectors against a `linalg.Subspace`; the tests also build zero
matrices, add, scale and apply them, flatten them to prime-field vectors and
compare whole subspaces.  These are those references, on the same element
codes and conventions.
"""

from kinderlab.linalg import Matrix, Subspace


def zero_matrix(ctx, nrows: int, ncols: int) -> Matrix:
    return Matrix(ctx, [[0] * ncols for _ in range(nrows)], ncols)


def matrix_add(a: Matrix, b: Matrix) -> Matrix:
    f = a.ctx.add
    return Matrix(a.ctx, [[f(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(a.rows, b.rows)],
                  a.ncols)


def matrix_scale(m: Matrix, c) -> Matrix:
    f = m.ctx.mul
    return Matrix(m.ctx, [[f(c, x) for x in r] for r in m.rows], m.ncols)


def matrix_apply(m: Matrix, vec) -> tuple:
    """m times a column vector, given as a flat tuple."""
    ctx = m.ctx
    out = []
    for row in m.rows:
        acc = 0
        for a, b in zip(row, vec):
            if a and b:
                acc = ctx.add(acc, ctx.mul(a, b))
        out.append(acc)
    return tuple(out)


def flatten_matrix(m: Matrix) -> tuple:
    """The entries row-major, each expanded into its e prime-field
    coordinates, lowest degree first: what `linalg.unflatten_matrix` reads."""
    out = []
    for row in m.rows:
        for a in row:
            out.extend(m.ctx.to_vector(a))
    return tuple(out)


def contains_subspace(space: Subspace, other: Subspace) -> bool:
    return all(space.contains(row) for row in other.basis)
