"""Matrix arithmetic and subspace containment, for the tests.

The library multiplies, transposes and negates `linalg.Matrix` values and
tests single vectors against a `linalg.Subspace`; the tests also build zero
matrices, add, scale and apply them, flatten them to prime-field vectors,
compare whole subspaces and test matrix pairs against a `bimap.HomSpace`.
These are those references, on the same element codes and conventions.
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


def flatten_pair(A: Matrix, B: Matrix) -> tuple:
    """A's entries then B's, row-major, as one vector of element codes."""
    out = []
    for row in A.rows:
        out.extend(row)
    for row in B.rows:
        out.extend(row)
    return tuple(out)


def hom_span(space) -> Subspace:
    """The span of a `bimap.HomSpace`'s basis pairs, each flattened by
    `flatten_pair`: a pair (A, B) is in the space iff
    `hom_span(space).contains(flatten_pair(A, B))`."""
    flat = [flatten_pair(pa, pb) for pa, pb in space.basis]
    return Subspace.from_vectors(space.ctx, len(flat[0]) if flat else 0, flat)
