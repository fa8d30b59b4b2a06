"""Matrix arithmetic and subspace containment, for the tests.

The library multiplies, transposes and negates `linalg.Matrix` values and
tests single vectors against a `linalg.Subspace`; the tests also build zero
matrices, add, scale and apply them, flatten them to prime-field vectors,
compare whole subspaces and test matrix pairs against a `bimap.HomSpace`.
These are those references, on the same element codes and conventions.

The library's element loops run on `FieldCtx.axpy` and `FieldCtx.dot`, which
pick the field's arithmetic once per row.  `rref_reference`,
`coords_reference`, `reduce_reference`, `enumerate_vectors_reference` and
`matrix_mul_reference` are the same loops entry by entry, through the
field's `add`, `sub` and `mul`, for the tests to compare them with.
"""

import itertools

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


# ---------------------------------------------------------------------------
# the library's element loops, entry by entry


def matrix_mul_reference(a: Matrix, b: Matrix) -> Matrix:
    """a times b, each entry summed product by product (what `Matrix.mul` computes)."""
    ctx = a.ctx
    cols = list(zip(*b.rows)) if b.rows else [()] * b.ncols
    out = []
    for row in a.rows:
        new = []
        for col in cols:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = ctx.add(acc, ctx.mul(x, y))
            new.append(acc)
        out.append(new)
    return Matrix(ctx, out, b.ncols)


def rref_reference(rows, ctx):
    """(nonzero RREF rows as tuples, pivot columns), as `linalg.rref` returns them."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = ctx.inv(mat[r][c])
        mat[r] = [ctx.mul(inv, a) for a in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def _reduce_entries(work: list, rows, ctx) -> list:
    for c, row in rows:
        f = work[c]
        if f:
            for j, r in enumerate(row):
                if r:
                    work[j] = ctx.sub(work[j], ctx.mul(f, r))
    return work


def reduce_reference(space: Subspace, vec) -> tuple:
    """The residue of vec modulo space, as `Subspace.reduce` returns it."""
    return tuple(_reduce_entries(list(vec), zip(space.pivots, space.basis), space.ctx))


def coords_reference(solver, vec):
    """`CoordSolver.coords`: vec's coordinates in the solver's family, or None."""
    work = _reduce_entries(list(vec) + [0] * solver.k, solver.rows, solver.ctx)
    if any(work[: solver.n]):
        return None
    return tuple(solver.ctx.neg(x) for x in work[solver.n :])


def enumerate_vectors_reference(space: Subspace) -> list:
    """Every vector of space, its coefficients in `itertools.product` order,
    as `Subspace.enumerate_vectors` yields them."""
    ctx = space.ctx
    out = []
    for coeffs in itertools.product(range(ctx.order), repeat=space.dim):
        vec = [0] * space.ambient_dim
        for c, row in zip(coeffs, space.basis):
            if c:
                for j, b in enumerate(row):
                    if b:
                        vec[j] = ctx.add(vec[j], ctx.mul(c, b))
        out.append(tuple(vec))
    return out
