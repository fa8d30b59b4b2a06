"""Seeded Monte-Carlo and exhaustive estimation of the generic-behavior
statements: spanning probability of random vectors, scalar End of random
matrix systems, vanishing hom against the transposed system, End of the
Lambda block systems, the right nucleus, and fullness of the derived
subgroup of a random kind.

Each kind is an instance source times a batched evaluator.  There are two
sources.  The seeded sampler (`estimate`) gives trial i its own
Random("{seed}:{i}") and draws the entries row-major, matrix by matrix, as
`Matrix.random` does; a subspace is the row space of a matrix redrawn whole
until it has full rank.  The entries are the values `randrange(q)` would
return, but for q < 2^32 they come from one `getrandbits` call per trial,
cut into words and filtered by randrange's rejection rule in one numpy pass
per batch.  A report depends on the seed alone, not on batching.  The
exhaustive enumerator (`exhaustive_mode`, cap 2^24) yields every
configuration once, as `linalg.digits` tables, and marks the report exact.
Both hand the evaluator [T, ...] arrays of element codes in batches capped
by cells alone: a batch's largest stack holds at most CHUNK_CELLS entries
(one instance at least), which bounds memory.  The evaluator assembles the
equation or image matrices of the whole batch, makes one `linalg.ranks`
call per rank it needs, and returns the histogram keys as an array that
`_tally` counts with one `np.unique`.  The equations come from `bimap`'s
array builders, the same ones its single-instance solvers use:
`hom_equations_batch`, `lambda_build`, and `nucleus_equations` on the unit
vectors, which are linear in the left vector, so a batch's nucleus rows are
one exact `linalg.fp_matmul`.

The two dimensions `hom_pm_transpose` records per trial, dim hom(P, P^t)
and dim hom(P, -P^t), are always equal: (A, B) -> (A, -B) carries the
solutions of A P_i = P_i^t B^t onto those of A P_i = -P_i^t B^t.  So every
key of its histogram reads "k,k", and `lambda_end`'s hom_minus_hist, with
the "supports" verdict built on it, cannot tell the statement hom(P,-P^t) = 0
from one about hom(P, P^t).  `hom_pm_transpose` solves the + sign alone and
writes its dimension in both places of the key.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import bimap as bm
from .errors import CapExceededError, InvalidConfigError, PropertyViolationError, need
from .gf import FieldCtx, make_field_from_order
from .linalg import digits, fp_matmul, gaussian_binomial, ranks, rref_bases

KINDS = ("span", "end_generic", "hom_pm_transpose", "lambda_end", "nucleus", "derived_full")
EXHAUSTIVE_CAP = 1 << 24
CHUNK_CELLS = 1 << 17


@dataclass
class TrialReport:
    kind: str
    params: dict
    trials: int
    seed: object
    success: int
    histogram: dict
    bound: object = None  # Fraction when a closed form applies
    exact: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.success, self.trials)

    def check(self):
        if self.trials < 1:
            raise InvalidConfigError("empty report")
        if not 0 <= self.success <= self.trials:
            raise InvalidConfigError("success outside [0, trials]")
        if sum(self.histogram.values()) != self.trials:
            raise InvalidConfigError("histogram does not total the trials")
        return self

    def to_payload(self) -> dict:
        out = {
            "kind": self.kind,
            "params": dict(self.params),
            "trials": self.trials,
            "seed": self.seed,
            "success": self.success,
            "frequency": float(self.frequency),
            "frequency_exact": "%d/%d" % (self.success, self.trials),
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "exact": self.exact,
        }
        if self.bound is not None:
            out["paper_bound"] = float(self.bound)
            out["paper_bound_exact"] = str(self.bound)
        if self.extra:
            out["extra"] = {
                k: (float(v) if isinstance(v, Fraction) else v) for k, v in self.extra.items()
            }
        return out


def span_bound(n: int, s: int, q: int) -> Fraction:
    return 1 - (Fraction(q) ** (n - s) - Fraction(q) ** (-s)) / (q - 1)


def derived_full_bound(a: int, b: int, ell: int, q: int) -> Fraction:
    return 1 - Fraction(q) ** (b - a * ell)


# ---------------------------------------------------------------------------
# summaries and the bracket behind the nucleus and derived_full kinds

def _modal(hist: dict):
    return max(hist, key=lambda k: (hist[k], -k))


def _lambda_post(params: dict, histogram: dict, extra: dict) -> int:
    """Fill the modal summaries; returns the success count (modal total)."""
    a, b = params["a"], params["b"]
    modal = _modal(histogram)
    extra["modal_dim"] = modal
    extra["modal_diag"] = _modal(extra["diag_hist"])
    extra["modal_offdiag"] = _modal(extra["offdiag_hist"])
    modal_minus = _modal(extra["hom_minus_hist"])
    if a == b:
        # the two conflicting statements: hom(P,-P^t) = 0 against = K
        if modal_minus == 0:
            extra["supports"] = "hom(P,-P^t)=0; End(Lambda) = K+K"
        elif modal_minus == 1:
            extra["supports"] = "hom(P,-P^t)=K; End(Lambda) = M2(K)"
        else:
            extra["supports"] = "neither statement (modal hom dim %d)" % modal_minus
    else:
        extra["supports"] = (
            "(K+K) semidirect J with dim J = %d" % extra["modal_offdiag"]
            if extra["modal_diag"] == 2
            else "unexpected diagonal dim %d" % extra["modal_diag"]
        )
    for k in ("diag_hist", "offdiag_hist", "hom_minus_hist"):
        extra[k] = {str(kk): vv for kk, vv in sorted(extra[k].items())}
    return histogram[modal]


# ---------------------------------------------------------------------------
# instance sources

def _trial_rng(seed, i: int) -> random.Random:
    return random.Random("%s:%d" % (seed, i))


def _draws(seed, trials, q: int, k: int):
    """[len(trials), k]: the first k values `randrange(q)` returns from each
    trial's generator.

    For q < 2^32, randrange(q) takes the top b = q.bit_length() bits of the
    generator's next 32-bit word and rejects values >= q.  getrandbits(32 n)
    returns the next n words, the first lowest, so one call per trial and one
    numpy pass per batch give the same values; a trial whose n words hold
    fewer than k accepted values is drawn again with twice the words.
    """
    b = q.bit_length()
    if b > 32:
        rngs = (_trial_rng(seed, i) for i in trials)
        return np.array([[r.randrange(q) for _ in range(k)] for r in rngs],
                        dtype=np.int64).reshape(len(trials), k)
    trials = np.asarray(trials)
    n = (k << b) // q  # the expected count, k over the acceptance rate q / 2^b
    n += 4 * math.isqrt(n) + 8  # so that a trial rarely runs short
    out = np.empty((len(trials), k), dtype=np.int64)
    todo = np.arange(len(trials))
    while len(todo):
        words = b"".join(_trial_rng(seed, i).getrandbits(32 * n).to_bytes(4 * n, "little")
                         for i in trials[todo].tolist())
        vals = np.frombuffer(words, dtype="<u4").reshape(len(todo), n) >> (32 - b)
        keep = vals < q
        made = keep.cumsum(axis=1)
        full = made[:, -1] >= k
        keep &= made <= k
        done = todo[full]
        out[done] = vals[full][keep[full]].reshape(len(done), k)
        todo, n = todo[~full], 2 * n
    return out


class _Entries:
    """Instances of independent uniform field entries, shaped `shape`."""

    def __init__(self, ctx: FieldCtx, shape):
        self.order, self.shape = ctx.order, tuple(shape)
        self.count = math.prod(self.shape)

    def draw(self, seed, lo: int, hi: int):
        """Trials lo..hi-1, one generator alive at a time (each holds ~3 KB)."""
        return _draws(seed, range(lo, hi), self.order, self.count).reshape(
            (hi - lo,) + self.shape)

    def total(self) -> int:
        return self.order ** self.count

    def pieces(self, size):
        total = self.total()
        for lo in range(0, total, size):
            hi = min(total, lo + size)
            block = digits(lo, hi, self.order, self.count)
            yield np.moveaxis(block.reshape(self.shape + (hi - lo,)), -1, 0)


class _Subspaces:
    """Uniform ell-dimensional subspaces of F_p^dim, each as an [ell, dim] basis."""

    def __init__(self, fp: FieldCtx, ell: int, dim: int):
        self.fp, self.ell, self.dim = fp, ell, dim

    def draw(self, seed, lo: int, hi: int):
        """Each trial redraws its whole [ell, dim] matrix until it has full
        rank.  A redraw seeds the trial's generator again and skips the draws
        it already made, so no generator outlives its draw."""
        p, ell, dim = self.fp.p, self.ell, self.dim
        out = _Entries(self.fp, (ell, dim)).draw(seed, lo, hi)
        todo = np.flatnonzero(ranks(out, self.fp) < ell)
        made = k = ell * dim
        while len(todo):
            out[todo] = _draws(seed, lo + todo, p, made + k)[:, made:].reshape(-1, ell, dim)
            made += k
            todo = todo[ranks(out[todo], self.fp) < ell]
        return out

    def total(self) -> int:
        return gaussian_binomial(self.dim, self.ell, self.fp.p)

    def pieces(self, size):
        """Each subspace once as its RREF basis, in batches of at most `size`,
        each the blocks of consecutive pivot patterns joined."""
        buf, n = [], 0
        for _, bases in rref_bases(self.dim, self.ell, self.fp.p, size):
            if buf and n + len(bases) > size:
                yield np.concatenate(buf)
                buf, n = [], 0
            buf.append(bases)
            n += len(bases)
        if buf:
            yield np.concatenate(buf)


# ---------------------------------------------------------------------------
# batched evaluators

def _hom_dims(P, U, sign: int, ctx: FieldCtx):
    """dim_K hom(P_t, U_t) with the given sign for each instance t."""
    eqs = bm.hom_equations_batch(P, U, sign, ctx)
    return eqs.shape[2] - ranks(eqs, ctx)


def _tally(into: dict, values):
    keys, counts = np.unique(values, return_counts=True)
    for k, v in zip(keys.tolist(), counts.tolist()):
        into[k] = into.get(k, 0) + v


@functools.lru_cache(maxsize=64)
def _bracket(ctx: FieldCtx, a: int, b: int, c: int):
    """Structure constants of the bracket M_{a x b}(K) x M_{b x c}(K) ->
    M_{a x c}(K) over F_p, as [left, right * target], and the right nucleus
    equations of each left basis vector, as [left, rows * unknowns]."""
    nb = bm.matrix_multiplication_bimap(ctx, a, b, c)
    left = nb.left_dim
    out = (nb.structure.transpose(1, 2, 0).reshape(left, -1),
           bm.nucleus_equations(nb, np.eye(left, dtype=np.int64)).reshape(left, -1))
    for arr in out:
        arr.setflags(write=False)
    return nb, out


class _Spec(NamedTuple):
    source: object  # _Entries or _Subspaces
    evaluate: Callable  # [T, ...] codes -> (histogram keys, success flags)
    cells: int  # entries of the largest matrix built per instance
    bound: object
    extra: dict


def _field(q) -> FieldCtx:
    ctx = make_field_from_order(q)
    if ctx.order >= 1 << 62:
        raise InvalidConfigError("field order %d does not fit the int64 batches" % ctx.order)
    return ctx


def _spec(kind: str, params: dict) -> _Spec:
    if kind not in KINDS:
        raise InvalidConfigError("unknown kind %r" % kind)
    if kind == "span":
        n, s, q = need(params, "n", "s", "q", counts=True)
        ctx = _field(q)
        if n < 1 or s < 1:
            raise InvalidConfigError("span needs n, s >= 1")

        def evaluate(vecs):
            r = ranks(vecs, ctx)
            return r, r == n

        return _Spec(_Entries(ctx, (s, n)), evaluate, s * n, span_bound(n, s, q), {})

    if kind in ("end_generic", "hom_pm_transpose"):
        m, n, s, q = need(params, "m", "n", "s", "q", counts=True)
        ctx = _field(q)
        if m < 1 or n < 1 or s < 1:
            raise InvalidConfigError("need m, n, s >= 1")
        cells = 2 * s * max(m, n) ** 4

        def evaluate(P):
            if kind == "end_generic":
                d = _hom_dims(P, P, 1, ctx)
                return d, d == 1
            # dim hom(P, -P^t) equals dim hom(P, P^t), as the module docstring shows
            d = _hom_dims(P, P.transpose(0, 1, 3, 2), 1, ctx)
            return ["%d,%d" % (k, k) for k in d.tolist()], d == 0

        return _Spec(_Entries(ctx, (s, m, n)), evaluate, cells, None, {})

    if kind == "lambda_end":
        a, b, c, q = need(params, "a", "b", "c", "q", counts=True)
        ctx = _field(q)
        if min(a, b, c) < 1:
            raise InvalidConfigError("need a, b, c >= 1")
        side = {"diag_hist": {}, "offdiag_hist": {}, "hom_minus_hist": {}}

        def evaluate(P):
            """Total dim_K End(Lambda) via its four block hom spaces.

            The block equations of A Lambda_v = Lambda_v B^t decouple into the
            two diagonal End spaces and the two off-diagonal hom spaces, so
            the total is their sum; the diagonal part is the semisimple
            candidate of the statement End(Lambda)/J = K + K and the
            off-diagonal part is the radical candidate.  All four are
            recorded, and the total is checked against End(Lambda) itself.
            """
            Pt = P.transpose(0, 1, 3, 2)
            diag = _hom_dims(P, P, 1, ctx) + _hom_dims(Pt, Pt, 1, ctx)
            d_minus = _hom_dims(P, Pt, -1, ctx)
            off = d_minus + _hom_dims(Pt, P, -1, ctx)
            total = diag + off
            lam = bm.lambda_build(P, ctx)
            if (_hom_dims(lam, lam, 1, ctx) != total).any():
                raise PropertyViolationError("Lambda block decomposition failed")
            for name, vals in (("diag_hist", diag), ("offdiag_hist", off),
                               ("hom_minus_hist", d_minus)):
                _tally(side[name], vals)
            # success is filled in post hoc from the modal dim
            return total, np.zeros(len(P), dtype=bool)

        cells = 2 * c * (a + b) ** 4
        return _Spec(_Entries(ctx, (c, a, b)), evaluate, cells, None, side)

    defaults = {"c": 1} if kind == "derived_full" else {}
    a, b, c, ell, q = need({**defaults, **params}, "a", "b", "c", "ell", "q", counts=True)
    ctx = _field(q)
    e = ctx.e
    if min(a, b, c) < 1:
        raise InvalidConfigError("need a, b, c >= 1")
    if ell > a * b * e:
        raise InvalidConfigError("ell exceeds the top layer dimension")
    nb, (structure, unit_eqs) = _bracket(ctx, a, b, c)
    fp, r, t = nb.ctx, nb.right_dim, nb.target_dim
    source = _Subspaces(fp, ell, nb.left_dim)

    if kind == "nucleus":
        unknowns = r * r + t * t
        target = e * c * c

        def evaluate(Q):
            eqs = fp_matmul(Q, unit_eqs, fp.p).reshape(len(Q), ell * r * t, unknowns)
            d = unknowns - ranks(eqs, fp)
            return d, d == target

        return _Spec(source, evaluate, ell * r * t * unknowns, None, {"target_dim_fp": target})

    full = a * c * e

    def evaluate(Q):
        """F_p-rank of {x * u : x in the kind's top layer, u a basis element
        of the middle layer}, the flattened image of the commutator map."""
        d = ranks(fp_matmul(Q, structure, fp.p).reshape(len(Q), ell * r, t), fp)
        return d, d == full

    # the stated exponent b - a*ell is unambiguous (and provable) at a == b;
    # otherwise both readings are recorded and nothing is asserted
    bound = derived_full_bound(a, b, ell, q) if a == b else None
    extra = {
        "bound_literal": derived_full_bound(a, b, ell, q),
        "bound_colspan": derived_full_bound(b, a, ell, q),
    }
    return _Spec(source, evaluate, ell * r * t, bound, extra)


# ---------------------------------------------------------------------------
# the two public entry points

def _run(kind: str, params: dict, spec: _Spec, batches, seed, exact: bool) -> TrialReport:
    histogram, success, count = {}, 0, 0
    for batch in batches:
        keys, ok = spec.evaluate(batch)
        _tally(histogram, keys)
        success += int(np.count_nonzero(ok))
        count += len(batch)
    extra = dict(spec.extra)
    if kind == "lambda_end":
        success = _lambda_post(params, histogram, extra)
    return TrialReport(
        kind=kind, params=dict(params), trials=count, seed=seed,
        success=success, histogram=histogram, bound=spec.bound, exact=exact, extra=extra,
    ).check()


def _batch_size(spec: _Spec) -> int:
    return max(1, CHUNK_CELLS // max(1, spec.cells))


def estimate(kind: str, params: dict, trials: int, seed) -> TrialReport:
    """Monte-Carlo estimate over iid instances with per-trial seeding."""
    if trials < 1:
        raise InvalidConfigError("need at least one trial")
    spec = _spec(kind, params)
    size = _batch_size(spec)
    batches = (spec.source.draw(seed, lo, min(trials, lo + size)) for lo in range(0, trials, size))
    return _run(kind, params, spec, batches, seed, exact=False)


def exhaustive_mode(kind: str, params: dict) -> TrialReport:
    """Exact frequency over every configuration (cap 2^24)."""
    spec = _spec(kind, params)
    total = spec.source.total()
    if total > EXHAUSTIVE_CAP:
        raise CapExceededError("%d configurations exceed the exhaustive cap" % total)
    size = _batch_size(spec)
    rep = _run(kind, params, spec, spec.source.pieces(size), None, exact=True)
    if rep.bound is not None and rep.bound > rep.frequency:
        raise PropertyViolationError(
            "exact frequency %s fell below the closed-form bound %s"
            % (rep.frequency, rep.bound))
    return rep
