"""The thirteen desk-scale acceptance checks.

Each criterion is a function returning a one-line detail string on success
and raising (PropertyViolationError from `errors.require`, or another library
error) on failure.  The same
functions back `kinderlab verify` and the test suite, so a criterion can
only pass one way.

The fast tier shrinks the two expensive knobs (Monte Carlo trial counts,
Suzuki sweep ceiling); the full tier runs everything at the sizes the
criteria state.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import altcodes, arith, bimap, genericity, nursery, smallgrp, twisted
from .errors import InvalidConfigError, require
from .gf import make_field
from .linalg import digits, enumerate_subspaces


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float


# ---------------------------------------------------------------------------
# 1. sigma oracles


def _crit_sigma_oracles(tier: str) -> str:
    F2 = make_field(2, 1)
    ut = smallgrp.unitriangular_group(3, F2)
    got = smallgrp.sigma_counts(ut)
    require(got == (10, 5), got)
    a5 = smallgrp.alternating_group(5)
    got5 = smallgrp.sigma_counts(a5)
    require(got5 == (59, 9), got5)
    return "UT3(F2) -> (10, 5); Alt5 -> (59, 9)"


# ---------------------------------------------------------------------------
# 2. hom solver against exhaustive enumeration


def _hom_shapes(cap: int):
    out = []
    for a in range(1, cap):
        for s in range(1, cap):
            if a * s >= cap:
                break
            for b in range(1, cap):
                for t in range(1, cap):
                    if a * s + b * t > cap:
                        break
                    out.append((a, s, b, t))
    return out


def _all_matrices(p: int, rows: int, cols: int):
    """Every rows x cols matrix over F_p, as one [p^(rows*cols), rows, cols] array."""
    n = p ** (rows * cols)
    return digits(0, n, p, rows * cols).T.reshape(n, rows, cols)


def _value_counts(vals):
    """The distinct values of vals ([n, ...] ints), each keyed as the bytes of
    its entries, and how often each occurs."""
    rows = np.ascontiguousarray(vals).reshape(len(vals), -1)
    return np.unique(rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel(),
                     return_counts=True)


def _hom_sides(phi: bimap.MatrixSystem, ups: bimap.MatrixSystem, sign: int):
    """Both sides of A Phi_i = sign Ups_i B^t: the left for every A and the
    right for every B, as [p^(a*s), c, a, b] and [p^(b*t), c, a, b] arrays,
    the matrices in mixed-radix order.  Products mod p only, no elimination,
    so they owe nothing to the solver they check.  Prime fields only."""
    ctx = phi.ctx
    if ctx.e != 1:
        raise InvalidConfigError("the brute-force hom count needs a prime field, not GF(%d)" % ctx.order)
    p = ctx.p
    s, b = phi.shape
    a, t = ups.shape
    P = np.array([m.rows for m in phi.mats], dtype=np.int64).reshape(len(phi), s, b)
    U = np.array([m.rows for m in ups.mats], dtype=np.int64).reshape(len(ups), a, t)
    left = np.einsum("nrk,ckj->ncrj", _all_matrices(p, a, s), P) % p
    right = sign * np.einsum("crk,njk->ncrj", U, _all_matrices(p, b, t)) % p
    # the smallest dtype that holds a residue keeps the byte keys short
    residue = np.min_scalar_type(p - 1)
    return left.astype(residue), right.astype(residue)


def _brute_hom_count(phi: bimap.MatrixSystem, ups: bimap.MatrixSystem, sign: int) -> int:
    """|{(A, B) : A Phi_i = sign Ups_i B^t}| by meeting left and right values:
    the sum, over the values both sides reach, of the products of how often
    each side reaches them."""
    left, right = _hom_sides(phi, ups, sign)
    if not left[0].size:
        return len(left) * len(right)  # every value is empty
    left_keys, left_counts = _value_counts(left)
    right_keys, right_counts = _value_counts(right)
    _, il, ir = np.intersect1d(left_keys, right_keys, assume_unique=True, return_indices=True)
    return int(left_counts[il] @ right_counts[ir])


def _crit_hom_brute(tier: str) -> str:
    rng = random.Random(99)
    checked = 0
    for K, cap in ((make_field(2, 1), 16), (make_field(3, 1), 10)):
        for idx, (a, s, b, t) in enumerate(_hom_shapes(cap)):
            c = 1 + idx % 3
            phi = bimap.MatrixSystem.random(K, (s, b), c, rng)
            ups = bimap.MatrixSystem.random(K, (a, t), c, rng)
            sign = 1 if idx % 2 == 0 else -1
            d = bimap.hom_space(phi, ups, sign).dim_fp
            got = _brute_hom_count(phi, ups, sign)
            require(got == K.order**d, (K.order, a, s, b, t, sign, d, got))
            checked += 1
    require(checked >= 50, checked)
    return "%d random systems across every shape with a*s+b*t <= 16 (F2) / 10 (F3)" % checked


# ---------------------------------------------------------------------------
# 3. witness systems have scalar endomorphisms only


def _crit_witness(tier: str) -> str:
    fields = (make_field(2, 1), make_field(3, 1), make_field(2, 2))
    n_checked = 0
    for K in fields:
        for n in range(1, 5):
            for m in range(1, n + 1):
                W = bimap.witness_system(m, n, K)
                d = bimap.end_space(W).dim_k
                require(d == 1, (K.order, m, n, d))
                n_checked += 1
    return "dim End = 1 for all %d witness systems (m <= n <= 4, K in F2/F3/F4)" % n_checked


# ---------------------------------------------------------------------------
# 4. span lemma, exhaustively


def _crit_span_grid(tier: str) -> str:
    for q in (2, 3):
        for n in (1, 2, 3):
            for s in (1, 2, 3, 4):
                r = genericity.exhaustive_mode("span", {"n": n, "s": s, "q": q})
                freq = Fraction(r.success, r.trials)
                require(freq >= r.bound, (n, s, q, freq, r.bound))
    spot = genericity.exhaustive_mode("span", {"n": 2, "s": 3, "q": 2})
    require(Fraction(spot.success, spot.trials) == Fraction(21, 32))
    require(spot.bound == Fraction(5, 8))
    return "all (n <= 3, s <= 4, q in {2,3}); spot (2,3,2): 0.65625 >= 0.625"


# ---------------------------------------------------------------------------
# 5. derived-subgroup genericity, exhaustively


def _crit_derived_grid(tier: str) -> str:
    rows = 0
    for q in (2, 3):
        for a, b, c in ((1, 1, 1), (1, 2, 2), (2, 2, 1)):
            for ell in range(0, a * a + 1):
                r = genericity.exhaustive_mode(
                    "derived_full", {"a": a, "b": b, "c": c, "ell": ell, "q": q}
                )
                freq = Fraction(r.success, r.trials)
                bound = Fraction(1) - Fraction(q) ** (b - a * ell)
                require(freq >= bound, (a, b, c, q, ell, freq, bound))
                rows += 1
    return "frequency >= 1 - q^(b-a*ell) on all %d exhaustive rows (a, b <= 2)" % rows


# ---------------------------------------------------------------------------
# 6. reconstruction round trip


def _crit_reconstruction(tier: str) -> str:
    F2 = make_field(2, 1)
    F4 = make_field(2, 2)
    done = []
    for label, nur in (
        ("matrix(2,1,F2)", nursery.make_nursery("matrix", a=2, c=1, ctx=F2)),
        ("matrix(1,1,F4)", nursery.make_nursery("matrix", a=1, c=1, ctx=F4)),
    ):
        g2 = frozenset(nur.gamma2_labels())
        g3 = frozenset(nur.gamma3_labels())
        ident = frozenset([nur.identity_label()])
        lo = nur.s_subspace().dim
        rng = random.Random(2024)
        good = 0
        for i in range(100):
            ell = rng.randint(lo, nur.rdim)
            kind = nursery.random_kind(nur, ell, rng)
            rho, mu = nursery.random_frames(kind, rng)
            rec = nursery.reconstruct(kind, rho, mu)
            require(rec.X == g2 and rec.Y == g3 and rec.Z == ident, (label, i))
            good += 1
        done.append("%s: %d/100" % (label, good))
    return "; ".join(done)


# ---------------------------------------------------------------------------
# 7. genericity trends


def _crit_genericity_trends(tier: str) -> str:
    trials = 10_000 if tier == "full" else 2_500
    qs = (2, 3, 4, 5, 7, 8, 9)
    freqs = []
    for q in qs:
        r = genericity.estimate("end_generic", {"m": 3, "n": 3, "s": 3, "q": q}, trials, seed=4242)
        freqs.append(r.success / r.trials)
    for f0, f1 in zip(freqs, freqs[1:]):
        se = math.sqrt((f0 * (1 - f0) + f1 * (1 - f1)) / trials)
        require(f1 - f0 >= -3 * se, (freqs, f0, f1, se))
    for q, f in zip(qs, freqs):
        if q >= 8:
            require(f >= 0.8, (q, f))
    rn = genericity.estimate(
        "nucleus", {"a": 3, "b": 3, "c": 1, "ell": 4, "q": 5}, trials, seed=4242
    )
    nf = rn.success / rn.trials
    require(nf >= 0.9, nf)
    return "end_generic freqs %s nondecreasing; nucleus dim c^2 freq %.4f" % (
        ["%.3f" % f for f in freqs],
        nf,
    )


# ---------------------------------------------------------------------------
# 8. Lambda endomorphism dimensions


def _crit_lambda_dims(tier: str) -> str:
    trials = 1500
    parts = []
    for q in (3, 5):
        r = genericity.estimate("lambda_end", {"a": 2, "b": 3, "c": 4, "q": q}, trials, seed=4242)
        diag_hist = {int(k): v for k, v in r.extra["diag_hist"].items()}
        require(r.extra["modal_diag"] == 2, r.extra)
        freq = diag_hist.get(2, 0) / trials
        require(freq >= 0.9, (q, freq, diag_hist))
        parts.append("(2,3,4) q=%d: diagonal dim 2 at %.3f (full modal %d)" % (q, freq, r.extra["modal_dim"]))
    r33 = genericity.estimate("lambda_end", {"a": 3, "b": 3, "c": 4, "q": 5}, trials, seed=4242)
    parts.append("(3,3,4) q=5: modal %d, supports %r" % (r33.extra["modal_dim"], r33.extra["supports"]))
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# 9. Hamming weight recovery


def _crit_hamming(tier: str) -> str:
    F2 = make_field(2, 1)
    total = 0
    for k in range(1, 5):
        gam = altcodes.build_gamma(k)
        for ell in range(k + 1):
            for code in enumerate_subspaces(k, ell, F2):
                H = altcodes.subgroup_from_code(gam, code)
                for h in H.labels:
                    w = altcodes.hamming_recover(H, h)
                    require(w == gam.weight(h), (k, ell, h, w))
                    total += 1
    return "%d recoveries across every code subgroup for k <= 4, all exact" % total


# ---------------------------------------------------------------------------
# 10. code classes and subgroup isomorphism


def _mask_perm(mask: int, perm) -> int:
    out = 0
    for i, pi in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << pi
    return out


def _crit_code_classes(tier: str) -> str:
    table_rows = 0
    for k in range(1, 6):
        for ell in range(k + 1):
            altcodes.code_class_table(k, ell)  # checks the count against the bound
            table_rows += 1
    # group side, k <= 4: same orbit -> explicit coordinate-permutation
    # isomorphism; different orbit -> the recovered-weight histogram differs
    sampled_pairs = 0
    for k in range(1, 5):
        gam = altcodes.build_gamma(k)
        rng = random.Random(k)
        for ell in range(k + 1):
            spaces, orbits = altcodes._orbits(k, ell)
            hists = []
            for orbit in orbits:
                rep = spaces[orbit[0]]
                rep_masks = altcodes._mask_set(rep, k)
                Hrep = altcodes.subgroup_from_code(gam, rep)
                hist = Counter(altcodes.hamming_recover(Hrep, h) for h in Hrep.labels)
                hists.append(frozenset(hist.items()))
                rep_set = set(Hrep.labels)
                for i in orbit[1:]:
                    masks = altcodes._mask_set(spaces[i], k)
                    perm = next(
                        p
                        for p in itertools.permutations(range(k))
                        if {_mask_perm(m, p) for m in rep_masks} == masks
                    )
                    phi = lambda lab, p=perm: tuple(lab[p.index(j)] for j in range(k))
                    Hi = altcodes.subgroup_from_code(gam, spaces[i])
                    require({phi(lab) for lab in rep_set} == set(Hi.labels))
                    for _ in range(50):
                        x = rng.choice(Hrep.labels)
                        y = rng.choice(Hrep.labels)
                        xy = Hrep.labels[Hrep.mul_idx(Hrep.index_of(x), Hrep.index_of(y))]
                        gi = Hi.mul_idx(Hi.index_of(phi(x)), Hi.index_of(phi(y)))
                        require(Hi.labels[gi] == phi(xy))
                        sampled_pairs += 1
            require(len(set(hists)) == len(hists), (k, ell))
    return (
        "counts >= ceil(2^(l(k-l))/k!) on all %d (k <= 5) rows; permutation isomorphisms"
        " and weight histograms separate all classes for k <= 4 (%d product samples)"
        % (table_rows, sampled_pairs)
    )


# ---------------------------------------------------------------------------
# 11. Suzuki sweep


def _crit_suzuki_sweep(tier: str) -> str:
    e_max = 50 if tier == "full" else 15
    certs = []
    max_s = 0
    for e in range(1, e_max + 1):
        cert = twisted.suzuki_search(e, seed=2024 + e)
        require(isinstance(cert, twisted.SpanCertificate), (e, cert))
        degree = 2 * e + 1
        bound = 3 * math.isqrt(degree) if math.isqrt(degree) ** 2 == degree else 3 * (math.isqrt(degree) + 1)
        require(len(cert.elements) <= bound, (e, len(cert.elements), bound))
        require(twisted.suzuki_verify(cert))
        certs.append(cert)
        max_s = max(max_s, len(cert.elements))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for cert in certs:
            p = Path(tmp) / ("cert_%d.json" % cert.e)
            p.write_text(cert.to_json())
            paths.append(str(p))
        prog = (
            "import sys\n"
            "from kinderlab import twisted\n"
            "for path in sys.argv[1:]:\n"
            "    cert = twisted.SpanCertificate.from_json(open(path).read())\n"
            "    if not twisted.suzuki_verify(cert):\n"
            "        sys.exit('rejected: ' + path)\n"
            "print('fresh-ok')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", prog, *paths], capture_output=True, text=True
        )
        require(out.returncode == 0 and out.stdout.strip() == "fresh-ok", out.stderr)
    return "all degrees 2e+1 <= %d certified, max |S| = %d, fresh-process re-verification OK" % (
        2 * e_max + 1,
        max_s,
    )


# ---------------------------------------------------------------------------
# 12. B2 in characteristic 2


def _crit_b2(tier: str) -> str:
    # axioms: b2_build runs the exhaustive cocycle/commutator/phi checks for
    # |F| <= 8; on top of that, full triple associativity over F2 and
    # closure + inverses per element where the pair count allows
    groups = {}
    for e in (1, 2, 3):
        F = make_field(2, e)
        b2 = twisted.b2_build(F)
        G = b2.group()
        groups[F.order] = (F, b2, G)
        lset = set(G.labels)
        for g in G.labels:
            require(b2.mul(g, b2.inverse(g)) == b2.identity())
        pairs = (
            itertools.product(G.labels, repeat=2)
            if G.n <= 256
            else ((G.labels[i % G.n], G.labels[(i * 37 + 11) % G.n]) for i in range(20000))
        )
        for g, h in pairs:
            require(b2.mul(g, h) in lset)
    F2all = groups[2][1]
    for g in groups[2][2].labels:
        for h in groups[2][2].labels:
            for k in groups[2][2].labels:
                require(F2all.mul(F2all.mul(g, h), k) == F2all.mul(g, F2all.mul(h, k)))

    # recurrence, both sides, on the full group over F8
    F8, b8, G8 = groups[8]
    w = F8.primitive
    q = F8.order
    A = {i: (F8.pow(w, i % (q - 1)), 0, 0, 0) for i in (-1, 0, 1)}
    B = {i: (0, F8.pow(w, i % (q - 1)), 0, 0) for i in (-1, 0, 1)}
    lab = twisted.b2_labels(b8, G8, A, B)
    series = lab.a_series
    comm = b8.commutator
    for k in range(1, q - 1):
        lhs = b8.mul(comm(series[k + 1], B[-1]), comm(series[k], B[0]))
        rhs = b8.mul(comm(series[k - 2], B[1]), comm(series[k - 1], B[0]))
        require(lhs == rhs, k)

    # representative invariance across 100 seeded runs
    baseline = (lab.gamma4, lab.complement, tuple(sorted(lab.coset_value.items())), lab.q_image)
    for seed in range(100):
        rng = random.Random(seed)
        A2 = {i: (F8.pow(w, i % (q - 1)), 0, rng.randrange(q), rng.randrange(q)) for i in (-1, 0, 1)}
        B2 = {i: (0, F8.pow(w, i % (q - 1)), rng.randrange(q), rng.randrange(q)) for i in (-1, 0, 1)}
        l2 = twisted.b2_labels(b8, G8, A2, B2)
        got = (l2.gamma4, l2.complement, tuple(sorted(l2.coset_value.items())), l2.q_image)
        require(got == baseline, seed)
    return "axioms exhaustive for |F| in {2,4,8}; recurrence holds on F8; labeling invariant over 100 representative choices"


# ---------------------------------------------------------------------------
# 13. arithmetic


def _crit_arithmetic(tier: str) -> str:
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        for k in range(0, 21):
            require(arith.legendre_valuation(k, p) == arith.nu_p(math.factorial(k), p), (k, p))

    F2 = make_field(2, 1)
    F3 = make_field(3, 1)
    singles = [
        smallgrp.unitriangular_group(3, F2),
        smallgrp.alternating_group(5),
        smallgrp.dihedral_group(4),
        smallgrp.cyclic_group(8),
        smallgrp.cyclic_group(27),
        smallgrp.unitriangular_group(3, F3),
    ]
    prods = [
        (smallgrp.cyclic_group(8), smallgrp.cyclic_group(27)),
        (smallgrp.dihedral_group(4), smallgrp.cyclic_group(27)),
        (smallgrp.unitriangular_group(3, F2), smallgrp.unitriangular_group(3, F3)),
        (smallgrp.dihedral_group(4), smallgrp.cyclic_group(125)),
    ]
    checked = []
    for G in singles:
        sig, sig_i = smallgrp.sigma_counts(G, iso_order_cap=1024)
        require(sig_i <= sig <= G.n ** (arith.mu(G.n) + 1), (G.name, sig, sig_i))
        checked.append(G.n)
    for A, Bf in prods:
        sa = smallgrp.sigma_counts(A, iso_order_cap=1024)
        sb = smallgrp.sigma_counts(Bf, iso_order_cap=1024)
        P = smallgrp.direct_product(A, Bf)
        require(math.gcd(A.n, Bf.n) == 1 and P.n <= 1000)
        sp = smallgrp.sigma_counts(P, iso_order_cap=1024)
        require(sp == (sa[0] * sb[0], sa[1] * sb[1]), (A.name, Bf.name, sa, sb, sp))
        require(sp[1] <= sp[0] <= P.n ** (arith.mu(P.n) + 1))
        checked.append(P.n)
    return "legendre = factorial valuation (k <= 20, p <= 19); sigma bounds and coprime multiplicativity on orders %s" % sorted(set(checked))


CRITERIA = (
    (1, "sigma-oracles", _crit_sigma_oracles),
    (2, "hom-solver-vs-brute", _crit_hom_brute),
    (3, "witness-end-scalar", _crit_witness),
    (4, "span-lemma-grid", _crit_span_grid),
    (5, "derived-full-grid", _crit_derived_grid),
    (6, "reconstruction-roundtrip", _crit_reconstruction),
    (7, "genericity-trends", _crit_genericity_trends),
    (8, "lambda-dimensions", _crit_lambda_dims),
    (9, "hamming-recovery", _crit_hamming),
    (10, "code-classes", _crit_code_classes),
    (11, "suzuki-sweep", _crit_suzuki_sweep),
    (12, "b2-char2", _crit_b2),
    (13, "arithmetic", _crit_arithmetic),
)


def run_criterion(index: int, tier: str = "full") -> CriterionResult:
    if tier not in ("fast", "full"):
        raise ValueError("tier must be fast or full")
    for idx, name, fn in CRITERIA:
        if idx == index:
            break
    else:
        raise ValueError("no criterion %d" % index)
    t0 = time.time()
    try:
        detail = fn(tier)
        return CriterionResult(idx, name, True, detail, time.time() - t0)
    except Exception as exc:  # noqa: BLE001 - the suite reports, not crashes
        return CriterionResult(idx, name, False, "%s: %s" % (type(exc).__name__, exc), time.time() - t0)
