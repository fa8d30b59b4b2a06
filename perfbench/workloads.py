"""The three benchmark workloads: shared inputs, seeded job lists, checks.

A workload is a fixed job mix. Each round holds every job of the mix once,
in an order drawn from the round's seed, and the seed also draws each
job's inputs. A job is one call to a public kinderlab entry point:
`prepare` builds its arguments, `call` is the timed library call, and
`check` compares the output with values fixed independently of the code
and returns the JSON payload whose hash must repeat for the same seed.

Jobs that depend on an earlier job's output (Hamming recoveries on a code
subgroup, a Suzuki verify on a found certificate) stay right behind it.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, NamedTuple

WORKLOADS = ("sampling", "lattice", "exact")


class CheckFailed(Exception):
    """A job's output disagrees with its independent oracle."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


class Job(NamedTuple):
    name: str
    prepare: Callable[[], tuple]
    call: Callable
    check: Callable[[tuple, object], dict]


# ---------------------------------------------------------------------------
# independent arithmetic for the checks: plain integers mod a prime


def rank_mod_p(rows, p: int) -> int:
    mat = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def hom_equations_mod_p(phi, ups, sign: int, p: int):
    """Rows of A Phi_i - sign Ups_i B^t = 0 in the unknowns (A, B)."""
    s, b = phi.shape
    a, t = ups.shape
    na = a * s
    rows = []
    for P, U in zip(phi.mats, ups.mats):
        for r in range(a):
            for j in range(b):
                row = [0] * (na + b * t)
                for k in range(s):
                    row[r * s + k] = P.rows[k][j]
                for k in range(t):
                    row[na + j * t + k] = -sign * U.rows[r][k]
                rows.append(row)
    return rows, na + b * t


def gaussian_count(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def smax(degree: int) -> int:
    """3 * ceil(sqrt(degree)), the bound on |S| a certificate must meet."""
    r = math.isqrt(degree)
    return 3 * (r if r * r == degree else r + 1)


# ---------------------------------------------------------------------------
# sampling: genericity.estimate, where linalg.np_rank does most of the work

SAMPLING_QS = (2, 3, 4, 5, 7, 8, 9)
# (kind, params, trials): the trial counts give every job about the same
# cost, so the latency quantiles do not sit on a step between job kinds
SAMPLING_MIX = (
    [("end_generic", {"m": 3, "n": 3, "s": 3, "q": q}, 100) for q in SAMPLING_QS]
    + [("hom_pm_transpose", {"m": 3, "n": 3, "s": 3, "q": q}, 60) for q in SAMPLING_QS]
    + [
        ("lambda_end", {"a": 2, "b": 3, "c": 4, "q": 3}, 16),
        ("lambda_end", {"a": 2, "b": 3, "c": 4, "q": 5}, 16),
        ("lambda_end", {"a": 3, "b": 3, "c": 4, "q": 5}, 8),
        ("nucleus", {"a": 3, "b": 3, "c": 1, "ell": 4, "q": 5}, 100),
    ]
    + [("derived_full", {"a": 2, "b": 2, "c": 1, "ell": 2, "q": q}, 200) for q in (2, 3)]
    + [("span", {"n": 3, "s": 3, "q": q}, 800) for q in (2, 3)]
)
# trials per job re-solved on the exact path and compared with the fast one
CROSS_CHECKS = 3


def _sampling_setup(kl):
    return {"fields": {q: kl.gf.make_field_from_order(q) for q in SAMPLING_QS}}


def _cross_check(kl, shared, kind, params, trials, seed, rng, histogram):
    """Re-draw a few trials as `estimate` does and solve them both ways."""
    bm = kl.bimap
    ctx = shared["fields"][params["q"]]
    for i in rng.sample(range(trials), CROSS_CHECKS):
        trial = random.Random("%s:%d" % (seed, i))
        if kind == "span":
            vecs = [[trial.randrange(ctx.order) for _ in range(params["n"])]
                    for _ in range(params["s"])]
            exact = len(kl.linalg.rref(vecs, ctx)[0])
            require(kl.linalg.np_rank(vecs, ctx) == exact, "np_rank disagrees with rref")
            require(histogram.get(str(exact)), "trial %d rank %d missing" % (i, exact))
            continue
        phi = bm.MatrixSystem.random(ctx, (params["m"], params["n"]), params["s"], trial)
        if kind == "end_generic":
            pairs = [(phi, 1)]
        else:
            pairs = [(phi.transpose(), 1), (phi.transpose(), -1)]
        dims = []
        for ups, sign in pairs:
            fast = bm.hom_dim(phi, ups, sign)
            exact = bm.hom_dim(phi, ups, sign, fast=False)
            require(fast == exact, "fast hom_dim %d != exact %d" % (fast, exact))
            dims.append(exact)
        key = ",".join(map(str, dims))
        require(histogram.get(key), "trial %d dim %s missing from the histogram" % (i, key))


def _sampling_round(kl, shared, rng):
    jobs = []
    for kind, params, trials in SAMPLING_MIX:
        seed = rng.randrange(1 << 30)
        check_seed = rng.randrange(1 << 30)

        def check(args, rep, kind=kind, params=params, trials=trials, seed=seed,
                  check_seed=check_seed):
            rep.check()
            require(rep.trials == trials, "trial count changed")
            require(sum(rep.histogram.values()) == rep.trials, "histogram total")
            payload = rep.to_payload()
            if kind in ("end_generic", "hom_pm_transpose", "span"):
                _cross_check(kl, shared, kind, params, trials, seed,
                             random.Random(check_seed), payload["histogram"])
            if kind == "end_generic":
                # the scalars always lie in End
                require(all(int(k) >= 1 for k in payload["histogram"]), "End of dim 0")
            return payload

        jobs.append([Job(
            "estimate:%s:%s" % (kind, ",".join("%s=%d" % kv for kv in params.items())),
            lambda kind=kind, params=params, trials=trials, seed=seed: (kind, params, trials, seed),
            kl.genericity.estimate,
            check,
        )])
    return jobs


# ---------------------------------------------------------------------------
# lattice: subgroup censuses, isomorphism classes, Hamming recovery

# (subgroups, isomorphism types), known independently of this code
SIGMA = {
    "UT3(F2)": (10, 5),
    "UT3(F3)": (19, 4),
    "Alt5": (59, 9),
    "D4": (10, 5),
    "C8xC27": (16, 16),
    "D4xC27": (40, 20),
    "Sym3^2": (60, 11),
    "Sym3^3": (904, 26),
}
# binary codes of length k and dimension l up to coordinate permutation
CODE_CLASSES = {4: (1, 4, 6, 4, 1), 5: (1, 5, 10, 10, 5, 1)}
CODE_TABLES = [(k, l) for k in (4, 5) for l in range(1, k)]
# code subgroups per round as (k, dim of the code, hamming_recover calls on it)
HAMMING_CODES = ((2, 1, 2), (3, 1, 2), (3, 2, 2), (4, 1, 4), (4, 2, 4), (4, 3, 4))
CENSUS = {"ell": 2, "kinder": 35, "classes": 5}
# sigma_counts jobs per group and round. Sym3^3 is the heavy tail; the
# D4xC27 draws are a block of equal jobs that holds the 90th percentile,
# and the D4 draws one that holds the median. The reference loop that
# scales the timings (hostspeed.py) follows the sub-millisecond Hamming
# recoveries less closely: with the median on them it spread 14% over five
# seeds, and 2% with it on the D4 draws.
SIGMA_DRAWS = {"D4xC27": 12, "D4": 30}


def _lattice_setup(kl):
    sg = kl.smallgrp
    F2 = kl.gf.make_field(2, 1)
    F3 = kl.gf.make_field(3, 1)
    s3 = sg.symmetric_group(3)
    groups = {
        "UT3(F2)": sg.unitriangular_group(3, F2),
        "UT3(F3)": sg.unitriangular_group(3, F3),
        "Alt5": sg.alternating_group(5),
        "D4": sg.dihedral_group(4),
        "C8xC27": sg.direct_product(sg.cyclic_group(8), sg.cyclic_group(27)),
        "D4xC27": sg.direct_product(sg.dihedral_group(4), sg.cyclic_group(27)),
        "Sym3^2": sg.direct_product(s3, s3),
        "Sym3^3": sg.direct_product(s3, sg.direct_product(s3, s3)),
    }
    gammas = {k: kl.altcodes.build_gamma(k) for k in sorted({c[0] for c in HAMMING_CODES})}
    codes = {(k, dim): list(kl.linalg.enumerate_subspaces(k, dim, F2))
             for k, dim, _ in HAMMING_CODES}
    nur = kl.nursery.make_nursery("matrix", a=2, c=1, ctx=F2)
    return {"groups": groups, "gammas": gammas, "codes": codes, "nursery": nur}


def _relabelled(kl, G, rng):
    # the same group law on a shuffled label order, so the indices differ
    labels = list(G.labels)
    rng.shuffle(labels)
    return (kl.smallgrp.SmallGroup(labels, G._mul_label, name=G.name),)


def _hamming_unit(kl, shared, rng, k, dim, calls):
    gam = shared["gammas"][k]
    code = rng.choice(shared["codes"][(k, dim)])
    made = {}

    def check_sub(args, H):
        require(H.n == 3 ** k * 2 ** dim, "code subgroup order %d" % H.n)
        made["H"] = H
        return {"k": k, "code": [list(r) for r in code.basis], "order": H.n}

    unit = [Job("subgroup_from_code:k%d" % k, lambda: (gam, code),
                kl.altcodes.subgroup_from_code, check_sub)]
    for _ in range(calls):
        pick = rng.randrange(1 << 30)

        def prepare(pick=pick):
            H = made["H"]
            return H, H.labels[pick % H.n]

        def check(args, w):
            h = args[1]
            require(w == gam.weight(h), "weight of %r recovered as %r" % (h, w))
            return {"h": list(h), "weight": w}

        unit.append(Job("hamming_recover:k%d" % k, prepare, kl.altcodes.hamming_recover, check))
    return unit


def _lattice_round(kl, shared, rng):
    units = []
    for name, G in shared["groups"].items():
        def check(args, got, name=name):
            require(tuple(got) == SIGMA[name], "%s: sigma %r" % (name, got))
            return {"group": name, "sigma": list(got)}

        for _ in range(SIGMA_DRAWS.get(name, 1)):
            job_rng = random.Random(rng.randrange(1 << 30))
            units.append([Job("sigma_counts:%s" % name,
                              lambda G=G, job_rng=job_rng: _relabelled(kl, G, job_rng),
                              kl.smallgrp.sigma_counts, check)])

    def check_census(args, rep):
        require(rep.kinder_count == CENSUS["kinder"], "kinder %d" % rep.kinder_count)
        require(rep.class_count == CENSUS["classes"], "classes %d" % rep.class_count)
        require(sum(c["members"] for c in rep.classes) == CENSUS["kinder"], "class sizes")
        return rep.to_payload()

    units.append([Job("census:matrix(2,1,F2)",
                      lambda: (shared["nursery"], CENSUS["ell"], True),
                      kl.nursery.census, check_census)])
    for k, l in CODE_TABLES:
        def check_table(args, table, k=k, l=l):
            require(table["classes"] == CODE_CLASSES[k][l], "code classes %d" % table["classes"])
            require(sum(c["size"] for c in table["table"]) == gaussian_count(k, l, 2),
                    "class sizes do not total the subspace count")
            return table

        units.append([Job("code_class_table:%d,%d" % (k, l), lambda k=k, l=l: (k, l),
                          kl.altcodes.code_class_table, check_table)])
    for k, dim, calls in HAMMING_CODES:
        units.append(_hamming_unit(kl, shared, rng, k, dim, calls))
    return units


# ---------------------------------------------------------------------------
# exact: pure-Python solves, reconstruction, certificates, the B2 labeling

# (field order, cap on a*s+b*t, stride): every stride-th shape of the cap,
# so each round solves the same shapes on freshly drawn entries
HOM_JOBS = ((2, 16, 5), (3, 10, 4))
WITNESS_FIELDS = ((2, 1), (3, 1), (2, 2))
SPAN_GRID = [(n, s, q) for q in (2, 3) for n in (1, 2, 3) for s in (1, 2, 3, 4)]
DERIVED_GRID = [(a, b, c, ell, q) for q in (2, 3)
                for a, b, c in ((1, 1, 1), (1, 2, 2), (2, 2, 1)) for ell in range(a * a + 1)]
# per nursery, cycling through the kind dimensions; these hold the 90th
# percentile, as the many small hom solves hold the median
RECONSTRUCTIONS = 25
SUZUKI_E = range(1, 16)
B2_LABELINGS = 20


def _hom_shapes(cap: int):
    return [(a, s, b, t)
            for a in range(1, cap) for s in range(1, cap) if a * s < cap
            for b in range(1, cap) for t in range(1, cap) if a * s + b * t <= cap]


def _exact_setup(kl):
    gf = kl.gf
    fields = {(p, e): gf.make_field(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (2, 3))}
    nurseries = {}
    for label, a, key in (("matrix(2,1,F2)", 2, (2, 1)), ("matrix(1,1,F4)", 1, (2, 2))):
        nur = kl.nursery.make_nursery("matrix", a=a, c=1, ctx=fields[key])
        nurseries[label] = (nur, frozenset(nur.gamma2_labels()),
                            frozenset(nur.gamma3_labels()), frozenset([nur.identity_label()]))
    b8 = kl.twisted.b2_build(fields[(2, 3)])
    return {
        "fields": fields,
        "shapes": {q: _hom_shapes(cap)[::stride] for q, cap, stride in HOM_JOBS},
        "nurseries": nurseries,
        "b2": (b8, b8.group()),
        "b2_payloads": set(),
    }


def _hom_job(kl, shared, q, idx, rng):
    ctx = shared["fields"][(q, 1)]
    a, s, b, t = shared["shapes"][q][idx]
    c = 1 + idx % 3
    sign = 1 if idx % 2 == 0 else -1
    draw = rng.randrange(1 << 30)

    def prepare():
        r = random.Random(draw)
        MS = kl.bimap.MatrixSystem
        return MS.random(ctx, (s, b), c, r), MS.random(ctx, (a, t), c, r), sign

    def check(args, hs):
        phi, ups, sg = args
        rows, unknowns = hom_equations_mod_p(phi, ups, sg, q)
        require(hs.dim_k == unknowns - rank_mod_p(rows, q), "hom dimension")
        flat = []
        for A, B in hs.basis:
            vec = [x for r in A.rows for x in r] + [x for r in B.rows for x in r]
            require(all(sum(x * y for x, y in zip(row, vec)) % q == 0 for row in rows),
                    "basis pair fails the equations")
            flat.append(vec)
        require(rank_mod_p(flat, q) == len(flat), "basis is dependent")
        return {"shape": [a, s, b, t, c, sg], "q": q, "basis": flat}

    return Job("hom_space:F%d" % q, prepare, kl.bimap.hom_space, check)


def _exact_round(kl, shared, rng):
    units = []
    gen = kl.genericity
    for q, _, _ in HOM_JOBS:
        units.extend([_hom_job(kl, shared, q, idx, rng)]
                     for idx in range(len(shared["shapes"][q])))

    for key in WITNESS_FIELDS:
        K = shared["fields"][key]
        for n in range(1, 5):
            for m in range(1, n + 1):
                def check_w(args, hs, m=m, n=n, K=K):
                    require(hs.dim_k == 1, "witness End has dim %d" % hs.dim_k)
                    return {"m": m, "n": n, "q": K.order, "dim_k": hs.dim_k}

                units.append([Job("end_space:witness", lambda m=m, n=n, K=K: (
                    kl.bimap.witness_system(m, n, K),), kl.bimap.end_space, check_w)])

    def check_grid(args, rep):
        rep.check()
        require(rep.exact and sum(rep.histogram.values()) == rep.trials, "exhaustive report")
        if rep.bound is not None:
            require(rep.success * rep.bound.denominator >= rep.bound.numerator * rep.trials,
                    "frequency below the closed-form bound")
        if rep.kind == "span" and rep.params == {"n": 2, "s": 3, "q": 2}:
            require((rep.success, rep.trials) == (42, 64), "span spot value")
        return rep.to_payload()

    for n, s, q in SPAN_GRID:
        units.append([Job("exhaustive_mode:span", lambda n=n, s=s, q=q: (
            "span", {"n": n, "s": s, "q": q}), gen.exhaustive_mode, check_grid)])
    for a, b, c, ell, q in DERIVED_GRID:
        units.append([Job("exhaustive_mode:derived_full", lambda a=a, b=b, c=c, ell=ell, q=q: (
            "derived_full", {"a": a, "b": b, "c": c, "ell": ell, "q": q}),
            gen.exhaustive_mode, check_grid)])

    for label, (nur, g2, g3, ident) in shared["nurseries"].items():
        dims = range(nur.s_subspace().dim, nur.rdim + 1)
        for i in range(RECONSTRUCTIONS):
            draw = rng.randrange(1 << 30)

            def prepare(nur=nur, draw=draw, ell=dims[i % len(dims)]):
                r = random.Random(draw)
                kind = kl.nursery.random_kind(nur, ell, r)
                return (kind,) + tuple(kl.nursery.random_frames(kind, r))

            def check_rec(args, rec, g2=g2, g3=g3, ident=ident, label=label):
                kind = args[0]
                require(rec.X == g2 and rec.Y == g3 and rec.Z == ident, "reconstruction")
                require(len(rec.chi) == kind.order, "chi misses elements")
                return {"nursery": label, "basis": [list(r) for r in kind.subspace.basis],
                        "chi": sorted([list(k), list(v)] for k, v in rec.chi.items())}

            units.append([Job("reconstruct:%s" % label, prepare, kl.nursery.reconstruct,
                              check_rec)])

    tw = kl.twisted
    for e in SUZUKI_E:
        seed = rng.randrange(1 << 30)
        made = {}

        def check_search(args, cert, e=e, made=made):
            require(isinstance(cert, tw.SpanCertificate), "no certificate for e=%d" % e)
            require(len(cert.elements) <= smax(2 * e + 1), "|S| over the bound")
            made["cert"] = cert
            return {"e": e, "cert": cert.to_json()}

        def check_verify(args, ok, e=e):
            require(ok is True, "certificate for e=%d rejected" % e)
            return {"e": e, "verified": ok}

        units.append([
            Job("suzuki_search", lambda e=e, seed=seed: (e, 40, seed), tw.suzuki_search,
                check_search),
            Job("suzuki_verify", lambda made=made: (made["cert"],), tw.suzuki_verify,
                check_verify),
        ])

    F8 = shared["fields"][(2, 3)]

    def check_build(args, b2):
        require(b2.order == 8 ** 4, "B2 order")
        return {"q": 8, "order": b2.order}

    units.append([Job("b2_build:F8", lambda: (F8,), tw.b2_build, check_build)])
    b8, G8 = shared["b2"]
    w = F8.primitive
    for _ in range(B2_LABELINGS):
        draw = rng.randrange(1 << 30)

        def prepare(draw=draw):
            r = random.Random(draw)
            A = {i: (F8.pow(w, i % 7), 0, r.randrange(8), r.randrange(8)) for i in (-1, 0, 1)}
            B = {i: (0, F8.pow(w, i % 7), r.randrange(8), r.randrange(8)) for i in (-1, 0, 1)}
            return b8, G8, A, B

        def check_labels(args, lab):
            require(lab.gamma4 == b8.gamma4_labels(), "gamma4")
            require(len(lab.complement) == 8 and len(lab.coset_value) == 64, "center labels")
            require(lab.q_image == frozenset(range(8)), "image of Q")
            # everything but the A series is independent of the representatives
            payload = {"gamma4": sorted(map(list, lab.gamma4)),
                       "complement": sorted(map(list, lab.complement)),
                       "coset_value": sorted([list(k), v] for k, v in lab.coset_value.items())}
            shared["b2_payloads"].add(repr(payload))
            require(len(shared["b2_payloads"]) == 1, "labeling depends on the representatives")
            return payload

        units.append([Job("b2_labels:F8", prepare, tw.b2_labels, check_labels)])
    return units


SETUP = {"sampling": _sampling_setup, "lattice": _lattice_setup, "exact": _exact_setup}
ROUND = {"sampling": _sampling_round, "lattice": _lattice_round, "exact": _exact_round}


def make_round(workload: str, kl, shared, seed, index: int):
    """The jobs of round `index`, from the workload seed alone."""
    rng = random.Random("%s:%s:%d" % (workload, seed, index))
    units = ROUND[workload](kl, shared, rng)
    rng.shuffle(units)
    return list(itertools.chain.from_iterable(units))
