"""Command line front end.

Every command emits one versioned JSON report: the configuration echoed
verbatim, a results payload, and wall-clock timing.  Timing sits next to
the results rather than inside them, so the payload for a fixed config is
byte-for-byte reproducible (stochastic commands require --seed for the
same reason).  Reports go to stdout or --out; Suzuki certificates are
written as separate files so they can be shipped and re-verified alone.

At desk scale each command finishes in seconds to minutes, so the runner
executes tasks sequentially in submission order; nothing here needs a
worker pool, and report merging stays trivial.

Exit codes: 0 success, 1 verify-suite failure, 2 invalid configuration,
3 cap exceeded, 4 property violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field

from . import acceptance, altcodes, arith, bimap, genericity, nursery, twisted
from .errors import CapExceededError, InvalidConfigError, PropertyViolationError, need
from .gf import FieldError, make_field, make_field_from_order

ARTIFACT_VERSION = "kinderlab-report/1"

EXIT_OK = 0
EXIT_SUITE = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_PROPERTY = 4

@dataclass
class RunConfig:
    command: str
    params: dict
    seed: int | None = None
    trials: int | None = None
    caps: dict = field(default_factory=dict)
    out: str | None = None

    def echo(self) -> dict:
        return {
            "command": self.command,
            "params": dict(self.params),
            "seed": self.seed,
            "trials": self.trials,
            "caps": dict(self.caps),
            "out": self.out,
        }


@dataclass
class Report:
    config: RunConfig
    version: str
    results: dict
    elapsed_s: float

    def to_payload(self) -> dict:
        return {
            "version": self.version,
            "config": self.config.echo(),
            "results": self.results,
            "elapsed_s": self.elapsed_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2)


def _require_seed(config: RunConfig):
    if config.seed is None:
        raise InvalidConfigError("--seed is required for stochastic commands")


def _get(values: dict, name: str, default):
    """values[name], or default only where it is absent or None (so 0 stays 0)."""
    value = values.get(name)
    return default if value is None else value


def _count(values: dict, name: str, default: int, low: int = 0) -> int:
    """`_get` for a count: InvalidConfigError unless an int of at least low."""
    (value,) = need({name: _get(values, name, default)}, name, counts=True)
    if value < low:
        raise InvalidConfigError("parameter %r must be at least %d" % (name, low))
    return value


# ---------------------------------------------------------------------------
# command handlers


def _cmd_field_check(config: RunConfig) -> dict:
    p, e = need(config.params, "p", "e")
    F = make_field(p, e)
    return {
        "p": F.p,
        "e": F.e,
        "order": F.order,
        "modulus": list(F.modulus),
        "modulus_string": F.modulus_string(),
        "checks": F.validate(),
    }


def _cmd_hom(config: RunConfig) -> dict:
    _require_seed(config)
    a, s, b, t = (_count(config.params, n, None, low=1) for n in ("a", "s", "b", "t"))
    c = _count(config.params, "c", 2)
    q = _get(config.params, "q", 2)
    sign = _get(config.params, "sign", 1)
    trials = _count({"trials": config.trials}, "trials", 10, low=1)
    K = make_field_from_order(q)
    rng = random.Random(config.seed)
    dims = []
    for _ in range(trials):
        phi = bimap.MatrixSystem.random(K, (s, b), c, rng)
        ups = bimap.MatrixSystem.random(K, (a, t), c, rng)
        hs = bimap.hom_space(phi, ups, sign)
        dims.append({"dim_k": hs.dim_k, "dim_fp": hs.dim_fp})
    hist = {}
    for d in dims:
        key = str(d["dim_k"])
        hist[key] = hist.get(key, 0) + 1
    return {
        "shape": {"a": a, "s": s, "b": b, "t": t, "c": c, "q": q, "sign": sign},
        "unknowns": a * s + b * t,
        "systems": dims,
        "dim_hist": hist,
    }


def _cmd_witness(config: RunConfig) -> dict:
    m, n = need(config.params, "m", "n")
    q = _get(config.params, "q", 2)
    K = make_field_from_order(q)
    W = bimap.witness_system(m, n, K)
    hs = bimap.end_space(W)
    return {
        "m": m,
        "n": n,
        "q": q,
        "matrices": len(W.mats),
        "end_dim_k": hs.dim_k,
        "end_dim_fp": hs.dim_fp,
    }


def _cmd_generic(config: RunConfig) -> dict:
    (kind,) = need(config.params, "kind")
    mode = _get(config.params, "mode", "estimate")
    if mode not in ("estimate", "exhaustive"):
        raise InvalidConfigError("generic mode must be estimate or exhaustive")
    params = {
        k: v
        for k, v in config.params.items()
        if k in ("n", "s", "m", "a", "b", "c", "ell", "q") and v is not None
    }
    if mode == "exhaustive":
        rep = genericity.exhaustive_mode(kind, params)
    else:
        _require_seed(config)
        trials = _count({"trials": config.trials}, "trials", 1000, low=1)
        rep = genericity.estimate(kind, params, trials, seed=config.seed)
    return rep.to_payload()


def _make_nursery(params: dict) -> nursery.ModuleNursery:
    (kind,) = need(params, "kind")
    if kind == "matrix":
        a, c, q = need(params, "a", "c", "q")
        return nursery.make_nursery("matrix", a=a, c=c, ctx=make_field_from_order(q))
    if kind == "unitary":
        p, e = need(params, "p", "e")
        return nursery.make_nursery("unitary", p=p, e=e)
    if kind == "b2_odd":
        (q,) = need(params, "q")
        return nursery.make_nursery("b2_odd", ctx=make_field_from_order(q))
    if kind == "ree_small":
        (e,) = need(params, "e")
        return nursery.make_nursery("ree_small", e=e)
    raise InvalidConfigError("unknown nursery kind %r" % kind)


def _cmd_census(config: RunConfig) -> dict:
    nur = _make_nursery(config.params)
    ell = _get(config.params, "ell", nur.s_subspace().dim)
    mode = _get(config.params, "mode", "strict")
    if mode not in ("strict", "relaxed"):
        raise InvalidConfigError("census mode must be strict or relaxed")
    max_kinder = _count(config.caps, "subgroups", 4096)
    max_order = _count(config.caps, "iso", nursery.GROUP_ORDER_CAP)
    rep = nursery.census(nur, ell, relaxed=(mode == "relaxed"), max_kinder=max_kinder,
                         max_order=max_order)
    return rep.to_payload()


def _cmd_reconstruct(config: RunConfig) -> dict:
    _require_seed(config)
    trials = _count({"trials": config.trials}, "trials", 10, low=1)
    nur = _make_nursery(config.params)
    rng = random.Random(config.seed)
    lo = nur.s_subspace().dim
    ell_fixed = config.params.get("ell")
    g2 = frozenset(nur.gamma2_labels())
    g3 = frozenset(nur.gamma3_labels())
    ident = frozenset([nur.identity_label()])
    good = 0
    dims = []
    for _ in range(trials):
        ell = ell_fixed if ell_fixed is not None else rng.randint(lo, nur.rdim)
        kind = nursery.random_kind(nur, ell, rng)
        rho, mu = nursery.random_frames(kind, rng)
        rec = nursery.reconstruct(kind, rho, mu)
        if rec.X == g2 and rec.Y == g3 and rec.Z == ident:
            good += 1
        dims.append(ell)
    return {
        "nursery": nur.describe(),
        "trials": trials,
        "exact_recoveries": good,
        "dims": dims,
    }


def _cmd_alt_codes(config: RunConfig) -> dict:
    k, l = need(config.params, "k", "l")
    return altcodes.code_class_table(k, l)


def _cmd_suzuki_search(config: RunConfig) -> dict:
    _require_seed(config)
    (e,) = need(config.params, "e")
    budget = _count(config.params, "budget", 40, low=1)
    res = twisted.suzuki_search(e, budget=budget, seed=config.seed)
    if isinstance(res, twisted.SearchFailure):
        return {"found": False, **res._asdict()}
    path = _get(config.params, "cert", "suzuki_cert_e%d.json" % e)
    try:
        with open(path, "w") as fh:
            fh.write(res.to_json())
    except OSError as exc:
        raise InvalidConfigError("cannot write certificate: %s" % exc) from None
    return {
        "found": True,
        "e": res.e,
        "degree": res.degree,
        "s_size": len(res.elements),
        "s_bound": twisted._smax(res.degree),
        "pairs": len(res.pairs),
        "verified": twisted.suzuki_verify(res),
        "certificate_path": path,
    }


def _cmd_suzuki_verify(config: RunConfig) -> dict:
    (path,) = need(config.params, "cert")
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidConfigError("cannot read certificate: %s" % exc) from None
    cert = twisted.SpanCertificate.from_json(text)
    return {
        "valid": twisted.suzuki_verify(cert),
        "e": cert.e,
        "degree": cert.degree,
        "s_size": len(cert.elements),
    }


def _cmd_arith(config: RunConfig) -> dict:
    (op,) = need(config.params, "op")
    if op == "legendre":
        k, p = need(config.params, "k", "p")
        return {"valuation": arith.legendre_valuation(k, p)}
    if op == "nu":
        n, p = need(config.params, "n", "p")
        return {"valuation": arith.nu_p(n, p)}
    if op == "mu":
        (n,) = need(config.params, "n")
        return {"mu": arith.mu(n)}
    if op == "factorize":
        (n,) = need(config.params, "n")
        return {"factors": [[p, e] for p, e in arith.factorize(n)]}
    if op == "wall-bound":
        (n,) = need(config.params, "n")
        return {"log_bound": arith.wall_log_bound(n)}
    raise InvalidConfigError("unknown arith op %r" % op)


def _cmd_b2_demo(config: RunConfig) -> dict:
    q = _get(config.params, "q", 8)
    F = make_field_from_order(q)
    b2 = twisted.b2_build(F)
    G = b2.group()
    w = F.primitive
    A = {i: (F.pow(w, i % (q - 1)), 0, 0, 0) for i in (-1, 0, 1)}
    B = {i: (0, F.pow(w, i % (q - 1)), 0, 0) for i in (-1, 0, 1)}
    lab = twisted.b2_labels(b2, G, A, B)
    return {
        "q": q,
        "order": G.n,
        "gamma3_size": len(list(b2.gamma3_labels())),
        "gamma4_size": len(lab.gamma4),
        "complement_size": len(lab.complement),
        "a_series": {str(k): list(v) for k, v in sorted(lab.a_series.items())},
        "q_image": sorted(lab.q_image),
        "q_image_is_field": frozenset(range(q)) == lab.q_image,
    }


def _cmd_verify(config: RunConfig) -> dict:
    tier = _get(config.params, "tier", "fast")
    if tier not in ("fast", "full"):
        raise InvalidConfigError("tier must be fast or full")
    rows = []
    for idx, _, _ in acceptance.CRITERIA:
        r = acceptance.run_criterion(idx, tier)
        rows.append({"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail,
                     "elapsed_s": round(r.elapsed_s, 3)})
        print("[%2d/%d] %s %-24s (%.1fs) %s" % (r.index, len(acceptance.CRITERIA),
              "PASS" if r.passed else "FAIL", r.name, r.elapsed_s, r.detail), file=sys.stderr)
    failing = [r["name"] for r in rows if not r["passed"]]
    if failing:
        print("FAILED criteria: %s" % ", ".join(failing), file=sys.stderr)
    return {"tier": tier, "criteria": rows, "all_passed": not failing}


_HANDLERS = {
    "field-check": _cmd_field_check,
    "hom": _cmd_hom,
    "witness": _cmd_witness,
    "generic": _cmd_generic,
    "nursery-census": _cmd_census,
    "reconstruct": _cmd_reconstruct,
    "alt-codes": _cmd_alt_codes,
    "suzuki-search": _cmd_suzuki_search,
    "suzuki-verify": _cmd_suzuki_verify,
    "arith": _cmd_arith,
    "b2-demo": _cmd_b2_demo,
    "verify": _cmd_verify,
}


def run(config: RunConfig) -> Report:
    """Execute one command; raises the library error on failure."""
    if config.command not in _HANDLERS:
        raise InvalidConfigError("unknown command %r" % config.command)
    t0 = time.time()
    results = _HANDLERS[config.command](config)
    return Report(config, ARTIFACT_VERSION, results, round(time.time() - t0, 6))


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    # --out is common; every other flag belongs to the subcommands that read it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, help="PRNG seed (required for stochastic commands)")
    sampled = argparse.ArgumentParser(add_help=False, parents=[seeded])
    sampled.add_argument("--trials", type=int, help="number of random trials")

    ap = argparse.ArgumentParser(
        prog="kinderlab",
        description="desk-scale workbench for small p-group linear algebra experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field-check", parents=[common], help="build a field and re-check its invariants")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)

    sp = sub.add_parser("hom", parents=[sampled], help="solve random twisted hom systems")
    for flag in ("--a", "--s", "--b", "--t"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--c", type=int, default=2)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--sign", type=int, choices=(1, -1), default=1)

    sp = sub.add_parser("witness", parents=[common], help="endomorphisms of a witness system")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, default=2)

    sp = sub.add_parser("generic", parents=[sampled], help="genericity frequency, sampled or exhaustive")
    sp.add_argument("--kind", required=True, choices=genericity.KINDS)
    sp.add_argument("--mode", choices=("estimate", "exhaustive"), help="default estimate")
    for flag in ("--n", "--s", "--m", "--a", "--b", "--c", "--ell", "--q"):
        sp.add_argument(flag, type=int)

    sp = sub.add_parser("nursery-census", parents=[common], help="classify every kind of one dimension")
    sp.add_argument("--kind", required=True, choices=("matrix", "unitary", "b2_odd", "ree_small"))
    sp.add_argument("--mode", choices=("strict", "relaxed"), help="default strict")
    sp.add_argument("--cap-subgroups", type=int, help="enumeration cap for subgroup counts")
    sp.add_argument("--cap-iso", type=int, help="order cap for isomorphism classification")
    for flag in ("--a", "--c", "--p", "--e", "--q", "--ell"):
        sp.add_argument(flag, type=int)

    sp = sub.add_parser("reconstruct", parents=[sampled], help="rebuild the filtration from group multiplication")
    sp.add_argument("--kind", required=True, choices=("matrix", "unitary", "b2_odd", "ree_small"))
    for flag in ("--a", "--c", "--p", "--e", "--q", "--ell"):
        sp.add_argument(flag, type=int)

    sp = sub.add_parser("alt-codes", parents=[common], help="code classes inside (Sym_3)^k")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)

    sp = sub.add_parser("suzuki-search", parents=[seeded], help="search for a small spanning certificate")
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--budget", type=int, default=40)
    sp.add_argument("--cert", help="certificate output path (default suzuki_cert_e<e>.json)")

    sp = sub.add_parser("suzuki-verify", parents=[common], help="re-verify a certificate file")
    sp.add_argument("--cert", required=True)

    sp = sub.add_parser("arith", parents=[common], help="factorial valuations and friends")
    sp.add_argument("--op", required=True, choices=("legendre", "nu", "mu", "factorize", "wall-bound"))
    for flag in ("--k", "--p", "--n"):
        sp.add_argument(flag, type=int)

    sp = sub.add_parser("b2-demo", parents=[common], help="run the center-labeling recurrence over F_q")
    sp.add_argument("--q", type=int, default=8)

    sp = sub.add_parser("verify", parents=[common], help="run the acceptance criteria suite")
    sp.add_argument("--tier", choices=("fast", "full"), default="fast")

    return ap


_COMMON_KEYS = {"command", "seed", "trials", "out", "cap_subgroups", "cap_iso"}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    opts = vars(args)
    params = {k: v for k, v in opts.items() if k not in _COMMON_KEYS and v is not None}
    caps = {}
    if opts.get("cap_subgroups") is not None:
        caps["subgroups"] = opts["cap_subgroups"]
    if opts.get("cap_iso") is not None:
        caps["iso"] = opts["cap_iso"]
    return RunConfig(
        command=args.command,
        params=params,
        seed=opts.get("seed"),
        trials=opts.get("trials"),
        caps=caps,
        out=args.out,
    )


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generic" and args.mode == "exhaustive":
        for flag in ("seed", "trials"):
            if getattr(args, flag) is not None:
                parser.error("--%s is not read in exhaustive mode" % flag)
    config = _config_from_args(args)
    try:
        report = run(config)
    except (InvalidConfigError, FieldError) as exc:
        print("error (invalid-config): %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except CapExceededError as exc:
        print("error (cap-exceeded): %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except PropertyViolationError as exc:
        print("error (property-violation): %s" % exc, file=sys.stderr)
        return EXIT_PROPERTY
    _emit(report.to_json(), config.out)
    return EXIT_OK if report.results.get("all_passed", True) else EXIT_SUITE


if __name__ == "__main__":
    sys.exit(main())
