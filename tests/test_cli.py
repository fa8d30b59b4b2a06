"""CLI: report schema, frozen payloads, exit-code mapping, determinism."""

import json
import time

import pytest

from kinderlab import acceptance, altcodes, cli, genericity, nursery, smallgrp
from kinderlab.errors import InvalidConfigError, PropertyViolationError


def run_config(command, params, **kw):
    return cli.run(cli.RunConfig(command=command, params=params, **kw))


def test_arith_legendre_payload():
    rep = run_config("arith", {"op": "legendre", "k": 10, "p": 2})
    assert rep.results == {"valuation": 8}
    assert rep.version == cli.ARTIFACT_VERSION


def test_generic_span_exhaustive_payload():
    rep = run_config("generic", {"kind": "span", "n": 2, "s": 3, "q": 2, "mode": "exhaustive"})
    assert rep.results["frequency"] == 0.65625
    assert rep.results["paper_bound"] == 0.625
    assert rep.results["exact"] is True


GENERIC_PARAMS = {
    "span": {"n": 2, "s": 2, "q": 3},
    "end_generic": {"m": 1, "n": 2, "s": 2, "q": 2},
    "hom_pm_transpose": {"m": 1, "n": 2, "s": 2, "q": 2},
    "lambda_end": {"a": 1, "b": 2, "c": 2, "q": 2},
    "nucleus": {"a": 2, "b": 2, "c": 1, "ell": 2, "q": 2},
    "derived_full": {"a": 2, "b": 2, "ell": 2, "q": 2},
}


@pytest.mark.parametrize("mode", ["estimate", "exhaustive"])
@pytest.mark.parametrize("kind", sorted(GENERIC_PARAMS))
def test_generic_every_kind_serializes(kind, mode):
    assert set(GENERIC_PARAMS) == set(genericity.KINDS)
    params = dict(GENERIC_PARAMS[kind], kind=kind, mode=mode)
    rep = run_config("generic", params, seed=3, trials=25)
    text = json.dumps(rep.to_payload(), sort_keys=True)
    results = json.loads(text)["results"]
    assert results["kind"] == kind and results["exact"] is (mode == "exhaustive")
    assert results["params"] == GENERIC_PARAMS[kind]
    assert results["frequency_exact"] == "%d/%d" % (results["success"], results["trials"])
    assert sum(results["histogram"].values()) == results["trials"]


def test_generic_end_generic_large_prime_never_dim_zero():
    # the scalars always lie in End; a wrong fast rank once reported dim 0
    assert cli.main(["generic", "--kind", "end_generic", "--m", "2", "--n", "2", "--s", "2",
                     "--q", "251", "--trials", "20", "--seed", "1"]) == 0
    rep = run_config("generic", {"kind": "end_generic", "m": 2, "n": 2, "s": 2, "q": 251},
                     seed=1, trials=20)
    assert "0" not in rep.results["histogram"]
    assert sum(rep.results["histogram"].values()) == 20


def test_report_echoes_config():
    cfg = cli.RunConfig(
        command="witness",
        params={"m": 2, "n": 3, "q": 4},
        seed=9,
        trials=7,
        caps={"subgroups": 100},
        out="somewhere.json",
    )
    payload = cli.run(cfg).to_payload()
    assert payload["config"] == {
        "command": "witness",
        "params": {"m": 2, "n": 3, "q": 4},
        "seed": 9,
        "trials": 7,
        "caps": {"subgroups": 100},
        "out": "somewhere.json",
    }
    assert "elapsed_s" in payload and "results" in payload


def test_witness_results():
    rep = run_config("witness", {"m": 3, "n": 3, "q": 3})
    assert rep.results["end_dim_k"] == 1


def test_field_check_results():
    rep = run_config("field-check", {"p": 2, "e": 8})
    assert rep.results["order"] == 256
    assert all(rep.results["checks"].values())


def test_hom_deterministic_payload():
    cfg = dict(command="hom", params={"a": 2, "s": 2, "b": 2, "t": 2, "c": 2, "q": 3})
    r1 = cli.run(cli.RunConfig(seed=7, trials=6, **cfg))
    r2 = cli.run(cli.RunConfig(seed=7, trials=6, **cfg))
    assert json.dumps(r1.results, sort_keys=True) == json.dumps(r2.results, sort_keys=True)
    assert sum(r1.results["dim_hist"].values()) == 6


def test_json_report_valid():
    rep = run_config("alt-codes", {"k": 3, "l": 1})
    parsed = json.loads(rep.to_json())
    assert parsed["results"]["classes"] == 3


def test_b2_demo():
    rep = run_config("b2-demo", {"q": 4})
    assert rep.results["order"] == 256
    assert rep.results["q_image_is_field"] is True


def test_nursery_census_command():
    rep = run_config(
        "nursery-census", {"kind": "matrix", "a": 2, "c": 1, "q": 2, "ell": 3}
    )
    assert rep.results["kinder_count"] == 1 and rep.results["class_count"] == 1


def test_nursery_census_cap_iso_enforced(tmp_path, capsys):
    # the kinder of matrix(1,1,F2) at ell = 1 have order 8
    args = ["nursery-census", "--kind", "matrix", "--a", "1", "--c", "1", "--q", "2",
            "--ell", "1", "--mode", "relaxed"]
    out = tmp_path / "r.json"
    assert cli.main(args + ["--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["results"]["kinder_count"] == 1
    assert cli.main(args + ["--cap-iso", "8"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(args + ["--cap-iso", "4"]) == cli.EXIT_CAP
    assert "kind order 8 over cap 4" in capsys.readouterr().err


def test_reconstruct_command():
    rep = run_config(
        "reconstruct",
        {"kind": "matrix", "a": 1, "c": 1, "q": 2},
        seed=3,
        trials=4,
    )
    assert rep.results["exact_recoveries"] == 4


def test_suzuki_roundtrip_via_cli(tmp_path):
    cert = tmp_path / "cert.json"
    rep = run_config("suzuki-search", {"e": 4, "cert": str(cert)}, seed=1)
    assert rep.results["found"] is True and rep.results["verified"] is True
    assert cert.exists()
    rep2 = run_config("suzuki-verify", {"cert": str(cert)})
    assert rep2.results == {
        "valid": True,
        "e": 4,
        "degree": 9,
        "s_size": rep.results["s_size"],
    }


def test_main_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["arith", "--op", "legendre", "--k", "10", "--p", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"] == {"valuation": 8}
    # invalid config: seed missing for a stochastic command
    assert cli.main(["hom", "--a", "1", "--s", "1", "--b", "1", "--t", "1"]) == 2
    # invalid config: q not a prime power
    assert cli.main(["witness", "--m", "1", "--n", "1", "--q", "6"]) == 2
    # cap exceeded
    assert cli.main(["alt-codes", "--k", "9", "--l", "2"]) == 3


def test_suzuki_verify_refuses_a_degree_over_the_cap(tmp_path, capsys):
    # a well-formed certificate over GF(2^1003), an irreducible modulus: the
    # cap, not the field check, must refuse it
    cert = tmp_path / "cert.json"
    modulus = [int(i in (0, 1, 4, 5, 6, 8, 1003)) for i in range(1004)]
    cert.write_text(json.dumps({"e": 501, "modulus": modulus, "elements": ["1"], "pairs": [[0, 0]]}))
    assert cli.main(["suzuki-verify", "--cert", str(cert)]) == cli.EXIT_INVALID
    assert "supported degrees" in capsys.readouterr().err


def test_main_property_violation_exit(monkeypatch):
    def boom(config):
        raise PropertyViolationError("synthetic")

    monkeypatch.setitem(cli._HANDLERS, "arith", boom)
    assert cli.main(["arith", "--op", "mu", "--n", "8"]) == 4


def test_alt_codes_exits_4_when_the_orbits_fall_below_the_bound(monkeypatch, capsys):
    # ceil(2^(l(k-l)) / k!) is at most 1 for every k <= 6, so a merge of two
    # orbits never falls below it; an orbit list that lost every orbit does
    real = altcodes._orbits
    monkeypatch.setattr(altcodes, "_orbits", lambda k, l: (real(k, l)[0], []))
    assert cli.main(["alt-codes", "--k", "3", "--l", "1"]) == cli.EXIT_PROPERTY
    assert "permutation bound" in capsys.readouterr().err
    with pytest.raises(PropertyViolationError, match="permutation bound"):
        altcodes.code_class_table(3, 1)


def test_a_nursery_census_over_the_gamma2_cap_exits_cap_at_once(monkeypatch, capsys):
    # Gamma_2 of matrix(8, 8, F2) has 2^128 elements, so no kind can be built:
    # the constructor refuses it before its first check
    def unreached(self):
        raise PropertyViolationError("checked a nursery over the cap")

    monkeypatch.setattr(nursery.ModuleNursery, "_check_closure", unreached)
    start = time.perf_counter()
    args = ["nursery-census", "--kind", "matrix", "--a", "8", "--c", "8", "--q", "2", "--mode", "relaxed"]
    assert cli.main(args) == cli.EXIT_CAP
    assert time.perf_counter() - start < 10
    assert "2^128 over cap" in capsys.readouterr().err


def test_verify_tier_validation():
    with pytest.raises(InvalidConfigError, match="tier"):
        run_config("verify", {"tier": "nope"})


def test_verify_writes_the_report_envelope_and_exits_1_on_a_failure(tmp_path, monkeypatch, capsys):
    def fails(tier):
        raise PropertyViolationError("synthetic")

    monkeypatch.setattr(acceptance, "CRITERIA", ((1, "passes", lambda tier: "ok"), (2, "fails", fails)))
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_SUITE
    payload = json.loads(out.read_text())
    assert payload["version"] == cli.ARTIFACT_VERSION
    assert payload["config"]["command"] == "verify" and payload["config"]["params"] == {"tier": "fast"}
    results = payload["results"]
    assert results["tier"] == "fast" and results["all_passed"] is False
    assert [(c["index"], c["name"], c["passed"], c["detail"]) for c in results["criteria"]] == [
        (1, "passes", True, "ok"), (2, "fails", False, "PropertyViolationError: synthetic")]
    err = capsys.readouterr().err
    assert "PASS passes" in err and "FAIL fails" in err and "FAILED criteria: fails" in err


def test_unknown_command_rejected():
    with pytest.raises(Exception):
        cli.run(cli.RunConfig(command="mystery", params={}))


def test_mode_only_where_it_is_read(capsys):
    assert cli.main(["generic", "--kind", "span", "--n", "2", "--s", "3", "--q", "2",
                     "--mode", "exhaustive"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["exact"] is True
    assert cli.main(["nursery-census", "--kind", "matrix", "--a", "1", "--c", "1", "--q", "2",
                     "--ell", "0", "--mode", "relaxed"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["relaxed"] is True
    rejected = [
        ["generic", "--kind", "span", "--n", "2", "--s", "3", "--q", "2", "--mode", "relaxed"],
        ["nursery-census", "--kind", "matrix", "--a", "1", "--c", "1", "--q", "2",
         "--mode", "exhaustive"],
        ["hom", "--a", "1", "--s", "1", "--b", "1", "--t", "1", "--seed", "1", "--mode", "x"],
        ["field-check", "--p", "2", "--e", "1", "--mode", "estimate"],
        ["witness", "--m", "1", "--n", "1", "--mode", "estimate"],
        ["reconstruct", "--kind", "matrix", "--a", "1", "--c", "1", "--q", "2", "--seed", "1",
         "--mode", "strict"],
        ["alt-codes", "--k", "1", "--l", "1", "--mode", "strict"],
        ["suzuki-search", "--e", "1", "--seed", "1", "--mode", "estimate"],
        ["suzuki-verify", "--cert", "c.json", "--mode", "estimate"],
        ["arith", "--op", "mu", "--n", "8", "--mode", "estimate"],
        ["b2-demo", "--q", "4", "--mode", "estimate"],
        ["verify", "--mode", "estimate"],
        # exhaustive mode enumerates every instance: no trial count, no seed
        ["generic", "--kind", "span", "--n", "2", "--s", "3", "--q", "2", "--mode", "exhaustive",
         "--trials", "5"],
        ["generic", "--kind", "span", "--n", "2", "--s", "3", "--q", "2", "--mode", "exhaustive",
         "--seed", "3"],
    ]
    for argv in rejected:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_INVALID, argv


def test_zero_is_not_replaced_by_the_default():
    rep = run_config("hom", {"a": 1, "s": 1, "b": 1, "t": 1, "c": 0, "q": 3}, seed=1, trials=2)
    # no matrices, so no equations: every pair (A, B) is a hom
    assert rep.results["shape"]["c"] == 0
    assert rep.results["systems"] == [{"dim_k": 2, "dim_fp": 2}] * 2


@pytest.mark.parametrize("argv", [
    ["generic", "--kind", "span", "--n", "2", "--s", "2", "--q", "2", "--seed", "1",
     "--trials", "0"],
    ["hom", "--a", "1", "--s", "1", "--b", "1", "--t", "1", "--seed", "1", "--trials", "-2"],
    ["hom", "--a", "1", "--s", "1", "--b", "1", "--t", "1", "--seed", "1", "--c", "-1"],
    ["reconstruct", "--kind", "matrix", "--a", "1", "--c", "1", "--q", "2", "--seed", "1",
     "--trials", "-3"],
    ["suzuki-search", "--e", "1", "--seed", "1", "--budget", "0"],
    ["alt-codes", "--k", "3", "--l", "9"],
    ["alt-codes", "--k", "2", "--l", "-1"],
    ["alt-codes", "--k", "-1", "--l", "1"],
], ids=["generic-trials-0", "hom-trials-neg", "hom-c-neg", "reconstruct-trials-neg",
        "suzuki-budget-0", "alt-codes-l-over-k", "alt-codes-l-neg", "alt-codes-k-neg"])
def test_counts_out_of_range_exit_invalid(argv, capsys):
    assert cli.main(argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error (invalid-config)") and "Traceback" not in err


# one cheap valid invocation per subcommand, int flags first
CHEAP = {
    "field-check": ["--p", "2", "--e", "2"],
    "hom": ["--a", "1", "--s", "1", "--b", "1", "--t", "1", "--c", "1", "--q", "2",
            "--seed", "1", "--trials", "1"],
    "witness": ["--m", "1", "--n", "2", "--q", "2"],
    "generic": ["--n", "1", "--s", "1", "--q", "2", "--seed", "1", "--trials", "1",
                "--kind", "span"],
    "nursery-census": ["--a", "1", "--c", "1", "--q", "2", "--ell", "1", "--cap-subgroups", "8",
                       "--cap-iso", "8", "--kind", "matrix"],
    "reconstruct": ["--a", "1", "--c", "1", "--q", "2", "--seed", "1", "--trials", "1",
                    "--kind", "matrix"],
    "alt-codes": ["--k", "2", "--l", "1"],
    "suzuki-search": ["--e", "1", "--seed", "1", "--budget", "1"],
    "suzuki-verify": ["--cert", "missing.json"],
    "arith": ["--k", "3", "--p", "2", "--n", "3", "--op", "legendre"],
    "b2-demo": ["--q", "2"],
}
# values just over a cap, where the subcommand has one (exit 3, or 2 for the
# Suzuki degree range)
OVER_CAP = [
    ("witness", ["--n", "21", "--m", "21"]),
    ("generic", ["--mode", "exhaustive", "--n", "5", "--s", "5"]),
    ("alt-codes", ["--k", "7", "--l", "1"]),
    ("suzuki-search", ["--e", "501"]),
    ("b2-demo", ["--q", "32"]),
    ("b2-demo", ["--q", "1024"]),
    ("nursery-census", ["--cap-iso", "7"]),
    ("nursery-census", ["--cap-subgroups", "0"]),
]


def _with(argv, extra):
    out = list(argv)
    for flag, value in zip(extra[::2], extra[1::2]):
        if flag in out:
            out[out.index(flag) + 1] = value
        else:
            out += [flag, value]
    return out


@pytest.mark.parametrize("command", sorted(CHEAP))
def test_boundary_integers_end_in_a_documented_exit(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # suzuki-search writes its certificate here
    base = CHEAP[command]
    flags = [f for f, v in zip(base[::2], base[1::2]) if v.lstrip("-").isdigit()]
    runs = [(_with(base, [f, v]), (0, 2, 3, 4)) for f in flags for v in ("0", "-1")]
    runs += [(_with(base, extra), (2, 3)) for cmd, extra in OVER_CAP if cmd == command]
    for argv, allowed in runs:
        try:
            code = cli.main([command] + argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in allowed and "Traceback" not in err, (command, argv, code, err)


# the per-subcommand flags besides --out, and who reads them
READERS = {
    "--seed": {"hom", "generic", "reconstruct", "suzuki-search"},
    "--trials": {"hom", "generic", "reconstruct"},
    "--cap-subgroups": {"nursery-census"},
    "--cap-iso": {"nursery-census"},
}


def test_seed_trials_and_caps_only_where_they_are_read():
    parser = cli.build_parser()
    for command, base in sorted(CHEAP.items()):
        for flag, readers in READERS.items():
            argv = [command] + _with(base, [flag, "4"])
            if command in readers:
                args = parser.parse_args(argv)
                config = cli._config_from_args(args)
                assert 4 in (config.seed, config.trials, *config.caps.values()), argv
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == cli.EXIT_INVALID, argv
    for flag in READERS:
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", flag, "1"])
    args = parser.parse_args(["field-check", "--p", "2", "--e", "1", "--out", "r.json"])
    assert cli._config_from_args(args).echo()["seed"] is None


def test_an_exhausted_isomorphism_budget_exits_cap(monkeypatch, capsys):
    monkeypatch.setattr(smallgrp, "_ISO_NODE_BUDGET", 0)
    args = ["nursery-census", "--kind", "matrix", "--a", "2", "--c", "1", "--q", "2",
            "--ell", "2", "--mode", "relaxed"]
    assert cli.main(args) == cli.EXIT_CAP == 3
    assert "isomorphism search budget exhausted" in capsys.readouterr().err
