"""Command-line surface: artifact shape, option precedence, exit codes."""

import json
import math

import pytest

from srrw.cli import CliError, main, mu_from_cli, render_bytes
from srrw.elephant import cycle_distribution, eval_stable, z2_return_gap
from srrw.groups import (CycleZL, EuclideanRd, IntegerLatticeZd, LamplighterZ,
                         RegularTreeFree, S3xZ, StepDistribution,
                         group_from_literal)
from srrw.reports import VERSION, parse_csv


def test_simulate_point_mass_artifact():
    data = render_bytes(["simulate", "--group", "lattice:1", "--alpha", "0.5",
                         "--mu", "gens", "--n", "4,8", "--trials", "2000",
                         "--target", "e", "--seed", "5"])
    meta, columns, rows = parse_csv(data)
    assert meta["version"] == VERSION
    assert meta["seed"] == "5"
    assert len(meta["config"]) == 12
    assert columns == ["n", "estimate", "stderr", "lo", "hi", "trials"]
    assert [r[0] for r in rows] == [4, 8]
    for r in rows:
        assert 0.0 <= r[1] <= 1.0
        assert r[5] == 2000


def test_simulate_ball_artifact():
    data = render_bytes(["simulate", "--group", "lattice:2", "--alpha", "0.3",
                         "--mu", "lazy", "--n", "8", "--trials", "1000",
                         "--ball-r", "3.0", "--seed", "5"])
    _, columns, rows = parse_csv(data)
    assert columns[0] == "n"
    assert len(rows) == 1


def test_simulate_needs_one_objective():
    with pytest.raises(CliError, match="exactly one"):
        render_bytes(["simulate", "--group", "cycle:4", "--alpha", "0.5",
                      "--mu", "lazy", "--n", "4", "--trials", "100"])
    with pytest.raises(CliError, match="exactly one"):
        render_bytes(["simulate", "--group", "lattice:1", "--alpha", "0.5",
                      "--mu", "gens", "--n", "4", "--trials", "100",
                      "--target", "e", "--ball-r", "2.0"])


def test_exact_artifact_matches_known_value():
    data = render_bytes(["exact", "--group", "z2", "--alpha", "0.5",
                         "--mu", "lazy", "--n", "4"])
    _, columns, rows = parse_csv(data)
    assert columns == ["key", "probability"]
    by_key = {r[0]: r[1] for r in rows}
    assert math.isclose(sum(by_key.values()), 1.0, abs_tol=1e-12)
    gap = z2_return_gap(0.5, 4)
    assert math.isclose(max(by_key.values()), (1 + gap) / 2, abs_tol=1e-12)


def test_exact_artifact_quotes_keys_with_commas():
    # lattice keys such as (-1,-1) hold commas; each row still parses to
    # two cells whose key is an element again
    g = group_from_literal("lattice:2")
    data = render_bytes(["exact", "--group", "lattice:2", "--alpha", "0.5",
                         "--mu", "lazy", "--n", "2"])
    _, columns, rows = parse_csv(data)
    assert columns == ["key", "probability"]
    assert all(len(r) == 2 for r in rows)
    keys = [g.parse_element(r[0]) for r in rows]
    assert len(set(keys)) == len(rows)
    assert math.isclose(sum(r[1] for r in rows), 1.0, abs_tol=1e-12)


def test_axis_is_a_finite_law():
    # uniform on +-1 in R^1: the second step undoes the first with
    # probability (1 - alpha) / 2
    data = render_bytes(["exact", "--group", "rd:1", "--alpha", "0.5",
                         "--mu", "axis", "--n", "2"])
    by_key = {r[0]: r[1] for r in parse_csv(data)[2]}
    assert sorted(by_key) == ["(-2.0)", "(0.0)", "(2.0)"]
    assert math.isclose(by_key["(0.0)"], 0.25, abs_tol=1e-15)
    axis = mu_from_cli("axis", EuclideanRd(2))
    assert not axis.is_continuous
    assert sorted(axis.support) == [((-1.0, 0.0), 0.25), ((0.0, -1.0), 0.25),
                                    ((0.0, 1.0), 0.25), ((1.0, 0.0), 0.25)]


def test_poly_lambda_rows():
    data = render_bytes(["poly", "lambda", "--alpha", "0.5", "--nmax", "6"])
    _, columns, rows = parse_csv(data)
    assert columns == ["n", "k", "lambda", "lower", "upper", "pass"]
    cell = {(r[0], r[1]): r for r in rows}
    assert math.isclose(cell[(4, 2)][2], 0.5 ** 2 * 2.5 / 3, rel_tol=1e-12)
    assert all(r[-1] is True for r in rows)
    assert all(r[3] - 1e-12 <= r[2] <= r[4] + 1e-12 for r in rows)


def test_poly_eval_and_cycle_and_gap():
    data = render_bytes(["poly", "eval", "--alpha", "0.3", "--n", "5,9",
                         "--x", "0.25,-0.5"])
    _, _, rows = parse_csv(data)
    for n, x, v in rows:
        assert math.isclose(v, eval_stable(0.3, n, x), abs_tol=1e-12)

    data = render_bytes(["poly", "cycle", "--alpha", "0.6", "--L", "5",
                         "--n", "4"])
    _, _, rows = parse_csv(data)
    probs = cycle_distribution(0.6, 5, 4)
    assert len(rows) == 5
    for n, m, p in rows:
        assert math.isclose(p, probs[m], abs_tol=1e-12)

    data = render_bytes(["poly", "gap", "--alpha", "0.5", "--n", "3,4"])
    _, _, rows = parse_csv(data)
    assert rows[0] == (3, 0, 0, 0)
    n, gap, lo, hi = rows[1]
    assert math.isclose(gap, z2_return_gap(0.5, 4), rel_tol=1e-12)
    assert lo - 1e-12 <= gap <= hi + 1e-12


def test_evoset_trace_shape_and_determinism():
    argv = ["evoset", "trace", "--group", "cycle:6", "--alpha", "0.5",
            "--mu", "lazy", "--n", "6", "--seed", "9"]
    data = render_bytes(argv)
    _, columns, rows = parse_csv(data)
    assert columns == ["j", "size"]
    assert rows[0] == (0, 1)
    assert len(rows) == 7
    assert all(size >= 1 for _, size in rows)
    assert render_bytes(argv) == data
    with pytest.raises(CliError, match="takes a single horizon"):
        render_bytes(argv[:-4] + ["--n", "4,8", "--seed", "9"])


def test_evoset_profile_values():
    data = render_bytes(["evoset", "profile", "--group", "cycle:8",
                         "--mu", "lazy", "--rmax", "3"])
    _, columns, rows = parse_csv(data)
    assert columns == ["r", "phi", "psi"]
    r1 = rows[0]
    assert math.isclose(r1[1], 0.5, abs_tol=1e-15)
    assert math.isclose(r1[2], 1 - (math.sqrt(3) + 1) / 4, abs_tol=1e-12)


def test_threads_flag_never_changes_bytes(monkeypatch):
    import srrw.cli as cli

    seen = []
    curve = cli.point_mass_curve

    def spy(*args, threads, **kw):
        seen.append(threads)
        return curve(*args, threads=threads, **kw)

    monkeypatch.setattr(cli, "point_mass_curve", spy)
    monkeypatch.delenv("SRRW_THREADS", raising=False)
    base = ["simulate", "--group", "lattice:2", "--alpha", "0.5", "--mu",
            "lazy", "--n", "8,16", "--trials", "4000", "--target", "e",
            "--seed", "3"]
    ref = render_bytes(base + ["--threads", "1"])
    assert render_bytes(base + ["--threads", "3"]) == ref
    # the default is $SRRW_THREADS as it is at each call, else 1
    assert render_bytes(base) == ref
    monkeypatch.setenv("SRRW_THREADS", "2")
    assert render_bytes(base) == ref
    assert seen == [1, 3, 1, 2]
    monkeypatch.setenv("SRRW_THREADS", "many")
    with pytest.raises(CliError, match="SRRW_THREADS"):
        render_bytes(base)


def test_config_file_defaults_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nalpha = 0.25\ntrials = 1500\nn = 4,8\n")
    walk = ["simulate", "--group", "lattice:1", "--mu", "gens", "--target",
            "e", "--seed", "2"]
    base = walk + ["--n", "4", "--config", str(cfg)]
    from_file = render_bytes(base)
    direct = render_bytes(["simulate", "--group", "lattice:1", "--alpha",
                           "0.25", "--mu", "gens", "--n", "4", "--trials",
                           "1500", "--target", "e", "--seed", "2"])
    assert from_file == direct
    overridden = render_bytes(base + ["--alpha", "0.5"])
    assert overridden == render_bytes(
        ["simulate", "--group", "lattice:1", "--alpha", "0.5", "--mu", "gens",
         "--n", "4", "--trials", "1500", "--target", "e", "--seed", "2"])
    assert overridden != from_file
    # --flag=value is as explicit as --flag value, and --config=PATH is read
    assert render_bytes(walk + ["--n=4", "--config", str(cfg)]) == direct
    assert render_bytes(walk + ["--n", "4", f"--config={cfg}"]) == direct
    assert render_bytes(walk + ["--config", str(cfg), "--n=16"]) == (
        render_bytes(walk + ["--alpha", "0.25", "--trials", "1500",
                             "--n", "16"]))
    assert render_bytes(walk + [f"--config={cfg}"]) == render_bytes(
        walk + ["--alpha", "0.25", "--trials", "1500", "--n", "4,8"])


def test_config_file_rejects_garbage(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 0.25\n")
    argv = ["simulate", "--group", "z2", "--mu", "lazy", "--n", "2",
            "--trials", "10", "--target", "e"]
    for extra, reason in ((["--config", str(cfg)], "key=value"),
                          ([f"--config={cfg}"], "key=value"),
                          (["--config"], "--config: expected a path"),
                          (["--config="], "--config: expected a path"),
                          (["--config", "--seed", "3"],
                           "--config: expected a path")):
        with pytest.raises(CliError, match=reason):
            render_bytes(argv + extra)
        assert main(argv + extra) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_main_writes_out_file_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "table.csv"
    argv = ["poly", "lambda", "--alpha", "0.5", "--nmax", "4",
            "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == render_bytes(argv[:-2])

    assert main(["simulate", "--group", "nosuch:3", "--alpha", "0.5",
                 "--mu", "lazy", "--n", "4", "--trials", "10",
                 "--target", "e"]) == 2
    assert "error:" in capsys.readouterr().err
    # R^d has no bin width, and under a continuous law no point mass
    rd = ["simulate", "--alpha", "0.5", "--mu", "gaussian", "--n", "4",
          "--trials", "10"]
    for argv, reason in ((rd + ["--group", "rd:2:0.5", "--ball-r", "1"],
                          "error: --group: "),
                         (rd + ["--group", "rd:2", "--target", "e"],
                          "error: simulate: every point mass")):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(reason)

    # status 1 means a failed verify criterion; a failed write is 2
    missing = tmp_path / "missing" / "x.csv"
    assert main(argv[:-1] + [str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_refused_simulate_inputs_exit_with_an_error(capsys):
    # both are refused before any simulation runs
    over_budget = ["simulate", "--group", "lattice:1", "--alpha", "0.5",
                   "--mu", "gens", "--n", "70000000", "--trials", "10",
                   "--target", "e", "--seed", "1"]
    ball_on_words = ["simulate", "--group", "tree:3", "--alpha", "0.5",
                     "--mu", "letters", "--n", "4", "--trials", "10",
                     "--ball-r", "2", "--seed", "1"]
    for argv, reason in ((over_budget, "bytes of codes per trial"),
                         (ball_on_words, "coordinate positions")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: simulate: ") and reason in err
        with pytest.raises(CliError, match=reason):
            render_bytes(argv)


def test_non_finite_rd_atoms_exit_with_an_error(capsys):
    argv = ["simulate", "--group", "rd:1", "--alpha", "0.5",
            "--mu", '[["(nan)", 1.0]]', "--n", "4", "--trials", "10",
            "--target", "e", "--seed", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --mu: ") and "non-finite" in err


def test_horizons_below_one_exit_with_an_error(capsys):
    sim = ["simulate", "--alpha", "0.5", "--mu", "lazy", "--trials", "10",
           "--target", "e"]
    trace = ["evoset", "trace", "--group", "cycle:5", "--alpha", "0.5",
             "--mu", "pm1"]
    for argv, reason in ((sim + ["--group", "cycle:5", "--n", ""], "--n: "),
                         (sim + ["--group", "lattice:2", "--n", "0,4"],
                          "simulate: horizons must be integers >= 1"),
                         (trace + ["--n", ""], "--n: "),
                         (trace + ["--n", "0"], "--n: ")):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: " + reason), argv


def test_library_errors_exit_with_an_error(capsys):
    # a ValueError raised below any subcommand becomes one error line
    sim = ["simulate", "--group", "lattice:1", "--alpha", "0.5", "--mu",
           "lazy", "--n", "4"]
    cases = [
        (["poly", "cycle", "--alpha", "0.5", "--n", "-1"], "poly: need n"),
        (["poly", "gap", "--alpha", "0.5", "--n", "-2"], "poly: need n"),
        (["poly", "eval", "--alpha", "0.5", "--n", "-1"], "poly: need n"),
        (["poly", "lambda", "--alpha", "0.5", "--nmax", "0"],
         "poly: need n_max"),
        (["poly", "lambda", "--alpha", "1.5", "--nmax", "3"],
         "poly: alpha must be in [0, 1]"),
        (["poly", "lambda", "--alpha", "0.01", "--nmax", "500"],
         "poly: lambda coefficients at alpha = 0.01"),
        (["poly", "cycle", "--alpha", "0.5", "--n", "3", "--L", "2"],
         "poly: cycle distributions need L >= 3"),
        (["evoset", "profile", "--group", "lattice:2", "--mu", "lazy",
          "--scope", "all", "--rmax", "2"], "evoset: group enumeration"),
        (["evoset", "profile", "--group", "rd:2", "--mu", "gaussian",
          "--rmax", "1"], "evoset: profile searches need a finite step law"),
        (sim + ["--trials", "0", "--target", "e"], "simulate: trials must"),
        (sim + ["--trials", "-3", "--ball-r", "2"], "simulate: trials must"),
    ]
    for argv, reason in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: " + reason), argv


def test_main_stdout_default(capsysbinary):
    argv = ["poly", "gap", "--alpha", "0.5", "--n", "4"]
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == render_bytes(argv)


def test_verify_subcommand_json(tmp_path):
    # evolving-exact computes its verdicts from numpy comparisons
    for suite, criterion in [("determinism", "thread-determinism"),
                             ("evolving-exact", "evolving-trajectory-law")]:
        out = tmp_path / f"{suite}.json"
        code = main(["verify", suite, "--seed", "1729", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["version"] == VERSION
        assert payload["seed"] == 1729
        assert payload["suites"] == [suite]
        assert payload["pass"] is True
        assert code == 0
        names = [r["criterion"] for r in payload["results"]]
        assert criterion in names
        assert all(r["pass"] is True for r in payload["results"])
        again = tmp_path / f"{suite}-again.json"
        main(["verify", suite, "--seed", "1729", "--out", str(again)])
        assert again.read_bytes() == out.read_bytes()


def test_verify_unknown_suite(capsys):
    assert main(["verify", "no-such-suite"]) == 2
    assert "error:" in capsys.readouterr().err


def test_mu_literals():
    g = CycleZL(6)
    lazy = mu_from_cli("lazy", g)
    assert dict(lazy.support)[0] == 0.5
    pm1 = mu_from_cli("pm1", g)
    assert dict(pm1.support) == {1: 0.5, 5: 0.5}
    assert dict(mu_from_cli("pm1", CycleZL(2)).support) == {1: 1.0}
    lst = mu_from_cli('[["1", 0.25], ["5", 0.75]]', g)
    assert dict(lst.support) == {1: 0.25, 5: 0.75}
    gauss = mu_from_cli("gaussian", EuclideanRd(2))
    assert gauss.family == "gaussian"
    with pytest.raises(CliError):
        mu_from_cli("pm1", group_from_literal("lattice:2"))
    with pytest.raises(CliError, match="--mu"):
        mu_from_cli("mystery", g)


# Each shorthand and the groups it fits, by type name.
SHORTHAND_GROUPS = {
    "lazy": {"CycleZL", "IntegerLatticeZd", "LamplighterZ"},
    "gens": {"CycleZL", "IntegerLatticeZd", "RegularTreeFree", "LamplighterZ",
             "S3xZ"},
    "letters": {"CycleZL", "IntegerLatticeZd", "RegularTreeFree",
                "LamplighterZ", "S3xZ"},
    "pm1": {"CycleZL"},
    "axis": {"EuclideanRd"},
    "gaussian": {"EuclideanRd"},
    "sphere": {"EuclideanRd"},
}


@pytest.mark.parametrize("name", sorted(SHORTHAND_GROUPS))
def test_library_and_cli_shorthands_build_the_same_law(name):
    # the library literal and the --mu shorthand name one law, and refuse
    # the same groups, the CLI with an error naming --mu
    accepted = set()
    for group in (CycleZL(2), CycleZL(6), IntegerLatticeZd(1),
                  IntegerLatticeZd(3), RegularTreeFree(3), LamplighterZ(),
                  S3xZ(), EuclideanRd(1), EuclideanRd(2)):
        try:
            lib = StepDistribution.from_literal(name, group)
        except ValueError:
            with pytest.raises(CliError, match="--mu"):
                mu_from_cli(name, group)
            continue
        cli = mu_from_cli(f" {name} ", group)
        assert (cli.support, cli.family) == (lib.support, lib.family)
        accepted.add(type(group).__name__)
    assert accepted == SHORTHAND_GROUPS[name]


def test_bad_walk_flags():
    with pytest.raises(CliError, match="--mu"):
        render_bytes(["simulate", "--group", "z2", "--alpha", "0.5",
                      "--mu", "nope", "--n", "2", "--trials", "10",
                      "--target", "e"])
    with pytest.raises(CliError, match="--alpha"):
        render_bytes(["simulate", "--group", "z2", "--alpha", "1.5",
                      "--mu", "lazy", "--n", "2", "--trials", "10",
                      "--target", "e"])
    with pytest.raises(CliError, match="--n"):
        render_bytes(["exact", "--group", "z2", "--alpha", "0.5",
                      "--mu", "lazy", "--n", "2,4"])
    with pytest.raises(CliError, match="--n"):
        render_bytes(["simulate", "--group", "z2", "--alpha", "0.5",
                      "--mu", "lazy", "--n", "two", "--trials", "10",
                      "--target", "e"])
    with pytest.raises(CliError, match="--target"):
        render_bytes(["simulate", "--group", "cycle:4", "--alpha", "0.5",
                      "--mu", "lazy", "--n", "2", "--trials", "10",
                      "--target", "banana"])
