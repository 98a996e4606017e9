"""Command-line surface: artifact shape, option precedence, exit codes."""

import json
import math

import pytest

from srrw.cli import CliError, main, mu_from_cli, render_bytes
from srrw.elephant import cycle_distribution, eval_stable, z2_return_gap
from srrw.groups import CycleZL, EuclideanRd, Z2, group_from_literal
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


def test_evoset_profile_values():
    data = render_bytes(["evoset", "profile", "--group", "cycle:8",
                         "--mu", "lazy", "--rmax", "3"])
    _, columns, rows = parse_csv(data)
    assert columns == ["r", "phi", "psi"]
    r1 = rows[0]
    assert math.isclose(r1[1], 0.5, abs_tol=1e-15)
    assert math.isclose(r1[2], 1 - (math.sqrt(3) + 1) / 4, abs_tol=1e-12)


def test_threads_flag_never_changes_bytes():
    base = ["simulate", "--group", "lattice:2", "--alpha", "0.5", "--mu",
            "lazy", "--n", "8,16", "--trials", "4000", "--target", "e",
            "--seed", "3"]
    ref = render_bytes(base + ["--threads", "1"])
    assert render_bytes(base + ["--threads", "3"]) == ref


def test_config_file_defaults_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nalpha = 0.25\ntrials = 1500\n")
    base = ["simulate", "--group", "lattice:1", "--mu", "gens", "--n", "4",
            "--target", "e", "--seed", "2", "--config", str(cfg)]
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


def test_config_file_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 0.25\n")
    with pytest.raises(CliError, match="key=value"):
        render_bytes(["simulate", "--group", "z2", "--mu", "lazy", "--n", "2",
                      "--trials", "10", "--target", "e", "--config", str(cfg)])


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
    assert dict(mu_from_cli("pm1", Z2()).support) == {1: 1.0}
    lst = mu_from_cli('[["1", 0.25], ["5", 0.75]]', g)
    assert dict(lst.support) == {1: 0.25, 5: 0.75}
    gauss = mu_from_cli("gaussian", EuclideanRd(2))
    assert gauss.family == "gaussian"
    with pytest.raises(CliError):
        mu_from_cli("pm1", group_from_literal("lattice:2"))
    with pytest.raises(ValueError):
        mu_from_cli("mystery", g)


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
