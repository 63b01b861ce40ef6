from __future__ import annotations

import csv
import json
import math
import re

import numpy as np
import pytest

from latgreen.cli import _check_config, build_parser, main, parse_point
from latgreen.sphere_backend import INFINITY

from conftest import random_jacobian_data


def run(argv):
    return main(argv)


def test_parse_point_forms():
    assert parse_point("2+2i") == 2 + 2j
    assert parse_point("3") == 3 + 0j
    assert parse_point("-1.5i") == -1.5j
    assert parse_point("2,0.5") == 2 + 0.5j
    assert parse_point("inf") is INFINITY


# --- green-table ----------------------------------------------------------------

def test_green_table_row_count(tmp_path):
    out = tmp_path / "table.csv"
    code = run(
        ["green-table", "--lambda", "2+2i", "--window", "4", "--target", "0,0",
         "--nodes", "128", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "mu,nu,mu_t,nu_t,re,im"
    assert len(rows) - 1 == (2 * 4 + 1) ** 2


def test_green_table_degenerate_lambda(tmp_path, capsys):
    code = run(["green-table", "--lambda", "i", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "degenerate contour" in capsys.readouterr().err


def test_green_table_g0_figure_value(tmp_path):
    out = tmp_path / "g0.csv"
    code = run(["green-table", "--g0", "--target", "0,0", "--window", "5",
                "--nodes", "256", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        got = {
            (int(r["mu"]), int(r["nu"])): complex(float(r["re"]), float(r["im"]))
            for r in csv.DictReader(fh)
        }
    # lattice point (m, n) = (2, -2) is (mu, nu) = (0, -2)
    assert got[(0, -2)] == pytest.approx(2.0, abs=1e-10)
    # lattice point (m, n) = (1, -1) is (mu, nu) = (0, -1)
    assert got[(0, -1)] == pytest.approx(0.5, abs=1e-10)


def test_green_table_requires_lambda_without_g0(tmp_path, capsys):
    code = run(["green-table", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_green_table_rejects_theta_backend(tmp_path, rng):
    # tables need level-set geometry, which theta data lacks: green-table
    # takes no --backend, and the parser rejects it with exit code 2
    from latgreen import save_jacobian_data

    data_path = tmp_path / "data.json"
    save_jacobian_data(random_jacobian_data(rng, 1), data_path)
    with pytest.raises(SystemExit) as info:
        run(["green-table", "--backend", str(data_path), "--g0",
             "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2


def test_green_table_json_format(tmp_path):
    out = tmp_path / "table.json"
    code = run(["green-table", "--lambda", "1+0.5i", "--window", "2",
                "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["kind"] == "green"
    assert len(payload["values"]) == 25


def test_green_table_lambda_inf_uses_fallback_contour(tmp_path):
    out = tmp_path / "inf.json"
    code = run(["green-table", "--lambda", "inf", "--window", "1",
                "--nodes", "64", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["lambda"] == "inf"


def test_green_table_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["green-table", "--lambda", "2+2i", "--window", "2", "--nodes", "128"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_green_table_io_failure(tmp_path):
    code = run(["green-table", "--g0", "--window", "1", "--nodes", "64",
                "--out", str(tmp_path / "no_such_dir" / "x.csv")])
    assert code == 3


def test_nodes_lower_bound_rejected(tmp_path):
    code = run(["green-table", "--g0", "--nodes", "8", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_tol_gate_warns_on_large_estimate(tmp_path, capsys):
    # an estimate above --tol fails the run (exit 1) after writing the table
    args = ["green-table", "--lambda", "2+2i", "--window", "2", "--nodes", "64"]
    out = tmp_path / "t.csv"
    assert run(args + ["--tol", "1e-30", "--out", str(out)]) == 1
    assert "exceeds --tol" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 26
    assert run(args + ["--tol", "1.0", "--out", str(out)]) == 0
    assert "exceeds --tol" not in capsys.readouterr().err


def test_tol_gate_never_compares_a_table_with_itself(tmp_path, capsys):
    # the coarse rule of --nodes 16 has 8 nodes, so the estimate is not 0
    out = tmp_path / "t.csv"
    assert run(["green-table", "--lambda", "2+2i", "--window", "3", "--nodes", "16",
                "--tol", "1e-30", "--out", str(out)]) == 1
    assert "exceeds --tol" in capsys.readouterr().err


def test_unresolved_table_fails_by_default(tmp_path, capsys):
    # without --tol the gate is 1e-10; 16 nodes cannot resolve this window
    # (estimate 1.27), so the run exits 1, writes the table and names the
    # estimate
    out = tmp_path / "t.csv"
    assert run(["green-table", "--lambda", "2+2i", "--window", "4", "--nodes", "16",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"estimate 1\.2\d\de\+00 exceeds --tol 1\.0e-10", err)
    assert len(out.read_text().splitlines()) == 82


def test_tol_gate_is_relative_to_the_table(tmp_path, capsys):
    # |G| reaches 1.9e14 here, so an absolute node-halving difference of
    # 3e-2 is rounding level
    out = tmp_path / "t.csv"
    assert run(["green-table", "--lambda=-1+2i", "--window", "24", "--tol", "1e-8",
                "--out", str(out)]) == 0
    est = float(re.search(r"est_error=(\S+)\)", capsys.readouterr().out).group(1))
    assert est < 1e-14


def test_negative_values_as_separate_arguments(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["green-table", "--window", "1"]
    assert run(args + ["--target", "-2,-2", "--lambda", "-1+2i", "--out", str(a)]) == 0
    assert run(args + ["--target=-2,-2", "--lambda=-1+2i", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[1].startswith("-3,-3,-2,-2,")


@pytest.mark.parametrize("lam", ["nan", "1+nani", "nan,0", "inf,0"])
def test_non_finite_lambda_rejected(tmp_path, capsys, lam):
    out = tmp_path / "x.csv"
    code = run(["green-table", f"--lambda={lam}", "--window", "1", "--nodes", "64", "--out", str(out)])
    assert code == 2
    assert "rejected configuration" in capsys.readouterr().err
    assert not out.exists()
    assert parse_point("infinity") is INFINITY


def test_nan_tol_rejected(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["green-table", "--lambda", "2+2i", "--window", "1", "--nodes", "64",
                "--tol", "nan", "--out", str(out)]) == 2
    assert not out.exists()
    assert run(["verify", "--tol", "nan"]) == 2
    assert "--tol must be positive" in capsys.readouterr().err


def test_signed_infinities_named_non_finite(tmp_path, capsys):
    # 'i' is the imaginary unit only outside 'inf'
    out = tmp_path / "x.csv"
    for lam in ("-inf", "+inf", "1+infi"):
        assert run(["green-table", "--lambda", lam, "--window", "1", "--nodes", "64",
                    "--out", str(out)]) == 2
        assert "is not a finite point" in capsys.readouterr().err
    assert not out.exists()
    assert parse_point("(1+2i)") == 1 + 2j
    assert parse_point("i") == 1j


@pytest.mark.parametrize("nodes, kind", [("100000000000000000000", "--lambda=2+2i"),
                                         ("100000000000000000000", "--g0"),
                                         ("4097", "--g0")])
def test_nodes_upper_bound_rejected(tmp_path, capsys, nodes, kind):
    out = tmp_path / "x.csv"
    assert run(["green-table", kind, "--nodes", nodes, "--out", str(out)]) == 2
    assert "--nodes must be in [16, 4096]" in capsys.readouterr().err
    assert not out.exists()


def test_odd_nodes_rejected(tmp_path, capsys):
    # the nested half rules use every other node
    out = tmp_path / "x.csv"
    assert run(["green-table", "--g0", "--window", "1", "--nodes", "17", "--out", str(out)]) == 2
    assert "--nodes must be even" in capsys.readouterr().err
    assert not out.exists()


def test_map_grid_lower_bound(tmp_path):
    code = run(["quasimomentum-map", "--grid", "1", "--out", str(tmp_path / "m.csv")])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["green-table", "--g0", "--window", "257"], "--window must be in [0, 256], got 257"),
    (["green-table", "--g0", "--window", "100000000000000000000"], "--window must be in [0, 256]"),
    (["quasimomentum-map", "--grid", "4097"], "--grid must be in [2, 4096], got 4097"),
    (["quasimomentum-map", "--grid", "100000000000000000000"], "--grid must be in [2, 4096]"),
], ids=["window-257", "window-1e20", "grid-4097", "grid-1e20"])
def test_window_and_grid_upper_bounds_rejected(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    argv = argv + ["--out", str(out)]
    # checked on the parsed options first: without the cap the command
    # itself would run for minutes or exhaust memory
    with pytest.raises(ValueError, match=re.escape(message)):
        _check_config(build_parser().parse_args(argv))
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# --- verify -----------------------------------------------------------------------

def test_verify_sphere_passes(capsys):
    code = run(["verify", "--nodes", "160"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_flipped_orientation_fails(capsys):
    code = run(["verify", "--nodes", "160", "--flip-orientation"])
    out = capsys.readouterr().out
    assert code == 1
    assert "orientation" in out
    assert "FAIL" in out


def test_verify_theta_backend(tmp_path, rng, capsys):
    from latgreen import save_jacobian_data

    path = tmp_path / "data.json"
    save_jacobian_data(random_jacobian_data(rng, 2), path)
    code = run(["verify", "--backend", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "monodromy" in out


def test_verify_unreadable_data_file_is_io_failure(tmp_path, capsys):
    assert run(["verify", "--backend", str(tmp_path / "missing.json")]) == 3
    assert "I/O failure" in capsys.readouterr().err
    assert run(["verify", "--backend", str(tmp_path)]) == 3  # a directory


def test_verify_malformed_data_file_is_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    assert run(["verify", "--backend", str(path)]) == 2
    assert "not JSON" in capsys.readouterr().err
    path.write_text("[1, 2]")
    assert run(["verify", "--backend", str(path)]) == 2
    assert "not a JSON object" in capsys.readouterr().err


def test_verify_rejects_asymmetric_matrix(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = {
        "g": 2,
        "B": [[[0.0, 1.0], [0.5, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
        "K": [[0.0, 0.0], [0.0, 0.0]],
        "Delta_P": [[0.0, 0.0], [0.0, 0.0]],
        "Delta_Q": [[0.0, 0.0], [0.0, 0.0]],
        "A_gamma": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    }
    path.write_text(json.dumps(payload))
    code = run(["verify", "--backend", str(path)])
    assert code == 2


def test_verify_rejects_nan_matrix(tmp_path, capsys):
    # JSON NaN parses; Im B = I stays positive definite, so only the
    # finiteness check rejects it
    path = tmp_path / "nan.json"
    payload = {
        "g": 2,
        "B": [[[0.0, 1.0], [float("nan"), 0.0]], [[float("nan"), 0.0], [0.0, 1.0]]],
        "K": [[0.0, 0.0], [0.0, 0.0]],
        "Delta_P": [[0.3, 0.0], [0.0, 0.0]],
        "Delta_Q": [[0.0, 0.0], [0.1, 0.0]],
        "A_gamma": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    }
    path.write_text(json.dumps(payload))
    assert run(["verify", "--backend", str(path)]) == 2
    assert "non-finite" in capsys.readouterr().err


# --- quasimomentum-map ---------------------------------------------------------------

def test_map_grid_values_and_singular_cells(tmp_path):
    out = tmp_path / "map.csv"
    code = run(["quasimomentum-map", "--xmin", "-2", "--xmax", "2",
                "--ymin", "-2", "--ymax", "2", "--grid", "5", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    cells = {(float(r["x"]), float(r["y"])): r for r in rows}
    origin = cells[(0.0, 0.0)]
    assert float(origin["im_p_n"]) == 0.0
    assert origin["singular"] == "0"
    assert cells[(0.0, 1.0)]["singular"] == "1"
    assert cells[(0.0, -1.0)]["singular"] == "1"
    assert cells[(1.0, 0.0)]["singular"] == "1"
    assert math.isinf(float(cells[(0.0, 1.0)]["im_p_n"]))


@pytest.mark.parametrize("bound", ["--xmin=nan", "--xmax=inf", "--ymin=-inf", "--ymax=nan"])
def test_map_non_finite_bound_rejected(tmp_path, capsys, bound):
    out = tmp_path / "m.csv"
    assert run(["quasimomentum-map", bound, "--grid", "2", "--out", str(out)]) == 2
    assert f"{bound.split('=')[0]} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_map_real_lambda_polyline_is_real_axis(tmp_path):
    grid_out = tmp_path / "map.csv"
    contours_out = tmp_path / "contours.csv"
    code = run(["quasimomentum-map", "--grid", "3", "--lambda", "3",
                "--nodes", "64", "--out", str(grid_out),
                "--contours-out", str(contours_out)])
    assert code == 0
    with open(contours_out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 64
    worst = max(abs(float(r["z_im"])) for r in rows)
    assert worst < 1e-9


def test_map_circle_lambda_polyline_level(tmp_path):
    from latgreen import im_p_n

    contours_out = tmp_path / "contours.csv"
    code = run(["quasimomentum-map", "--grid", "3", "--lambda", "2i",
                "--nodes", "32", "--out", str(tmp_path / "m.csv"),
                "--contours-out", str(contours_out)])
    assert code == 0
    with open(contours_out) as fh:
        rows = list(csv.DictReader(fh))
    level = im_p_n(2j)
    for r in rows:
        z = complex(float(r["z_re"]), float(r["z_im"]))
        assert im_p_n(z) == pytest.approx(level, abs=1e-12)
