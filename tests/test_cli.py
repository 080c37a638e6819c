import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from soarqep.cli import UsageError, format_csv, parse_sigma, run_cli
from soarqep.driver import SolverReport
from soarqep.problems import write_matrix_market


def _run(capsys, argv):
    code = run_cli(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestParsing:
    def test_sigma_forms(self):
        assert parse_sigma("-13+0.4i") == complex(-13, 0.4)
        assert parse_sigma("0.6-0.8i") == complex(0.6, -0.8)
        assert parse_sigma("2.5") == complex(2.5, 0.0)
        with pytest.raises(UsageError):
            parse_sigma("not-a-number")

    def test_all_shifts_is_usage_error(self, capsys):
        # dim 10 with shifts 10 would retain a zero-dimensional subspace
        code, _, err = _run(capsys, ["mass-spring", "-n", "30",
                                     "--dim", "10", "--shifts", "10"])
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("flag", ["--ctol", "--dtol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, flag, value):
        code, out, err = _run(capsys, ["mass-spring", "-n", "50",
                                       "--sigma=-13+0.4i", "--num-eigs", "3",
                                       "--dim", "12", flag, value])
        assert code == 1
        assert "usage error" in err and "finite" in err
        assert out == "" and "breakdown" not in err

    def test_unknown_problem(self, capsys):
        code, _, err = _run(capsys, ["heat-equation", "-n", "10"])
        assert code == 1

    def test_generator_needs_size(self, capsys):
        code, _, err = _run(capsys, ["mass-spring"])
        assert code == 1
        assert "size" in err

    def test_matrix_market_needs_matrices(self, capsys):
        code, _, err = _run(capsys, ["matrix-market"])
        assert code == 1
        assert "usage error" in err


class TestFormat:
    def test_csv_rows(self):
        report = SolverReport(converged=[], residual_history=[0.5, 1e-3, 1 / 3],
                              deflation_history=[0, 2, 1])
        assert format_csv(report) == ("restart,max_rel_residual,deflations\n"
                                      "0,0.5,0\n"
                                      "1,0.001,2\n"
                                      "2,0.33333333333333331,1\n")
        # one history row per cycle: the restart count is read off it
        assert report.restarts_used == 2


class TestRuns:
    # option-like values such as -13+0.4i must use the --opt=value form
    ARGS = ["mass-spring", "-n", "50", "--sigma=-13+0.4i",
            "--num-eigs", "4", "--dim", "16", "--shifts", "8",
            "--ctol", "1e-9", "--seed", "3"]

    def test_full_convergence_exit_zero(self, capsys):
        code, out, err = _run(capsys, self.ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "restart,max_rel_residual,deflations"
        assert all(len(l.split(",")) == 3 for l in lines[1:])
        assert "converged 4 of 4" in err

    def test_csv_byte_determinism(self, capsys):
        _, out1, _ = _run(capsys, self.ARGS)
        _, out2, _ = _run(capsys, self.ARGS)
        assert out1 == out2

    def test_partial_exit_two(self, capsys):
        argv = self.ARGS[:-4] + ["--ctol", "1e-300", "--max-restarts", "2",
                                 "--seed", "3"]
        code, out, err = _run(capsys, argv)
        assert code == 2

    def test_json_schema(self, capsys):
        code, out, _ = _run(capsys, self.ARGS + ["--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "history", "pairs", "restarts_used",
                            "converged_count", "all_converged", "breakdown"}
        assert doc["all_converged"] is True
        assert doc["config"]["sigma"] == {"re": -13.0, "im": 0.4}
        assert len(doc["pairs"]) == 4
        for p in doc["pairs"]:
            assert set(p) == {"lam", "rel_residual", "residual",
                              "backward_error"}
            assert p["residual"] <= doc["config"]["ctol"]
            assert 0.0 <= p["backward_error"] < 1e-10
        assert len(doc["history"]) == doc["restarts_used"] + 1

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "hist.csv"
        code, out, _ = _run(capsys, self.ARGS + ["--out", str(dest)])
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("restart,max_rel_residual")

    def test_string_damping(self, capsys):
        code, out, err = _run(capsys, ["string-damping", "-n", "60",
                                       "--sigma=0.6+0.8i", "--num-eigs", "4",
                                       "--dim", "14", "--ctol", "1e-9"])
        assert code == 0
        assert out.startswith("restart,max_rel_residual,deflations")
        assert "converged 4 of 4" in err

    def test_breakdown_summary(self, capsys):
        # k = 2n: the Krylov space is the whole space and breaks down at the
        # last step, which delivers every pair of the problem, not m of them
        code, out, err = _run(capsys, ["mass-spring", "-n", "6", "--num-eigs",
                                       "2", "--dim", "12", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["sigma"] is None
        assert doc["breakdown"] == [0, 12]
        assert doc["converged_count"] == len(doc["pairs"]) == 12
        assert "converged 12 pairs in 0 restart(s)" in err
        assert "breakdown at restart 0, step 12" in err
        # a breakdown finds no new direction; its subspace need not be
        # invariant
        assert "invariant" not in err


class TestMatrixMarketPath:
    N = 12

    @pytest.fixture
    def argv(self, tmp_path, rng):
        n = self.N
        M = np.eye(n) + 0.05 * rng.standard_normal((n, n))
        C = rng.standard_normal((n, n))
        K = rng.standard_normal((n, n))
        paths = []
        for tag, A in (("m", M), ("c", C), ("k", K)):
            q = tmp_path / ("%s.mtx" % tag)
            write_matrix_market(q, sp.csc_matrix(A))
            paths.append(str(q))
        return (["matrix-market", "--matrices"] + paths
                + ["--sigma", "0.2", "--num-eigs", "3", "--dim", "10",
                   "--ctol", "1e-8"])

    def test_triple_from_files(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code in (0, 2)
        assert out.startswith("restart,max_rel_residual,deflations")

    def test_json_reports_size_of_loaded_problem(self, capsys, argv):
        code, out, _ = _run(capsys, argv + ["--format", "json"])
        assert code in (0, 2)
        assert json.loads(out)["config"]["n"] == self.N

    def test_missing_file_exits_one(self, capsys):
        code, _, err = _run(capsys, ["matrix-market", "--matrices",
                                     "/no/m.mtx", "/no/c.mtx", "/no/k.mtx"])
        assert code == 1
        assert "error" in err

    def test_malformed_file_exits_one_naming_line(self, capsys, argv,
                                                  tmp_path):
        bad = tmp_path / "k_bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                       "12 12 2\n1 1 3.0\n2 oops 1.0\n")
        argv[4] = str(bad)
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert "%s:4:" % bad in err


def test_library_does_not_load_oracles():
    # the dense oracles are test-only code; a fresh interpreter shows what
    # the package itself imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["soarqep"].__file__)))
    code = ("import sys, soarqep, soarqep.cli; "
            "print('soarqep.oracles' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "False"
