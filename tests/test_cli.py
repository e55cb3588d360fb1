"""End-to-end CLI tests: exit codes, JSON/CSV emission, determinism."""

import json

import pytest

from ivhs import cli
from ivhs.cli import main

SMOOTH_SEXTIC = "x0^6 + x1^6 + x2^6 + x3^6 + x4^6 + x0*x1*x2*x3*x4*x0"
# A quartic surface with three mixed terms, as the verify-dense benchmark draws.
DENSE_QUARTIC = "x0^4+x1^4+x2^4+x3^4+3*x0^2*x1*x3+x1*x2^3+5*x0*x1*x2*x3"
CUBIC_SURFACE = "x0^3+x1^3+x2^3+x3^3+x0*x1*x2"
QUINTIC_THREEFOLD = "x0^5+x1^5+x2^5+x3^5+x4^5+2*x0*x1*x2*x3*x4"
# One node at (0:0:0:1); dim R^8 = 1 as on a smooth quartic surface.
NODAL_QUARTIC = "x3^2*x0^2+x3^2*x1^2+x3^2*x2^2+x0^4+x1^4+x2^4"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    return json.loads(out)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, ["profile", "--n", "3", "--d", "6"])
        assert code == 0 and out

    def test_usage_bad_n(self, capsys):
        code, out, err = run(capsys, ["profile", "--n", "0", "--d", "6"])
        assert code == 2 and not out and "error" in err

    def test_usage_conflicting_degree_flags(self, capsys):
        code, _, _ = run(
            capsys, ["profile", "--n", "3", "--d", "6", "--d-offset", "3"]
        )
        assert code == 2

    def test_usage_missing_subcommand_args(self, capsys):
        assert run(capsys, ["profile"])[0] == 2
        assert run(capsys, ["jacobian", "--fermat", "3", "6"])[0] == 2

    def test_usage_bad_range_text(self, capsys):
        assert run(capsys, ["profile", "--n", "3..x", "--d", "6"])[0] == 2
        assert run(capsys, ["profile", "--n", "5..3", "--d", "6"])[0] == 2

    def test_usage_bad_prime(self, capsys):
        code, _, err = run(
            capsys, ["jacobian", "--fermat", "3", "6", "--m", "1", "--prime", "10"]
        )
        assert code == 2 and "--prime" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-theorem", "--fermat", "3", "6", "--pair-sample", "-1"],
            ["verify-theorem", "--fermat", "3", "6", "--seed", "-1"],
            ["symm", "--geometric", "fermat", "3", "5", "--seed", "-2"],
            ["symm", "--dims", "2", "3", "2", "--k", "6", "--seed", "-1"],
            ["symm", "--dims", "2", "3", "2", "--construction", "prop4", "--seed", "-1"],
        ],
    )
    def test_usage_negative_seed_or_pair_sample(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err and "nonnegative" in err

    def test_usage_num_vars_with_fermat(self, capsys):
        code, _, _ = run(
            capsys,
            ["jacobian", "--fermat", "3", "6", "--num-vars", "5", "--m", "1"],
        )
        assert code == 2

    def test_precondition_monotonicity_range(self, capsys):
        code, out, err = run(
            capsys, ["monotonicity", "--n", "2", "--d-min", "6", "--d-max", "8"]
        )
        assert code == 3 and not out and "error" in err

    def test_precondition_singular_fixture(self, capsys, tmp_path):
        f = tmp_path / "singular.txt"
        f.write_text("x0^6")
        code, _, err = run(
            capsys,
            ["jacobian", "--poly", str(f), "--num-vars", "5", "--m", "1"],
        )
        assert code == 3 and "socle" in err

    def test_budget_full_socle_on_dense_fixture(self, capsys, tmp_path):
        f = tmp_path / "smooth.txt"
        f.write_text(SMOOTH_SEXTIC)
        code, _, err = run(
            capsys,
            ["jacobian", "--poly", str(f), "--m", "1", "--socle-mode", "full"],
        )
        assert code == 4 and "budget" in err

    def test_missing_poly_file(self, capsys):
        code, _, _ = run(capsys, ["jacobian", "--poly", "/nonexistent", "--m", "1"])
        assert code == 2

    def test_help(self, capsys):
        assert run(capsys, ["--help"])[0] == 0
        assert run(capsys, ["profile", "--help"])[0] == 0

    def test_unknown_command(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2


class TestProfileCommand:
    def test_single_cell(self, capsys):
        code, out, err = run(capsys, ["profile", "--n", "3", "--d", "6"])
        assert code == 0
        env = payload(out)
        assert env["command"] == "profile"
        row = env["rows"][0]
        assert (row["h_n0"], row["h_n1_1"], row["dim_E"], row["p"]) == (5, 255, 185, 51)
        assert row["inequalities_hold"] is True
        assert "h_n1_1=255" in err

    def test_offset_grid(self, capsys):
        code, out, _ = run(capsys, ["profile", "--n", "3..5", "--d-offset", "3..5"])
        assert code == 0
        rows = payload(out)["rows"]
        assert len(rows) == 9
        assert all(row["d"] == row["n"] + off for row, off in zip(rows, [3, 4, 5] * 3))
        assert all(row["inequalities_hold"] for row in rows)

    def test_csv_projection(self, capsys):
        code, out, _ = run(
            capsys, ["profile", "--n", "3", "--d", "6..8", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,d,h_n0,h_n1_1,dim_E,p,three_p")
        assert len(lines) == 4
        assert lines[1].startswith("3,6,5,255,185,51,153")

    def test_below_range_row_reports_none(self, capsys):
        code, out, _ = run(capsys, ["profile", "--n", "3", "--d", "4"])
        assert code == 0
        row = payload(out)["rows"][0]
        assert row["in_theorem_range"] is False
        assert row["inequalities_hold"] is None


class TestMonotonicityCommand:
    def test_rows_and_summary(self, capsys):
        code, out, _ = run(
            capsys, ["monotonicity", "--n", "3", "--d-min", "6", "--d-max", "10"]
        )
        assert code == 0
        env = payload(out)
        assert env["summary"]["descending"] is True
        first = env["rows"][0]
        assert (first["alpha_d"], first["beta_d"], first["s_d"]) == (110, 20, 10800)

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys,
            ["monotonicity", "--n", "3", "--d-min", "6", "--d-max", "8", "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines()[0] == "n,d,r_num,r_den,s_d,alpha_d,beta_d"


class TestJacobianCommand:
    def test_fermat_table(self, capsys):
        code, out, _ = run(
            capsys, ["jacobian", "--fermat", "3", "6", "--m", "1,6,7,13"]
        )
        assert code == 0
        env = payload(out)
        assert env["fixture"] == "fermat(3,6)"
        assert [row["dimR"] for row in env["rows"]] == [5, 185, 255, 255]

    def test_poly_degree_zero(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text(SMOOTH_SEXTIC)
        code, out, _ = run(capsys, ["jacobian", "--poly", str(f), "--m", "0"])
        assert code == 0
        env = payload(out)
        assert env["fixture"].startswith("poly(")
        assert env["rows"][0]["dimR"] == 1
        assert any("probe" in note for note in env["notes"])

    def test_bad_degree_list(self, capsys):
        assert run(capsys, ["jacobian", "--fermat", "3", "6", "--m", "1,x"])[0] == 2
        assert run(capsys, ["jacobian", "--fermat", "3", "6", "--m", "-1"])[0] == 2


class TestSymmCommand:
    def test_random_experiment(self, capsys):
        code, out, _ = run(
            capsys,
            ["symm", "--dims", "2", "2", "2", "--k", "3", "--trials", "100", "--seed", "7"],
        )
        assert code == 0
        report = payload(out)["report"]
        assert report["zero_fraction"] >= 0.99
        assert report["threshold"] == 3

    def test_control_dimension(self, capsys):
        code, out, _ = run(
            capsys, ["symm", "--dims", "2", "3", "2", "--k", "1", "--trials", "5"]
        )
        assert code == 0
        report = payload(out)["report"]
        assert report["dimensions"] == [6] * 5  # k=1: dim g2*g1 always

    def test_prop4_construction(self, capsys):
        code, out, _ = run(
            capsys, ["symm", "--construction", "prop4", "--dims", "2", "3", "1"]
        )
        assert code == 0
        report = payload(out)["report"]
        assert report["symmetrizer_dimension"] == 0
        assert report["k"] == 5

    @pytest.mark.parametrize(
        "argv,report",
        [
            (
                ["--construction", "prop4", "--dims", "2", "4", "1", "--seed", "1"],
                {"construction": "prop4", "g0": 2, "g1": 4, "g2": 1, "k": 6, "symmetrizer_dimension": 0},
            ),
            (
                ["--construction", "prop4", "--dims", "2", "3", "1", "--seed", "1"],
                {"construction": "prop4", "g0": 2, "g1": 3, "g2": 1, "k": 5, "symmetrizer_dimension": 0},
            ),
            (
                ["--dims", "2", "2", "2", "--k", "3", "--trials", "20", "--seed", "7"],
                {
                    "dimensions": [0] * 20, "g0": 2, "g1": 2, "g2": 2, "k": 3, "seed": 7,
                    "threshold": 3, "trials": 20, "zero_fraction": 1.0,
                },
            ),
            (
                ["--dims", "3", "4", "4", "--k", "2", "--trials", "4", "--seed", "1"],
                {
                    "dimensions": [20, 20, 20, 20], "g0": 3, "g1": 4, "g2": 4, "k": 2, "seed": 1,
                    "threshold": 6, "trials": 4, "zero_fraction": 0.0,
                },
            ),
            (
                ["--geometric", "fermat", "3", "6", "--pair-sample", "60"],
                {
                    "canonical_symmetrizer": "nonzero", "fixture": "fermat(3,6)", "notes": [], "pairs_checked": 60,
                    "symmetric": True,
                },
            ),
        ],
        ids=["prop4-divisible", "prop4-fractional", "random", "random-nonzero", "geometric"],
    )
    def test_report_pinned(self, capsys, argv, report):
        # Recorded output: stdout stays byte-identical across changes.
        code, out, _ = run(capsys, ["symm", *argv])
        assert code == 0
        assert json.dumps(payload(out)["report"]) == json.dumps(report)

    def test_lemma3_construction(self, capsys):
        code, out, _ = run(
            capsys, ["symm", "--construction", "lemma3", "--dims", "4", "1", "2"]
        )
        assert code == 0
        assert payload(out)["report"]["symmetrizer_dimension"] == 0

    def test_lemma3_needs_g1_one(self, capsys):
        code, _, _ = run(
            capsys, ["symm", "--construction", "lemma3", "--dims", "4", "2", "2"]
        )
        assert code == 2

    def test_geometric_candidate(self, capsys):
        code, out, err = run(capsys, ["symm", "--geometric", "fermat", "3", "6"])
        assert code == 0
        report = payload(out)["report"]
        assert report["canonical_symmetrizer"] == "nonzero"
        assert report["symmetric"] is True
        assert report["pairs_checked"] == 60
        assert "canonical symmetrizer: nonzero, symmetric: true" in err

    def test_geometric_rejects_other_fixtures(self, capsys):
        assert run(capsys, ["symm", "--geometric", "cubic", "3", "6"])[0] == 2

    def test_mode_conflicts(self, capsys):
        assert run(capsys, ["symm", "--construction", "prop4"])[0] == 2
        assert run(capsys, ["symm", "--dims", "2", "2", "2"])[0] == 2
        assert (
            run(
                capsys,
                ["symm", "--geometric", "fermat", "3", "6", "--dims", "2", "2", "2"],
            )[0]
            == 2
        )

    def test_csv_rejected(self, capsys):
        code, _, _ = run(
            capsys,
            ["symm", "--dims", "2", "2", "2", "--k", "3", "--format", "csv"],
        )
        assert code == 2


class TestVerifyTheoremCommand:
    def test_report_only_exit_zero(self, capsys):
        code, out, err = run(capsys, ["verify-theorem", "--fermat", "3", "5"])
        assert code == 0
        report = payload(out)["report"]
        assert report["verdict"] == "Inconclusive"
        assert report["inequality_holds"] is None
        assert any("theorem range" in note for note in report["notes"])
        assert "Inconclusive" in err

    def test_singular_exit_three(self, capsys, tmp_path):
        f = tmp_path / "singular.txt"
        f.write_text("x0^6")
        code, _, _ = run(
            capsys, ["verify-theorem", "--poly", str(f), "--num-vars", "5"]
        )
        assert code == 3

    def test_nodal_quartic_full_exit_three(self, capsys, tmp_path):
        # Only the rank of the Koszul relations on R^8 sees the node.
        f = tmp_path / "nodal.txt"
        f.write_text(NODAL_QUARTIC)
        code, out, err = run(capsys, ["verify-theorem", "--poly", str(f), "--socle-mode", "full"])
        assert code == 3 and not out and "socle" in err

    def test_witness_on_fermat_sextic(self, capsys):
        code, out, _ = run(capsys, ["verify-theorem", "--fermat", "3", "6"])
        assert code == 0
        report = payload(out)["report"]
        assert report["verdict"] == "NonGenericityWitnessed"
        assert report["dims"] == {"h_n0": 5, "h_n1_1": 255, "dim_E": 185}

    def test_csv_rejected(self, capsys):
        code, _, _ = run(
            capsys, ["verify-theorem", "--fermat", "3", "5", "--format", "csv"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv,report",
        [
            (
                ["--fermat", "3", "6"],
                {
                    "canonical_symmetrizer_nonzero": True, "d": 6, "dims": {"dim_E": 185, "h_n0": 5, "h_n1_1": 255},
                    "dims_match": True, "fixture": "fermat(3,6)", "in_theorem_range": True, "inequality_holds": True,
                    "n": 3, "notes": [], "p0_injective": True, "p1_injective": True, "prime": 10007,
                    "socle_mode": "full", "socle_points_checked": 0, "symmetrizer_pairs_checked": 60,
                    "verdict": "NonGenericityWitnessed",
                },
            ),
            (
                ["--poly", DENSE_QUARTIC],
                {
                    "canonical_symmetrizer_nonzero": True, "d": 4, "dims": {"dim_E": 19, "h_n0": 1, "h_n1_1": 19},
                    "dims_match": True, "fixture": "poly(952502af1e1e)", "in_theorem_range": False,
                    "inequality_holds": None, "n": 2,
                    "notes": ["outside theorem range (needs n >= 3 and d >= n + 3); report-only"],
                    "p0_injective": True, "p1_injective": True, "prime": 10007, "socle_mode": "full",
                    "socle_points_checked": 0, "symmetrizer_pairs_checked": 60, "verdict": "Inconclusive",
                },
            ),
            (
                ["--poly", CUBIC_SURFACE],
                {
                    "canonical_symmetrizer_nonzero": False, "d": 3, "dims": {"dim_E": 4, "h_n0": 0, "h_n1_1": 6},
                    "dims_match": True, "fixture": "poly(6af3d2b3e9db)", "in_theorem_range": False,
                    "inequality_holds": None, "n": 2,
                    "notes": [
                        "outside theorem range (needs n >= 3 and d >= n + 3); report-only",
                        "degree d-(n+2) is negative; p_0 injectivity degenerate",
                        "a sampled multiplication map is zero",
                    ],
                    "p0_injective": False, "p1_injective": False, "prime": 10007, "socle_mode": "full",
                    "socle_points_checked": 0, "symmetrizer_pairs_checked": 6, "verdict": "Inconclusive",
                },
            ),
            (
                ["--poly", QUINTIC_THREEFOLD, "--socle-mode", "full"],
                {
                    "canonical_symmetrizer_nonzero": True, "d": 5, "dims": {"dim_E": 101, "h_n0": 1, "h_n1_1": 101},
                    "dims_match": True, "fixture": "poly(dc7b64a12aee)", "in_theorem_range": False,
                    "inequality_holds": None, "n": 3,
                    "notes": ["outside theorem range (needs n >= 3 and d >= n + 3); report-only"],
                    "p0_injective": True, "p1_injective": True, "prime": 10007, "socle_mode": "full",
                    "socle_points_checked": 0, "symmetrizer_pairs_checked": 60, "verdict": "Inconclusive",
                },
            ),
            (
                # The degree-20 ideal piece, 19380 x 10626, is over the
                # default budget: auto mode falls back to the probe.
                ["--poly", SMOOTH_SEXTIC],
                {
                    "canonical_symmetrizer_nonzero": True, "d": 6, "dims": {"dim_E": 185, "h_n0": 5, "h_n1_1": 255},
                    "dims_match": True, "fixture": "poly(44db4fe2249b)", "in_theorem_range": True,
                    "inequality_holds": True, "n": 3,
                    "notes": [
                        "socle check beyond budget; fell back to the point probe",
                        "smoothness probed at 14 points, not proven",
                    ],
                    "p0_injective": True, "p1_injective": True, "prime": 10007, "socle_mode": "cheap",
                    "socle_points_checked": 14, "symmetrizer_pairs_checked": 60,
                    "verdict": "NonGenericityWitnessed",
                },
            ),
        ],
        ids=["fermat(3,6)", "quartic-surface", "cubic-surface", "quintic-threefold-full", "sextic-auto"],
    )
    def test_report_pinned(self, capsys, tmp_path, argv, report):
        # Recorded output: stdout stays byte-identical across changes.  A
        # polynomial is passed through a file.
        if argv[0] == "--poly":
            path = tmp_path / "f.txt"
            path.write_text(argv[1])
            argv = ["--poly", str(path), *argv[2:]]
        code, out, _ = run(capsys, ["verify-theorem", *argv])
        assert code == 0
        assert json.dumps(payload(out)["report"]) == json.dumps(report)


def canonical_without_timestamp(out):
    env = json.loads(out)
    env.pop("meta")
    return json.dumps(env, sort_keys=True, separators=(",", ":"))


DETERMINISM_CASES = [
    ["profile", "--n", "3..4", "--d-offset", "3"],
    ["monotonicity", "--n", "3", "--d-min", "6", "--d-max", "9"],
    ["jacobian", "--fermat", "3", "6", "--m", "1,6,7"],
    ["symm", "--dims", "2", "2", "2", "--k", "3", "--trials", "20", "--seed", "7"],
    ["symm", "--construction", "prop4", "--dims", "2", "3", "1", "--seed", "3"],
    ["verify-theorem", "--fermat", "3", "5", "--seed", "11"],
]


@pytest.mark.parametrize("argv", DETERMINISM_CASES, ids=lambda a: a[0] + "/" + a[-1])
def test_repeated_runs_identical(capsys, argv):
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert canonical_without_timestamp(out1) == canonical_without_timestamp(out2)


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, ["profile", "--n", "3", "--d", "6", "--output", str(target)]
    )
    assert code == 0
    assert out == ""
    assert "wrote" in err
    env = json.loads(target.read_text())
    assert env["rows"][0]["dim_E"] == 185


def test_env_budget_echoed_in_config(capsys, monkeypatch):
    monkeypatch.setenv("IVHS_BUDGET_ENTRIES", "200000000")
    code, out, _ = run(capsys, ["profile", "--n", "3", "--d", "6"])
    assert code == 0
    assert payload(out)["config"]["budget_entries"] == 200000000
    # The echo is the cap the budget checks enforce.
    monkeypatch.setenv("IVHS_BUDGET_ENTRIES", " 5000")
    code, out, _ = run(capsys, ["profile", "--n", "3", "--d", "6"])
    assert code == 0
    assert payload(out)["config"]["budget_entries"] == 5000
    monkeypatch.setenv("IVHS_BUDGET_ENTRIES", "-5")
    code, out, err = run(capsys, ["profile", "--n", "3", "--d", "6"])
    assert code == 3
    assert out == ""
    assert "IVHS_BUDGET_ENTRIES must be positive" in err


@pytest.mark.parametrize("name", ["IVHS_BUDGET_ENTRIES", "IVHS_MAX_UNKNOWNS"])
def test_invalid_env_budget_refused_before_the_command_runs(capsys, monkeypatch, name):
    def command_ran(ns):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_jacobian", command_ran)
    monkeypatch.setenv(name, "-5")
    code, out, err = run(capsys, ["jacobian", "--fermat", "3", "6", "--m", "1,6,7,13,20,21"])
    assert (code, out) == (3, "")
    assert f"{name} must be positive" in err
