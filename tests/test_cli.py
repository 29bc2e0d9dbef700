"""End-to-end tests of the batch front-end."""

import hashlib
import json

import pytest

from ellpoisson.cli import main


def run(args, tmp_path, name="out.json"):
    path = tmp_path / name
    code = main(args + ["--output", str(path)])
    return code, path.read_text()


class TestExitCodes:
    def test_theta_passes(self, tmp_path):
        code, _ = run(["theta", "--n", "3", "--tau", "0", "1"], tmp_path)
        assert code == 0

    def test_bad_tau_is_usage_error(self, capsys):
        code = main(["theta", "--tau", "0", "-1"])
        assert code == 2
        assert "Im(tau) must be positive" in capsys.readouterr().err

    def test_non_coprime_rejected(self, capsys):
        code = main(["sklyanin", "--n", "4", "--k", "2"])
        assert code == 2
        assert "gcd(n,k) must be 1" in capsys.readouterr().err

    def test_moduli_compare_rejects_k2(self, capsys):
        code = main(["moduli-compare", "--k", "2"])
        assert code == 2
        assert "only established for k = 1" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["theta", "--n", "1"], "order n must be at least 2"),
        (["theta", "--truncation-eps", "0"],
         "truncation-eps must be positive and finite"),
        (["homology", "--n", "0"], "need r >= 1 and n >= 1"),
        (["homology", "--r", "0"], "need r >= 1 and n >= 1"),
        (["theta", "--tau", "nan", "1"], "tau must be finite"),
        (["sklyanin", "--n", "5", "--k", "7"], "k must satisfy 0 < k < n"),
        (["moduli-compare", "--samples", "0"], "samples must be at least 1"),
        (["homology", "--samples", "-1"], "samples must be at least 1"),
        (["moduli-compare", "--quad-points", "16"],
         "need at least 32 contour points"),
        (["sklyanin", "--n", "2", "--k", "1"],
         "at n = 2 the Sklyanin bracket vanishes identically"),
        (["moduli-compare", "--n", "2", "--samples", "1"],
         "at n = 2 the Sklyanin bracket vanishes identically"),
    ])
    def test_out_of_domain_input_is_usage_error(self, args, message, capsys):
        code = main(args)
        assert code == 2
        out, err = capsys.readouterr()
        assert message in err
        assert "Traceback" not in err
        assert out == ""  # no report

    def test_theta_lost_in_rounding_refused(self, capsys):
        # at n = 2 the relative checks of the values at 0 pass on noise;
        # the series' cancellation bound refuses the lattice instead
        code = main(["theta", "--n", "2", "--tau", "0", "1e-6"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "Im tau = 1e-06 is out of numerical range at n = 2" in err
        assert "rounding in the theta series" in err
        assert "Traceback" not in err and out == ""

    def test_eta_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "--eta", "0", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eta" in capsys.readouterr().err

    def test_radius_must_exclude_tau_direction_poles(self, capsys):
        # at tau = 0.1i the nearest other pole of phi is 0.1 away from 0
        code = main(["moduli-compare", "--n", "3", "--tau", "0", "0.1",
                     "--radius", "0.15", "--samples", "1"])
        assert code == 2
        assert "radius must lie strictly between 0 and 0.05" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--tau", "0", "0.05"],
        ["--tau", "0", "0.1", "--radius", "0.025"],
    ])
    def test_small_im_tau_contours_pass(self, args, tmp_path):
        code, text = run(["moduli-compare", "--n", "3", "--samples", "1"]
                         + args, tmp_path)
        assert code == 0
        checks = json.loads(text)["checks"]
        assert [c["name"] for c in checks] == ["method_agreement",
                                               "matches_projective_bracket"]

    def test_sign_flip_fails_with_named_identity(self, tmp_path):
        code, text = run(["homology", "--n", "3", "--samples", "1",
                          "--seed", "1", "--inject-sign-flip"], tmp_path)
        assert code == 1
        report = json.loads(text)
        assert "chain-map square" in report["tables"]["failures"][0][1]


class TestReports:
    def test_json_schema(self, tmp_path):
        code, text = run(["sklyanin", "--n", "3", "--k", "1"], tmp_path)
        assert code == 0
        report = json.loads(text)
        assert set(report) == {"command", "params", "checks", "tables",
                               "elapsed_ms"}
        for check in report["checks"]:
            assert set(check) == {"name", "residual", "tolerance", "pass"}

    def test_csv_layout(self, tmp_path):
        code, text = run(["theta", "--n", "3", "--format", "csv"], tmp_path,
                         "out.csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "name,residual,tolerance,pass"
        assert all(line.count(",") == 3 for line in lines[1:])
        assert all(line.endswith("true") for line in lines[1:])

    def test_leaves_table(self, tmp_path):
        code, text = run(["leaves", "--n", "3"], tmp_path)
        assert code == 0
        report = json.loads(text)
        tagged = [tuple(row[:1] + row[3:4]) for row in
                  report["tables"]["strata"] if row[5]]
        assert sorted(tagged) == [(0, 6), (1, 4), (2, 0), (2, 2), (3, 0)]

    def test_leaves_computes_end_dim_once_per_record(self, tmp_path,
                                                     monkeypatch):
        import ellpoisson.cli as cli
        import ellpoisson.leaves as leaves

        calls = []
        original = leaves.end_dim_sheaf

        def counted(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(leaves, "end_dim_sheaf", counted)
        monkeypatch.setattr(cli, "end_dim_sheaf", counted)
        code, text = run(["leaves", "--n", "6"], tmp_path)
        assert code == 0
        rows = json.loads(text)["tables"]["strata"]
        assert len(calls) == len(rows)

    def test_leaves_n1(self, tmp_path):
        code, text = run(["leaves", "--n", "1"], tmp_path)
        assert code == 0
        rows = json.loads(text)["tables"]["strata"]
        assert [(r[0], r[3]) for r in rows] == [(0, 2), (1, 0)]

    def test_homology_zero_samples_refused(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = main(["homology", "--samples", "0", "--output", str(path)])
        assert code == 2
        assert "samples must be at least 1" in capsys.readouterr().err
        assert not path.exists()

    def test_sklyanin_k2_has_no_f_row(self, tmp_path):
        code, text = run(["sklyanin", "--n", "5", "--k", "2"], tmp_path)
        assert code == 0
        report = json.loads(text)
        names = [c["name"] for c in report["checks"]]
        assert "canonical_form_equals_f_table" not in names
        assert "jacobi_defect" in names


class TestDeterminism:
    @staticmethod
    def strip_elapsed(text):
        report = json.loads(text)
        report.pop("elapsed_ms")
        return json.dumps(report, sort_keys=True)

    def test_identical_seed_identical_payload(self, tmp_path):
        args = ["moduli-compare", "--n", "3", "--samples", "4", "--seed", "7"]
        code1, text1 = run(args, tmp_path, "a.json")
        code2, text2 = run(args, tmp_path, "a.json")
        assert code1 == code2 == 0
        assert self.strip_elapsed(text1) == self.strip_elapsed(text2)

    @pytest.mark.parametrize("args, points, radius", [
        ([], 128, 1 / 12),
        (["--tau", "0", "0.1", "--quad-points", "64"], 64, 0.025),
        (["--radius", "0.05"], 128, 0.05),
    ])
    def test_moduli_contour_block(self, args, points, radius, tmp_path):
        # the contour actually used, identical in every run
        args = ["moduli-compare", "--n", "3", "--samples", "1"] + args
        blocks = []
        for name in ("a.json", "b.json"):
            code, text = run(args, tmp_path, name)
            assert code == 0
            contour = json.loads(text)["tables"]["contour"]
            blocks.append(json.dumps(contour, sort_keys=True))
        assert blocks[0] == blocks[1]
        assert contour["points"] == points
        assert contour["radius"] == pytest.approx(radius, rel=1e-15, abs=0)

    def test_different_seed_changes_payload(self, tmp_path):
        base = ["moduli-compare", "--n", "3", "--samples", "4"]
        _, text1 = run(base + ["--seed", "1"], tmp_path, "a.json")
        _, text2 = run(base + ["--seed", "2"], tmp_path, "b.json")
        assert self.strip_elapsed(text1) != self.strip_elapsed(text2)

    def test_environment_does_not_set_tolerances(self, tmp_path,
                                                 monkeypatch):
        # --tol and --truncation-eps are the only way to set these values
        monkeypatch.setenv("ELLPOISSON_TOL", "1e-30")
        monkeypatch.setenv("ELLPOISSON_TRUNCATION_EPS", "1e-9")
        code, text = run(["theta", "--n", "3"], tmp_path)
        assert code == 0
        params = json.loads(text)["params"]
        assert params["tol"] == 1e-8
        assert params["truncation_eps"] == 1e-12

    # sha256 of the exit code and the homology payload without timings,
    # computed with int64-loop products on object storage: no arithmetic
    # path may change a payload
    @pytest.mark.parametrize("n, r, seed, flip, digest", [
        (3, 1, 0, False, "bc8859ac03df43b3"),
        (3, 2, 0, False, "5039d148a4e60744"),
        (4, 1, 0, False, "597726b464568222"),
        (4, 2, 0, False, "c55d00547642a23b"),
        (5, 1, 0, False, "195bf4cabe043f53"),
        (5, 2, 0, False, "f00d8ee65197e148"),
        (6, 1, 0, False, "0816f0bb656ed04f"),
        (6, 2, 0, False, "85760c696920c502"),
        (7, 1, 0, False, "fc6617f7d0c96e93"),
        (7, 2, 0, False, "0aa30fc33f17b6db"),
        (3, 1, 17, False, "e772ed63bc8a325f"),
        (3, 2, 17, False, "121bde16cd7b5452"),
        (4, 1, 17, False, "1dbf5492c9d9f239"),
        (4, 2, 17, False, "193789a11c114b50"),
        (5, 1, 17, False, "44b6eda297911354"),
        (5, 2, 17, False, "b4c396a0e979cc53"),
        (6, 1, 17, False, "cf237d8f6e1190a1"),
        (6, 2, 17, False, "39a32cf07143bf0b"),
        (7, 1, 17, False, "0ba15e0fd9fc05a8"),
        (7, 2, 17, False, "809446d20e5e55ff"),
        (4, 1, 0, True, "7efd631c43a6ab6d"),
    ])
    def test_homology_payload_pinned(self, n, r, seed, flip, digest,
                                     capsys):
        args = ["homology", "--n", str(n), "--r", str(r), "--seed", str(seed)]
        # the sign-flip run takes two samples, the others one
        args += ["--samples", "2", "--inject-sign-flip"] if flip else \
            ["--samples", "1"]
        code = main(args)
        report = json.loads(capsys.readouterr().out)
        report.pop("elapsed_ms")
        report.pop("timings", None)
        text = f"{code}\n" + json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
