"""End-to-end tests of the batch front-end."""

import argparse
import hashlib
import json
import math
import re
import time
import warnings

import numpy as np
import pytest

from ellpoisson.cli import RunConfig, _sample_chart_points, build_parser, \
    main
from oracles import chart_points_loop

# the 28 option strings of the subcommands, in the order they are declared
FLAGS = {
    "theta": ["--n", "--tau", "--seed", "--format", "--output"],
    "sklyanin": ["--n", "--k", "--tau", "--seed", "--format", "--output"],
    "moduli-compare": ["--n", "--tau", "--samples", "--seed", "--format",
                       "--output"],
    "leaves": ["--n", "--seed", "--format", "--output"],
    "homology": ["--n", "--samples", "--seed", "--format", "--output", "--r",
                 "--inject-sign-flip"],
}


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
        # the identification with the extension-moduli bracket is only
        # established for k = 1, so the command has no --k
        with pytest.raises(SystemExit) as exc:
            main(["moduli-compare", "--k", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k 2" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["theta", "--n", "1"], "order n must be at least 2"),
        (["theta", "--tau", "inf", "1"], "tau must be finite"),
        (["homology", "--n", "0"], "need r >= 1 and n >= 1"),
        (["homology", "--r", "0"], "need r >= 1 and n >= 1"),
        (["theta", "--tau", "nan", "1"], "tau must be finite"),
        (["sklyanin", "--n", "5", "--k", "7"], "k must satisfy 0 < k < n"),
        (["moduli-compare", "--samples", "0"], "samples must be at least 1"),
        (["homology", "--samples", "-1"], "samples must be at least 1"),
        (["moduli-compare", "--seed", "-1"], "seed must be non-negative"),
        (["sklyanin", "--n", "2", "--k", "1"],
         "at n = 2 the Sklyanin bracket vanishes identically"),
        (["moduli-compare", "--n", "2", "--samples", "1"],
         "at n = 2 the Sklyanin bracket vanishes identically"),
        (["leaves", "--n", "0"], "n must be positive"),
        (["leaves", "--n", "21"], "n must be at most 20"),
        (["sklyanin", "--n", "5", "--k", "4"],
         "its bracket vanishes identically"),
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

    @pytest.mark.parametrize("command", ["sklyanin", "moduli-compare"])
    def test_bracket_lost_in_rounding_refused(self, command, tmp_path,
                                              capsys):
        # the basis is accepted at n = 5, Im tau = 0.012 (theta exits 0),
        # but its rounding bound 4.6e-11 is beyond the 1e-11 under which
        # the 1e-10 bracket checks cannot fail from rounding alone
        args = ["--n", "5", "--tau", "0", "0.012"]
        assert run(["theta"] + args, tmp_path)[0] == 0
        code = main([command] + args)
        out, err = capsys.readouterr()
        assert code == 2
        assert ("Im tau = 0.012 is out of numerical range for the bracket "
                "checks at n = 5") in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("args, message", [
        (["sklyanin", "--n", "5", "--tau", "0", "1e-300"],
         "Im tau = 1e-300 is out of numerical range at n = 5: the theta "
         "series at n*tau needs 1.38e+150 terms, beyond the limit 4096"),
        (["theta", "--n", "3", "--tau", "0", "1e308"],
         "Im tau = 1e+308 is out of numerical range at n = 3: n Im tau is "
         "not finite"),
    ], ids=["sklyanin_small_im_tau", "theta_large_im_tau"])
    def test_series_beyond_limit_refused_at_once(self, args, message,
                                                 capsys):
        # the truncation is found in closed form and refused before any
        # series is summed; counting the 1.4e150 terms never returned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            code = main(args)
            elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 2
        assert message in err
        assert "Traceback" not in err and "Warning" not in err and out == ""
        assert elapsed < 1.0

    def test_bracket_beyond_double_range_refused(self, capsys):
        # |theta_3(0)| reaches exp(431) at n = 7, tau = 80i, so a product of
        # two values at 0 in the bracket's words would overflow
        code = main(["sklyanin", "--n", "7", "--k", "2", "--tau", "0", "80"])
        out, err = capsys.readouterr()
        assert code == 2
        assert ("Im tau = 80 is out of double range at n = 7: a product of "
                "two theta_alpha(0) may reach exp(862)") in err
        assert "Traceback" not in err and out == ""

    def test_f_table_beyond_double_range_refused(self, capsys):
        # the residue tables build F, whose denominators are products of
        # two theta_alpha(0); at n = 23, tau = 20i such a product reaches
        # exp(721), and F must be refused before it is formed: a
        # RuntimeWarning of an overflowing product is an error here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["moduli-compare", "--n", "23", "--tau", "0", "20",
                         "--samples", "1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert ("Im tau = 20 is out of double range at n = 23: a product of "
                "two theta_alpha(0) may reach exp(721)") in err
        assert "Traceback" not in err and "Warning" not in err and out == ""

    def test_eta_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "--eta", "0", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eta" in capsys.readouterr().err

    def test_flag_surface(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        found = {name: [s for a in p._actions for s in a.option_strings
                        if s not in ("-h", "--help")]
                 for name, p in sub.choices.items()}
        assert found == FLAGS
        assert len(RunConfig.__dataclass_fields__) == 9

    @pytest.mark.parametrize("args", [
        ["theta", "--tol", "1e300"],
        ["theta", "--truncation-eps", "0.5"],
        ["sklyanin", "--tol", "1e300"],
        ["sklyanin", "--truncation-eps", "0.5"],
        ["moduli-compare", "--tol", "-1"],
        ["moduli-compare", "--truncation-eps", "0"],
        ["moduli-compare", "--quad-points", "32"],
        ["moduli-compare", "--radius", "1e-9"],
        ["moduli-compare", "--k", "2"],
        ["leaves", "--tau", "0", "-5"],
        ["leaves", "--tol", "-1"],
        ["leaves", "--truncation-eps", "0"],
        ["homology", "--tau", "0", "1"],
        ["homology", "--tol", "-1"],
        ["homology", "--truncation-eps", "0"],
    ], ids=" ".join)
    def test_removed_flag_is_usage_error(self, args, capsys):
        # tolerances and numerical settings are constants; a command has no
        # flag it does not read
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {args[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--tau", "0", "0.05"],
        ["--tau", "0", "0.1"],
    ])
    def test_small_im_tau_contours_pass(self, args, tmp_path):
        code, text = run(["moduli-compare", "--n", "3", "--samples", "1"]
                         + args, tmp_path)
        assert code == 0
        checks = json.loads(text)["checks"]
        assert [c["name"] for c in checks] == ["method_agreement",
                                               "matches_projective_bracket"]

    @pytest.mark.parametrize("n", [9, 10, 11, 12, 13])
    @pytest.mark.parametrize("tau", [("0", "1"), ("0.3", "0.8"), ("0", "0.5")])
    def test_sklyanin_passes_at_larger_n(self, n, tau, tmp_path):
        # the larger n of the bracket workload, where the bracket's scale
        # and the distance to the nearest pole in eta vary most
        code, text = run(["sklyanin", "--n", str(n), "--k", "1", "--tau",
                          *tau], tmp_path)
        assert code == 0, text

    @pytest.mark.parametrize("n, k", [(3, 1), (5, 1), (5, 2), (7, 1),
                                      (7, 3)])
    def test_sklyanin_passes_at_small_im_tau(self, n, k, tmp_path):
        # the n shifted factors of the defining product lost about five
        # digits at tau = 0.05i, and the Jacobi defect read up to 5e-10;
        # the one series at n tau keeps it at rounding level
        code, text = run(["sklyanin", "--n", str(n), "--k", str(k),
                          "--tau", "0", "0.05"], tmp_path)
        assert code == 0, text
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert checks["jacobi_defect"]["residual"] <= 1e-13

    @pytest.mark.parametrize("error, name", [
        (1e-6, "semiclassical_deviation"),
        (1e-3, "semiclassical_slope_shortfall"),
    ])
    def test_scaled_closed_form_fails(self, error, name, tmp_path,
                                      monkeypatch):
        # power control: the semiclassical checks against a closed form
        # off by the given relative error
        import ellpoisson.cli as cli
        closed_form = cli.sklyanin_bracket

        def scaled(basis, k):
            ref = closed_form(basis, k)
            return cli.QuadraticBracket(ref.n, ref.coeffs * (1 + error))

        monkeypatch.setattr(cli, "sklyanin_bracket", scaled)
        code, text = run(["sklyanin", "--n", "7", "--k", "3", "--tau",
                          "0", "0.5"], tmp_path)
        assert code == 1
        verdicts = {c["name"]: c["pass"]
                    for c in json.loads(text)["checks"]}
        assert verdicts[name] is False

    @pytest.mark.parametrize("im", ["1", "6", "20"])
    def test_f_table_check_sees_one_entry_off(self, im, tmp_path,
                                              monkeypatch):
        # power control: the F entries spread over many decades at large
        # Im tau (the smallest is 6.9e-43 at 20i), so the comparison is
        # entrywise relative; a 1e-6 relative error in the smallest entry
        # must fail it
        import ellpoisson.cli as cli
        f_constants = cli.f_constants
        args = ["sklyanin", "--n", "5", "--k", "1", "--tau", "0", im]

        def verdict():
            text = run(args, tmp_path)[1]
            (check,) = [c for c in json.loads(text)["checks"]
                        if c["name"] == "canonical_form_equals_f_table"]
            return check

        assert verdict()["pass"]

        def off(basis):
            table = f_constants(basis).copy()
            size = np.where(table != 0, np.abs(table), np.inf)
            table[np.unravel_index(np.argmin(size), size.shape)] *= 1 + 1e-6
            return table

        monkeypatch.setattr(cli, "f_constants", off)
        check = verdict()
        assert not check["pass"]
        assert check["residual"] == pytest.approx(1e-6, rel=1e-5)

    @pytest.mark.parametrize("args", [
        ["theta", "--n", "5"],
        ["sklyanin", "--n", "5"],
        ["moduli-compare", "--n", "3", "--samples", "1"],
    ], ids=" ".join)
    def test_large_re_tau_reduced_exactly(self, args, tmp_path):
        # Re tau = 1e7 + 0.3 runs as its fmod-reduced value mod 2n
        n = int(args[2])
        runs = []
        for re_tau in (1e7 + 0.3, math.fmod(1e7 + 0.3, 2 * n)):
            code, text = run(args + ["--tau", repr(re_tau), "1"], tmp_path)
            assert code == 0, text
            report = json.loads(text)
            runs.append(json.dumps([report["checks"], report["tables"]],
                                   sort_keys=True))
        assert runs[0] == runs[1]

    def test_sign_flip_fails_with_named_identity(self, tmp_path):
        code, text = run(["homology", "--n", "3", "--samples", "1",
                          "--seed", "1", "--inject-sign-flip"], tmp_path)
        assert code == 1
        report = json.loads(text)
        assert "chain-map square" in report["tables"]["failures"][0][1]


class TestRefusals:
    """Out-of-range lattices keep their exit codes and messages, with no
    RuntimeWarning, now that the basis samples the residue circle."""

    @pytest.mark.parametrize("args, expected", [
        (["--n", "3", "--tau", "0", "1e-6"],
         {c: (2, "Im tau = 1e-06 is out of numerical range at n = 3: "
                 "rounding in the theta series may reach 8.7e+03 of a basis "
                 "value at 0, beyond 1e-08")
          for c in ("theta", "sklyanin", "moduli-compare")}),
        (["--n", "5", "--tau", "0", "1e-10"],
         {c: (2, "Im tau = 1e-10 is out of numerical range at n = 5: the "
                 "theta series at n*tau needs 1.38e+05 terms, beyond the "
                 "limit 4096")
          for c in ("theta", "sklyanin", "moduli-compare")}),
        (["--n", "7", "--tau", "0", "0.006"],
         {c: (2, "Im tau = 0.006 is out of numerical range at n = 7: "
                 "rounding in the theta series may reach 1.7e-08 of a basis "
                 "value at 0, beyond 1e-08")
          for c in ("theta", "sklyanin", "moduli-compare")}),
        # the basis builds; theta refuses its own sample points, and
        # moduli-compare the residue circle, whose lower half reduces with
        # lattice index -1
        (["--n", "31", "--tau", "0", "6"],
         {"theta": (2, "theta_0 at z = (0.9271545530678674+6.163052476062281j)"
                       " is out of double range: the value may reach "
                       "exp(1169)"),
          "sklyanin": (0, ""),
          "moduli-compare": (2, "theta_0 at z = (-1.4814275796137336e-18"
                                "-0.008064516129032258j) is out of double "
                                "range: the value may reach exp(1169)")}),
    ], ids=["im_1e-6", "series_terms_limit", "rounding_limit", "n31_tau6i"])
    @pytest.mark.parametrize("command", ["theta", "sklyanin",
                                         "moduli-compare"])
    def test_theta_commands_keep_their_refusals(self, command, args,
                                                expected, capsys):
        extra = ["--samples", "1"] if command == "moduli-compare" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command] + args + extra)
        out, err = capsys.readouterr()
        code_expected, message = expected[command]
        assert code == code_expected
        if message:
            assert err.startswith("error: " + message)
            assert "Traceback" not in err and out == ""
        else:
            assert err == ""


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

    def test_leaves_tags_classical_rows_once(self, tmp_path, monkeypatch):
        import ellpoisson.cli as cli

        calls = []
        classical_cubic_rows = cli.classical_cubic_rows

        def counted(records):
            calls.append(len(records))
            return classical_cubic_rows(records)

        monkeypatch.setattr(cli, "classical_cubic_rows", counted)
        assert run(["leaves", "--n", "3"], tmp_path)[0] == 0
        assert len(calls) == 1
        assert run(["leaves", "--n", "4"], tmp_path)[0] == 0
        assert len(calls) == 1

    def test_leaves_computes_end_dim_once_per_partition(self, tmp_path,
                                                        monkeypatch):
        import ellpoisson.cli as cli
        import ellpoisson.leaves as leaves

        sheaf_calls = []
        local_calls = []
        end_dim_sheaf = leaves.end_dim_sheaf
        end_dim_local = leaves.end_dim_local

        def counted_sheaf(t):
            sheaf_calls.append(t)
            return end_dim_sheaf(t)

        def counted_local(r):
            local_calls.append(r)
            return end_dim_local(r)

        monkeypatch.setattr(leaves, "end_dim_sheaf", counted_sheaf)
        monkeypatch.setattr(cli, "end_dim_sheaf", counted_sheaf)
        monkeypatch.setattr(leaves, "end_dim_local", counted_local)
        code, text = run(["leaves", "--n", "6"], tmp_path)
        assert code == 0
        rows = json.loads(text)["tables"]["strata"]
        # 110 rows from the 29 partitions of 1..6
        assert len(rows) == 110
        assert sheaf_calls == []
        assert len(local_calls) <= 29

    def test_leaves_n1(self, tmp_path):
        code, text = run(["leaves", "--n", "1"], tmp_path)
        assert code == 0
        rows = json.loads(text)["tables"]["strata"]
        assert [(r[0], r[3]) for r in rows] == [(0, 2), (1, 0)]

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "out.json"
        code = main(["leaves", "--n", "2", "--output", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert f"error: cannot write report to {path}: " in err
        assert "No such file or directory" in err
        assert "Traceback" not in err and out == ""
        assert not path.parent.exists()

    def test_homology_zero_samples_refused(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = main(["homology", "--samples", "0", "--output", str(path)])
        assert code == 2
        assert "samples must be at least 1" in capsys.readouterr().err
        assert not path.exists()

    def test_homology_product_budget(self, tmp_path, monkeypatch):
        # the generator's product, the d^2 = 0 check of E, the three of H,
        # which the cone identification reads back, and chain_map_ok's two;
        # the operands stay alive in ``calls``, so their ids are unique
        from ellpoisson.exact import Mat

        calls = []
        matmul = Mat.__matmul__

        def counted(self, other):
            calls.append((self, other))
            return matmul(self, other)

        monkeypatch.setattr(Mat, "__matmul__", counted)
        args = ["homology", "--n", "5", "--samples", "1", "--seed", "0"]
        assert run(args, tmp_path)[0] == 0
        pairs = [(id(a), id(b)) for a, b in calls]
        assert len(pairs) == 7
        assert len(set(pairs)) == len(pairs)

    def test_sklyanin_evaluates_the_relations_once(self, tmp_path,
                                                   monkeypatch):
        # one theta call on the 16 half-circle nodes and the three slope
        # values; the closed form and the circle mean are the only brackets
        # built, the single-eta tables are compared as one stacked array
        import ellpoisson.fo as fo
        from ellpoisson.poisson import QuadraticBracket

        points, built = [], []
        evaluate = fo.theta_alpha_eval
        init = QuadraticBracket.__init__

        def counted_eval(basis, alpha, z):
            points.append(np.shape(z))
            return evaluate(basis, alpha, z)

        def counted_init(self, n, coeffs=None):
            built.append(n)
            init(self, n, coeffs)

        monkeypatch.setattr(fo, "theta_alpha_eval", counted_eval)
        monkeypatch.setattr(QuadraticBracket, "__init__", counted_init)
        code, text = run(["sklyanin", "--n", "7", "--k", "3"], tmp_path)
        assert code == 0
        assert points == [(19,)]
        assert built == [7, 7]
        etas = json.loads(text)["tables"]["semiclassical_single_eta_deviation"]
        assert len(etas) == 3

    def test_theta_one_call_per_point_set(self, tmp_path, monkeypatch):
        # z, z + 1/n, z + tau/n and -z in one call; the automorphy check's
        # grid, shifted by 1 and by tau, in another
        import ellpoisson.cli as cli

        shapes = []
        evaluate = cli.theta_alpha_eval

        def counted(basis, alpha, z):
            shapes.append(np.shape(z))
            return evaluate(basis, alpha, z)

        monkeypatch.setattr(cli, "theta_alpha_eval", counted)
        assert run(["theta", "--n", "5"], tmp_path)[0] == 0
        assert shapes == [(400,), (180,)]

    def test_sklyanin_k2_has_no_f_row(self, tmp_path):
        code, text = run(["sklyanin", "--n", "5", "--k", "2"], tmp_path)
        assert code == 0
        report = json.loads(text)
        names = [c["name"] for c in report["checks"]]
        assert "canonical_form_equals_f_table" not in names
        assert "jacobi_defect" in names


class TestChartPoints:
    def test_array_draws_equal_the_rejection_loop(self):
        # the loop's points for count = 20 start with those for any smaller
        # count, since both read one stream in order
        for n in range(3, 14):
            for seed in range(100):
                ref = chart_points_loop(n, 20, seed)
                for count in range(1, 21):
                    points = _sample_chart_points(n, count, seed)
                    assert len(points) == count
                    for t, r in zip(points, ref):
                        assert t.dtype == r.dtype and t.shape == r.shape
                        assert t.tobytes() == r.tobytes(), (n, count, seed)


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
        ([], 32, 1 / 12),
        (["--tau", "0", "0.1"], 32, 0.025),
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

    def test_sklyanin_eta_circle_block(self, tmp_path):
        # the circle of the semiclassical mean, identical in every run
        args = ["sklyanin", "--n", "5", "--k", "2", "--tau", "0", "0.5"]
        blocks = []
        for name in ("a.json", "b.json"):
            code, text = run(args, tmp_path, name)
            assert code == 0
            circle = json.loads(text)["tables"]["eta_circle"]
            blocks.append(json.dumps(circle, sort_keys=True))
        assert blocks[0] == blocks[1]
        assert circle["points"] == 32
        # a quarter of the shortest vector of (1/5)(Z + 0.5i Z)
        assert circle["radius"] == pytest.approx(0.1 / 4, rel=1e-15, abs=0)

    def test_different_seed_changes_payload(self, tmp_path):
        base = ["moduli-compare", "--n", "3", "--samples", "4"]
        _, text1 = run(base + ["--seed", "1"], tmp_path, "a.json")
        _, text2 = run(base + ["--seed", "2"], tmp_path, "b.json")
        assert self.strip_elapsed(text1) != self.strip_elapsed(text2)

    def test_environment_does_not_set_tolerances(self, tmp_path,
                                                 monkeypatch):
        # the tolerances are constants of the program
        monkeypatch.setenv("ELLPOISSON_TOL", "1e-30")
        monkeypatch.setenv("ELLPOISSON_TRUNCATION_EPS", "1e-9")
        code, text = run(["theta", "--n", "3"], tmp_path)
        assert code == 0
        checks = json.loads(text)["checks"]
        assert [c["tolerance"] for c in checks] == [1e-8] * 6

    # sha256 of the exit code and the homology payload without timings,
    # computed with int64-loop products on object storage: no arithmetic
    # path may change a payload.  The params of those payloads also held
    # four numerical settings that homology never read, at fixed values;
    # the test puts them back before hashing.
    RETIRED_PARAMS = {"tol": 1e-8, "truncation_eps": 1e-12,
                      "quad_points": 128, "radius": None}

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
        assert not self.RETIRED_PARAMS.keys() & report["params"].keys()
        report["params"].update(self.RETIRED_PARAMS)
        text = f"{code}\n" + json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    # sha256 of the exit code and the payload without timings, taken before
    # the bracket jobs evaluated their tables as whole arrays: the batching
    # of theta calls, relation rows and Jacobi triples moves no bit
    @pytest.mark.parametrize("args, digest", [
        (["sklyanin", "--n", "5", "--k", "2", "--tau", "0", "1"],
         "dbfa4ffc6716ab84"),
        (["sklyanin", "--n", "10", "--k", "1", "--tau", "0.3", "0.8"],
         "7fa09bc1c755abf7"),
        (["sklyanin", "--n", "13", "--k", "2", "--tau", "0", "0.5"],
         "f48e5fb2cb3a7e47"),
        (["sklyanin", "--n", "31", "--k", "1"], "4a223d5b58086554"),
        (["theta", "--n", "3"], "1ea2c24c9ffad0a4"),
        (["theta", "--n", "11"], "79461039bd3129ff"),
        (["moduli-compare", "--n", "5", "--samples", "4"],
         "0ebbaaf6aae92e13"),
    ])
    def test_payload_pinned(self, args, digest, capsys):
        code = main(args)
        report = json.loads(capsys.readouterr().out)
        report.pop("elapsed_ms")
        text = f"{code}\n" + json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


MEMO_TAUS = (["0", "1"], ["0.3", "0.8"], ["0", "0.5"])
# a mix of the benchmark rounds, the -0.0 edge and refused lattices
MEMO_JOBS = (
    [["moduli-compare", "--n", str(n), "--samples", str(s),
      "--seed", str(seed), "--tau", *tau]
     for n, s, seed in ((3, 1, 11), (3, 4, 12), (4, 1, 13), (5, 2, 14))
     for tau in MEMO_TAUS]
    + [["sklyanin", "--n", str(n), "--k", str(k), "--seed", str(n + k),
        "--tau", *tau]
       for n, k in ((5, 1), (5, 2), (7, 3), (9, 2)) for tau in MEMO_TAUS]
    + [["theta", "--n", str(n), "--seed", str(n), "--tau", *tau]
       for n in (3, 7) for tau in MEMO_TAUS]
    # -0.0 and 0.0 are one key: the job with -0.0 is served the objects
    # built for 0.0, and its payload must still be its own
    + [[command, "--n", "5", "--tau", re, "1"]
       for command in ("theta", "sklyanin", "moduli-compare")
       for re in ("0", "-0.0")]
    # refused lattices, each twice: a refusal is never kept
    + [["moduli-compare", "--n", "31", "--tau", "0", "6", "--samples",
        "1"]] * 2
    + [["sklyanin", "--n", "3", "--tau", "0", "1e-6"]] * 2)


class TestLatticeMemo:
    """The jobs of one process share each lattice's basis, residue system
    and Sklyanin bracket; the checks still run on every job."""

    @staticmethod
    def outcome(args, capsys):
        code = main(args)
        out, err = capsys.readouterr()
        return code, re.sub(r'"elapsed_ms": [^,}]*', '"elapsed_ms": null',
                            out), err

    def test_payloads_do_not_depend_on_the_job_order(self, capsys,
                                                     monkeypatch):
        import ellpoisson.cli as cli

        built = []
        build = cli.ThetaBasis

        def counted(params):
            built.append(params)
            return build(params)

        monkeypatch.setattr(cli, "ThetaBasis", counted)
        cold = []
        for args in MEMO_JOBS:
            cli._clear_memo()
            cold.append(self.outcome(args, capsys))
        assert len(built) == len(MEMO_JOBS)
        filling = [self.outcome(args, capsys) for args in MEMO_JOBS]
        del built[:]
        warm = [self.outcome(args, capsys) for args in MEMO_JOBS]
        backwards = [self.outcome(args, capsys) for args in MEMO_JOBS[::-1]]
        assert filling == cold
        assert warm == cold
        assert backwards[::-1] == cold
        # warm jobs build only the basis that refuses, on each of its jobs
        assert len(built) == 2 * 2
        assert {code for code, _, _ in cold} == {0, 2}
        refused = [(code, err) for code, _, err in cold[-4:]]
        assert refused[0] == refused[1] and refused[2] == refused[3]
        assert all(code == 2 and err.startswith("error: ")
                   for code, err in refused)
        # the payload of the -0.0 job prints its own Re tau
        assert '"tau_re": -0.0' in cold[-5][1]

    @pytest.mark.parametrize("error, name", [
        (1e-6, "semiclassical_deviation"),
        (1e-3, "semiclassical_slope_shortfall"),
    ])
    def test_scaled_control_fails_after_a_warm_call(self, error, name,
                                                    tmp_path, monkeypatch):
        # the unscaled bracket built by a passing job is not served to a
        # job that runs with a replaced sklyanin_bracket
        import ellpoisson.cli as cli
        args = ["sklyanin", "--n", "7", "--k", "3", "--tau", "0", "0.5"]
        assert run(args, tmp_path)[0] == 0
        closed_form = cli.sklyanin_bracket

        def scaled(basis, k):
            ref = closed_form(basis, k)
            return cli.QuadraticBracket(ref.n, ref.coeffs * (1 + error))

        monkeypatch.setattr(cli, "sklyanin_bracket", scaled)
        code, text = run(args, tmp_path)
        assert code == 1
        verdicts = {c["name"]: c["pass"]
                    for c in json.loads(text)["checks"]}
        assert verdicts[name] is False

    def test_perturbed_basis_fails_after_a_warm_call(self, tmp_path,
                                                     monkeypatch):
        # power control: a replaced ThetaBasis whose circle jet is off by
        # 1e-3 must fail the comparison, and is not served the residue
        # system or the bracket a passing job built from the genuine basis
        import ellpoisson.cli as cli
        args = ["moduli-compare", "--n", "5", "--tau", "0", "1"]
        assert run(args, tmp_path)[0] == 0
        genuine = cli.ThetaBasis
        system = cli._system(cli._basis(RunConfig(n=5)))
        bracket = cli._bracket(cli._basis(RunConfig(n=5)), 1)

        def perturbed(params):
            basis = genuine(params)
            jet = basis.circle_jet.copy()
            jet[0, :, 1] *= 1 + 1e-3
            object.__setattr__(basis, "circle_jet", jet)
            return basis

        monkeypatch.setattr(cli, "ThetaBasis", perturbed)
        code, text = run(args, tmp_path)
        assert code == 1
        verdicts = {c["name"]: c["pass"]
                    for c in json.loads(text)["checks"]}
        assert verdicts["matches_projective_bracket"] is False
        basis = cli._basis(RunConfig(n=5))
        assert cli._system(basis) is not system
        assert cli._system(basis).basis is basis
        assert cli._bracket(basis, 1) is not bracket

    def test_shared_arrays_are_read_only(self):
        import ellpoisson.cli as cli
        cfg = RunConfig(n=5)
        basis = cli._basis(cfg)
        system = cli._system(basis)
        bracket = cli._bracket(basis, 1)
        assert cli._basis(cfg) is basis
        assert cli._system(basis) is system
        assert cli._bracket(basis, 1) is bracket
        for obj in (basis, system, bracket):
            names = getattr(obj, "__slots__", None) or vars(obj)
            arrays = [getattr(obj, name) for name in names
                      if isinstance(getattr(obj, name), np.ndarray)]
            assert arrays
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 1.0

    def test_objects_built_outside_the_memo_stay_writable(self):
        import ellpoisson.cli as cli
        from ellpoisson.poisson import QuadraticBracket
        from ellpoisson.theta import CurveParams, ThetaBasis

        shared = cli._bracket(cli._basis(RunConfig(n=5)), 1)
        g = shared.coeffs.copy()
        own = QuadraticBracket(5, g)
        assert own.coeffs is g and g.flags.writeable
        basis = ThetaBasis(CurveParams(1j, 5))
        assert basis is not cli._basis(RunConfig(n=5))
        assert basis.theta_at_zero.flags.writeable
