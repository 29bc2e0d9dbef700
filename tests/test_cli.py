"""End-to-end tests of the batch front-end."""

import argparse
import copy
import functools
import hashlib
import importlib.util
import json
import math
import re
import sys
import time
import tracemalloc
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ellpoisson import errors
from ellpoisson.cli import RunConfig, UsageError, _sample_chart_points, \
    build_parser, main
from ellpoisson.fo import sklyanin_bracket
from ellpoisson.homology import random_kronecker_complex
from ellpoisson.leaves import enumerate_strata
from ellpoisson.theta import CurveParams, ThetaBasis
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


# the --help text of the parser and of each subcommand at 80 columns
HELP = {
    "": """\
usage: ellpoisson [-h] {theta,sklyanin,moduli-compare,leaves,homology} ...

numerical verification of elliptic quadratic Poisson brackets, residue
calculus and leaf combinatorics

positional arguments:
  {theta,sklyanin,moduli-compare,leaves,homology}
    theta               basis properties and derivatives
    sklyanin            bracket, Jacobi, semiclassical
    moduli-compare      extension-moduli bracket vs projective bracket
    leaves              leaf stratification table
    homology            exact cone-identification checks

options:
  -h, --help            show this help message and exit
""",
    "theta": """\
usage: ellpoisson theta [-h] [--n N] [--tau RE IM] [--seed SEED]
                        [--format {json,csv}] [--output OUTPUT]

options:
  -h, --help           show this help message and exit
  --n N
  --tau RE IM
  --seed SEED
  --format {json,csv}
  --output OUTPUT
""",
    "sklyanin": """\
usage: ellpoisson sklyanin [-h] [--n N] [--k K] [--tau RE IM] [--seed SEED]
                           [--format {json,csv}] [--output OUTPUT]

options:
  -h, --help           show this help message and exit
  --n N
  --k K
  --tau RE IM
  --seed SEED
  --format {json,csv}
  --output OUTPUT
""",
    "moduli-compare": """\
usage: ellpoisson moduli-compare [-h] [--n N] [--tau RE IM]
                                 [--samples SAMPLES] [--seed SEED]
                                 [--format {json,csv}] [--output OUTPUT]

options:
  -h, --help           show this help message and exit
  --n N
  --tau RE IM
  --samples SAMPLES
  --seed SEED
  --format {json,csv}
  --output OUTPUT
""",
    "leaves": """\
usage: ellpoisson leaves [-h] [--n N] [--seed SEED] [--format {json,csv}]
                         [--output OUTPUT]

options:
  -h, --help           show this help message and exit
  --n N
  --seed SEED
  --format {json,csv}
  --output OUTPUT
""",
    "homology": """\
usage: ellpoisson homology [-h] [--n N] [--samples SAMPLES] [--seed SEED]
                           [--format {json,csv}] [--output OUTPUT] [--r R]
                           [--inject-sign-flip]

options:
  -h, --help           show this help message and exit
  --n N
  --samples SAMPLES
  --seed SEED
  --format {json,csv}
  --output OUTPUT
  --r R                rank parameter of the three-term shape
  --inject-sign-flip   flip a sign in the comparison map (power control)
""",
}


# the checks of a sklyanin report at k = 1, in the order it lists them
THETA_CHECKS = ["shift_property_1", "shift_property_2", "shift_property_3",
                "second_log_derivative_2pi_i_n", "dtheta0_constant_on_divisor",
                "automorphy_character"]
SKLYANIN_K1_CHECKS = ["jacobi_defect", "heisenberg_invariance",
                      "canonical_form_equals_f_table",
                      "semiclassical_deviation",
                      "semiclassical_slope_shortfall"]


def workload_round(monkeypatch, workload, seed):
    """The jobs of one round of a perfbench workload."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / \
        "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up while the module is executed
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads.round_jobs(workload, seed)


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
        # sizes no host can allocate, refused before anything is built
        (["moduli-compare", "--samples", "1000000000000000"],
         "samples x n^2 must be at most MAX_MODULI_ENTRIES = 1e+05: at "
         "n = 3 that is 11111 samples"),
        (["homology", "--n", "3", "--r", "1000000000000000"],
         "n = 3, r = 1000000000000000 is too large: a differential of the "
         "endomorphism complex would take 4.8e+46 bytes, beyond numpy's "
         "largest array"),
        (["homology", "--n", "1000000000000000"],
         "n = 1000000000000000, r = 1 is too large: a differential of the "
         "endomorphism complex would take 1.92e+62 bytes, beyond numpy's "
         "largest array"),
        # one check per instance: refused before the first is built
        (["homology", "--n", "3", "--samples", "1000000000000000"],
         "samples must be at most 10000: each instance adds one check to "
         "the report"),
    ])
    def test_out_of_domain_input_is_usage_error(self, args, message, capsys):
        code = main(args)
        assert code == 2
        out, err = capsys.readouterr()
        assert message in err
        assert "Traceback" not in err
        assert out == ""  # no report

    @pytest.mark.parametrize("build, message", [
        (lambda: CurveParams(complex(math.inf, 1.0), 3), "tau must be finite"),
        (lambda: CurveParams(-1j, 3), "Im(tau) must be positive"),
        (lambda: CurveParams(1j, 1), "order n must be at least 2"),
        (lambda: sklyanin_bracket(ThetaBasis(CurveParams(1j, 5)), 7),
         "k must satisfy 0 < k < n"),
        (lambda: sklyanin_bracket(ThetaBasis(CurveParams(1j, 4)), 2),
         "gcd(n,k) must be 1"),
        (lambda: random_kronecker_complex(0, 3, seed=0),
         "need r >= 1 and n >= 1"),
        (lambda: enumerate_strata(0), "n must be positive"),
    ], ids=["tau_finite", "im_tau", "order", "k_range", "coprime", "shape",
            "leaves_n"])
    def test_library_refusal_is_a_usage_error(self, build, message):
        # the library refuses its own domain; main exits 2 on it
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            build()
        assert type(exc.value) is UsageError is errors.UsageError
        assert isinstance(exc.value, errors.EllPoissonError)

    def test_plain_value_error_is_not_a_usage_error(self, monkeypatch):
        # power control: a ValueError from a bug propagates out of main
        # instead of exiting 2
        import ellpoisson.cli as cli

        def broken(E):
            raise ValueError("not a usage error")

        monkeypatch.setattr(cli, "hom_complex", broken)
        with pytest.raises(ValueError, match="not a usage error"):
            main(["homology", "--n", "2", "--samples", "1"])

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
        parser = build_parser()[0]
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        found = {name: [s for a in p._actions for s in a.option_strings
                        if s not in ("-h", "--help")]
                 for name, p in sub.choices.items()}
        assert found == FLAGS
        assert len(RunConfig.__dataclass_fields__) == 9

    @pytest.mark.parametrize("command", HELP, ids=lambda c: c or "top-level")
    def test_help_pinned(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == HELP[command]

    @pytest.mark.parametrize("command", FLAGS)
    def test_defaults_are_those_of_run_config(self, command, capsys):
        (sub,) = [a for a in build_parser()[0]._actions
                  if isinstance(a, argparse._SubParsersAction)]
        defaults = asdict(RunConfig())
        defaults["tau"] = [defaults["tau_re"], defaults["tau_im"]]
        dests = [a.dest for a in sub.choices[command]._actions
                 if a.dest in defaults]
        # every option but --inject-sign-flip sets a RunConfig field
        assert len(dests) == len(FLAGS[command]) - (command == "homology")
        for dest in dests:
            assert sub.choices[command].get_default(dest) == defaults[dest]
        assert main([command]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["params"] == asdict(RunConfig())

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
            return cli.QuadraticBracket(ref.n, ref.rows * (1 + error))

        monkeypatch.setattr(cli, "sklyanin_bracket", scaled)
        code, text = run(["sklyanin", "--n", "7", "--k", "3", "--tau",
                          "0", "0.5"], tmp_path)
        assert code == 1
        verdicts = {c["name"]: c["pass"]
                    for c in json.loads(text)["checks"]}
        assert verdicts[name] is False

    @pytest.mark.parametrize("n", [5, 63])
    def test_wrapped_row_off_fails_heisenberg_invariance(self, n, tmp_path,
                                                         monkeypatch):
        # power control: the wrapped row R[n - 1] of the closed form scaled
        # by 1 + 1e-6 against its partner R[1] reads about 5e-7 at n = 5
        # and 3e-7 at n = 63, where the closed form reads rounding
        import ellpoisson.cli as cli
        closed_form = cli.sklyanin_bracket

        def off(basis, k):
            ref = closed_form(basis, k)
            rows = ref.rows.copy()
            rows[-1] *= 1 + 1e-6
            return cli.QuadraticBracket(ref.n, rows)

        args = ["sklyanin", "--n", str(n)]
        monkeypatch.setattr(cli, "sklyanin_bracket", off)
        code, text = run(args, tmp_path)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert list(checks) == SKLYANIN_K1_CHECKS
        assert checks["heisenberg_invariance"]["pass"] is False
        assert checks["heisenberg_invariance"]["residual"] > 1e-7
        monkeypatch.setattr(cli, "sklyanin_bracket", closed_form)
        code, text = run(args, tmp_path)
        assert code == 0
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert checks["heisenberg_invariance"]["residual"] < 1e-15

    def test_truncated_series_fails_with_its_report(self, tmp_path,
                                                    monkeypatch):
        # a theta series cut to 60% of its bound: a computed failure that
        # exits 1 with the whole report.  Every theta_alpha(0) sums the
        # terms m = -M-1..M+1 of one series, a window that m -> -m maps to
        # itself, so the wrapped pairs of the bracket still agree to
        # rounding (they read 2e-5 while each alpha summed its own
        # reduced series); Jacobi and the circle mean read the cut
        from ellpoisson import theta
        bound_for = theta.series_bound_for
        monkeypatch.setattr(theta, "series_bound_for", lambda tau, eps: max(
            2, int(0.6 * bound_for(tau, eps))))
        code, text = run(["sklyanin", "--n", "5", "--tau", "0", "0.03"],
                         tmp_path)
        assert code == 1
        report = json.loads(text)
        checks = {c["name"]: c for c in report["checks"]}
        assert list(checks) == SKLYANIN_K1_CHECKS
        for name in ("jacobi_defect", "semiclassical_deviation"):
            assert checks[name]["pass"] is False
            assert checks[name]["residual"] > 1e-7
        assert checks["heisenberg_invariance"]["residual"] < 1e-12
        assert set(report["tables"]) == {
            "f_table", "semiclassical_single_eta_deviation", "eta_circle"}

    def test_truncated_series_fails_the_theta_checks(self, tmp_path,
                                                     monkeypatch):
        # a theta series cut to 30% of its bound exits 1 with all six
        # checks; the shift by tau/n, the reflection and the second log
        # derivative read 1.3e-2, 1.3e-2 and 1.1e1.  The other three read
        # rounding: n (z + 1/n) and n k/n reduce to the cell point of n z
        # and of 0, so the cut moves neither side of shift_property_1 nor
        # theta_0'(k/n), and the reduction keeps the automorphy exact
        from ellpoisson import theta
        bound_for = theta.series_bound_for
        monkeypatch.setattr(theta, "series_bound_for", lambda tau, eps: max(
            2, int(0.3 * bound_for(tau, eps))))
        code, text = run(["theta", "--n", "5", "--tau", "0", "0.03"],
                         tmp_path)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert list(checks) == THETA_CHECKS
        failed = ["shift_property_2", "shift_property_3",
                  "second_log_derivative_2pi_i_n"]
        for name in failed:
            assert checks[name]["pass"] is False
            assert checks[name]["residual"] > 1e-3
        for name in set(THETA_CHECKS) - set(failed):
            assert checks[name]["residual"] < 1e-14

    @pytest.mark.parametrize("name", ["shift_property_1",
                                      "dtheta0_constant_on_divisor"])
    def test_theta_check_sees_its_own_fault(self, name, tmp_path,
                                            monkeypatch):
        # power controls for the two checks a cut series leaves at
        # rounding: theta_1(z + 1/n) off by 1e-6 at one point, or the
        # basis's theta_0'(1/n) off by 1e-6; only the check it targets fails
        import ellpoisson.cli as cli
        evaluate, build = cli.theta_alpha_eval, cli.ThetaBasis

        def shifted_off(basis, alpha, z):
            out = evaluate(basis, alpha, z)
            if np.shape(z) == (400,):
                out[100, 1] *= 1 + 1e-6
            return out

        def divisor_off(params):
            b = build(params)
            row = b.dtheta0_at_divisor.copy()
            row[1] *= 1 + 1e-6
            row.setflags(write=False)
            object.__setattr__(b, "dtheta0_at_divisor", row)
            return b

        if name == "shift_property_1":
            monkeypatch.setattr(cli, "theta_alpha_eval", shifted_off)
        else:
            monkeypatch.setattr(cli, "ThetaBasis", divisor_off)
        code, text = run(["theta", "--n", "5"], tmp_path)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert [c for c in checks if not checks[c]["pass"]] == [name]
        assert checks[name]["residual"] > cli.TOL

    @pytest.mark.parametrize("n", [3, 5, 11])
    @pytest.mark.parametrize("tau", [("0", "1"), ("0.3", "0.8")],
                             ids=["i", "0.3+0.8i"])
    def test_automorphy_sees_one_sample_off(self, n, tau, tmp_path,
                                            monkeypatch):
        # power control for automorphy_character, which a cut series leaves
        # exact: the largest theta_1(z + tau) sample of its one call off by
        # a factor 1 + 1e-6 reads 1e-6, as that sample sets the scale
        import ellpoisson.cli as cli
        from ellpoisson.theta import AUTOMORPHY_SAMPLES
        evaluate = cli.theta_alpha_eval

        def tau_sample_off(basis, alpha, z):
            out = evaluate(basis, alpha, z)
            if np.shape(z) == (3 * AUTOMORPHY_SAMPLES,):
                shifted = out[2 * AUTOMORPHY_SAMPLES:]
                shifted[np.argmax(np.abs(shifted))] *= 1 + 1e-6
            return out

        monkeypatch.setattr(cli, "theta_alpha_eval", tau_sample_off)
        code, text = run(["theta", "--n", str(n), "--tau", *tau], tmp_path)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert [c for c in checks if not checks[c]["pass"]] == [
            "automorphy_character"]
        assert checks["automorphy_character"]["residual"] == pytest.approx(
            1e-6, rel=1e-3)

    @pytest.mark.parametrize("name", ["end_dim_lower_bound",
                                      "classical_rows_reproduced"])
    def test_leaves_check_sees_its_own_fault(self, name, tmp_path,
                                             monkeypatch):
        # power controls: end_dim of the type {1: 1} one below its value
        # puts a one-point sheaf below 2 l + 1, or one of the five classical
        # rows of n = 3 is left untagged; only the check it targets fails
        import ellpoisson.cli as cli
        import ellpoisson.leaves as leaves
        end_dim_local = leaves.end_dim_local
        classical_cubic_rows = cli.classical_cubic_rows
        if name == "end_dim_lower_bound":
            monkeypatch.setattr(leaves, "end_dim_local", lambda r: (
                end_dim_local(r) - (dict(r) == {1: 1})))
            n = "4"
        else:
            monkeypatch.setattr(cli, "classical_cubic_rows", lambda records: (
                classical_cubic_rows(records)[1:]))
            n = "3"
        code, text = run(["leaves", "--n", n], tmp_path)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert [c for c in checks if not checks[c]["pass"]] == [name]

    def test_two_tolerances_certify_every_triple(self):
        # jacobi_defect <= JACOBI_TOL on the orbit and heisenberg_invariance
        # <= BRACKET_TOL bound every triple's defect by TOL, in exact
        # arithmetic on the doubles, and no larger JACOBI_TOL does
        import ellpoisson.cli as cli
        from ellpoisson.poisson import ORBIT_CONSTANT

        def total(jacobi_tol):
            return (Fraction(jacobi_tol)
                    + Fraction(ORBIT_CONSTANT) * Fraction(cli.BRACKET_TOL))

        assert total(cli.JACOBI_TOL) <= Fraction(cli.TOL)
        assert total(np.nextafter(cli.JACOBI_TOL, 1.0)) > Fraction(cli.TOL)

    @pytest.mark.parametrize("points", [slice(None), slice(1, 2)],
                             ids=["every_point", "one_point"])
    def test_nan_point_fails_the_projective_check(self, points, tmp_path,
                                                  monkeypatch):
        # a NaN in the projective matrices is a failed comparison, not a
        # point passed over
        import ellpoisson.cli as cli
        projective = cli.projective_matrix

        def with_nan(bracket, t):
            out = projective(bracket, t).copy()
            out[points] = np.nan
            return out

        monkeypatch.setattr(cli, "projective_matrix", with_nan)
        code, text = run(["moduli-compare", "--n", "3", "--samples", "3"],
                         tmp_path)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert checks["method_agreement"]["pass"] is True
        assert checks["matches_projective_bracket"]["pass"] is False
        assert math.isnan(checks["matches_projective_bracket"]["residual"])

    def test_nan_slope_fails_the_slope_check(self, tmp_path, monkeypatch):
        # NaN single-eta deviations make a NaN slope, a failed check and not
        # a shortfall of 0.0
        import ellpoisson.cli as cli
        relations = cli.semiclassical_from_relations

        def nan_singles(basis, k, etas):
            est, singles = relations(basis, k, etas)
            return est, np.full_like(singles, np.nan)

        monkeypatch.setattr(cli, "semiclassical_from_relations", nan_singles)
        code, text = run(["sklyanin", "--n", "5", "--k", "2"], tmp_path)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert checks["semiclassical_deviation"]["pass"] is True
        slope = checks["semiclassical_slope_shortfall"]
        assert slope["pass"] is False
        assert math.isnan(slope["residual"])

    def test_slope_is_the_polyfit_slope(self, capsys, monkeypatch):
        # the closed-form slope against np.polyfit's SVD solve, on every
        # sklyanin job of the bracket rounds at seeds 0 to 2
        import ellpoisson.cli as cli
        log_slope = cli._log_slope
        seen = []

        def recorded(x, y):
            seen.append((x, y, log_slope(x, y)))
            return seen[-1][2]

        monkeypatch.setattr(cli, "_log_slope", recorded)
        jobs = [job for seed in (0, 1, 2)
                for job in workload_round(monkeypatch, "bracket", seed)
                if job.command == "sklyanin"]
        assert {main(job.argv) for job in jobs} <= {0, 1}
        capsys.readouterr()
        assert len(seen) == len(jobs) == 171
        for x, y, slope in seen:
            fit = np.polyfit(np.log(x), np.log(y), 1)[0]
            assert abs(slope - fit) <= 1e-12

    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
    def test_one_lost_deviation_fails_the_slope_check(self, at, value,
                                                      tmp_path, monkeypatch):
        # a zero or NaN single-eta deviation at any eta makes the slope
        # NaN and fails its check; a zero at the smallest eta would make
        # sum (x - mean x) y / sum (x - mean x)^2 read +inf, a shortfall
        # of 0.0 that passes
        import ellpoisson.cli as cli
        relations = cli.semiclassical_from_relations
        bracket = cli._shared(cli.sklyanin_bracket, shared_basis(), 2)

        def one_lost(basis, k, etas):
            est, singles = relations(basis, k, etas)
            singles = singles.copy()
            # the closed form's own rows deviate by 0, NaN rows by NaN
            singles[at] = bracket.rows + value
            return est, singles

        monkeypatch.setattr(cli, "semiclassical_from_relations", one_lost)
        code, text = run(["sklyanin", "--n", "5", "--k", "2"], tmp_path)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert checks["semiclassical_deviation"]["pass"] is True
        slope = checks["semiclassical_slope_shortfall"]
        assert slope["pass"] is False
        assert math.isnan(slope["residual"])

    def test_nan_theta_value_fails_its_checks(self, tmp_path, monkeypatch,
                                              capsys):
        # a NaN basis value in the relations makes the circle mean a NaN
        # bracket, which fails semiclassical_deviation: the job exits 1
        # with its one-line report instead of dying in the bracket's
        # mirror check, and with no warning on its way
        import ellpoisson.fo as fo
        evaluate = fo.theta_alpha_eval

        def nan_entry(basis, alpha, z):
            out = np.array(evaluate(basis, alpha, z))
            out[0, 1] = np.nan
            return out

        monkeypatch.setattr(fo, "theta_alpha_eval", nan_entry)
        code, text = run(["sklyanin", "--n", "5"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == ""
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        deviation = checks["semiclassical_deviation"]
        assert deviation["pass"] is False
        assert math.isnan(deviation["residual"])

    def test_nan_theta_sample_fails_automorphy(self, tmp_path, monkeypatch,
                                               capsys):
        # a NaN theta_1 sample in the automorphy call reads NaN and fails
        # automorphy_character: the job exits 1 with its one-line report
        # instead of raising in verify_automorphy, and with no warning
        import ellpoisson.cli as cli
        evaluate = cli.theta_alpha_eval

        def nan_sample(basis, alpha, z):
            out = evaluate(basis, alpha, z)
            if np.ndim(alpha) == 0:
                out[0] = np.nan
            return out

        monkeypatch.setattr(cli, "theta_alpha_eval", nan_sample)
        code, text = run(["theta", "--n", "5"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == ""
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert list(checks) == THETA_CHECKS
        assert [c for c in checks if not checks[c]["pass"]] == [
            "automorphy_character"]
        assert math.isnan(checks["automorphy_character"]["residual"])

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


USAGE = ("usage: ellpoisson [-h] {theta,sklyanin,moduli-compare,leaves,"
         "homology} ...\n")
THETA_USAGE = "".join(HELP["theta"].splitlines(keepends=True)[:2])
SKLYANIN_USAGE = "".join(HELP["sklyanin"].splitlines(keepends=True)[:2])
# exit code, stdout (elapsed_ms blanked) and stderr of main at 80 columns,
# taken while every argv still went through the top-level parser; the
# residuals of the moduli-compare run were taken again when its closed
# route became the chart rule of a coefficient table
PARITY = {
    "": (2, "", USAGE + "ellpoisson: error: the following arguments are "
         "required: command\n"),
    "nope": (2, "", USAGE + "ellpoisson: error: argument command: invalid "
             "choice: 'nope' (choose from 'theta', 'sklyanin', "
             "'moduli-compare', 'leaves', 'homology')\n"),
    "--help": (0, HELP[""], ""),
    "theta -h": (0, HELP["theta"], ""),
    "theta --n 3 extra": (2, "", USAGE + "ellpoisson: error: unrecognized "
                          "arguments: extra\n"),
    "theta --bogus 1": (2, "", USAGE + "ellpoisson: error: unrecognized "
                        "arguments: --bogus 1\n"),
    "theta --n x": (2, "", THETA_USAGE + "ellpoisson theta: error: argument "
                    "--n: invalid int value: 'x'\n"),
    "sklyanin --k": (2, "", SKLYANIN_USAGE + "ellpoisson sklyanin: error: "
                     "argument --k: expected one argument\n"),
    "moduli-compare --sam 2 --n 3": (0, (
        '{"checks": [{"name": "method_agreement", "pass": true, "residual": '
        '2.9394713984828796e-14, "tolerance": 1e-07}, {"name": '
        '"matches_projective_bracket", "pass": true, "residual": '
        '5.1514348342607263e-14, "tolerance": 1e-06}], "command": '
        '"moduli-compare", "elapsed_ms": null, "params": {"format": "json", '
        '"k": 1, "n": 3, "output_path": null, "r": 1, "samples": 2, "seed": '
        '0, "tau_im": 1.0, "tau_re": 0.0}, "tables": {"contour": {"points": '
        '32, "radius": 0.08333333333333333}}}\n'), ""),
}


class TestParseOnce:
    """``main`` parses a command's options with that command's parser
    alone, and prints what the top-level parser printed: leftover
    arguments are reported with the top-level usage."""

    @staticmethod
    def outcome(run_main, argv, capsys):
        try:
            code = run_main(argv.split())
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, re.sub(r'"elapsed_ms": [^,}]*', '"elapsed_ms": null',
                            out), err

    @pytest.mark.parametrize("argv", PARITY, ids=lambda a: a or "none")
    def test_outcome_pinned(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert self.outcome(main, argv, capsys) == PARITY[argv]

    @pytest.mark.parametrize("argv", ["theta --n 3 extra", "theta --bogus 1"])
    def test_command_parser_alone_fails_the_pins(self, argv, capsys,
                                                 monkeypatch):
        # power control: a main that lets the command's parser reject
        # leftover arguments prints that parser's usage
        monkeypatch.setenv("COLUMNS", "80")
        commands = build_parser()[1]

        def direct(argv):
            commands[argv[0]].parse_args(argv[1:])
            return main(argv)

        code, out, err = self.outcome(direct, argv, capsys)
        assert (code, out) == PARITY[argv][:2]
        assert err != PARITY[argv][2]
        assert err.startswith(THETA_USAGE)


class TestRefusals:
    """Out-of-range lattices and sizes keep their exit codes and one-line
    messages, with no RuntimeWarning, now that the residue system samples
    the residue circle."""

    @pytest.mark.parametrize("args, expected", [
        (["--n", "3", "--tau", "0", "1e-6"],
         {c: (2, "Im tau = 1e-06 is out of numerical range at n = 3: "
                 "rounding in the theta series may reach 4.2e+00 of a basis "
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
        # the basis accepts its rounding bound 8.7e-9, but there theta's
        # second_log_derivative_2pi_i_n reads 1.3e-8 against tolerance 1e-8
        (["--n", "7", "--tau", "0", "0.006222594939493735"],
         {c: (2, f"Im tau = 0.00622259 is out of numerical range for the "
                 f"{what} checks at n = 7: rounding in the theta series may "
                 f"reach 8.7e-09 of a basis value at 0, beyond {limit}")
          for c, what, limit in (("theta", "theta", "5e-11"),
                                 ("sklyanin", "bracket", "1e-11"),
                                 ("moduli-compare", "bracket", "1e-11"))}),
        # no host can allocate the basis of order 10^15; refused by the
        # bound on n before it is built
        (["--n", "1000000000000000"],
         {c: (2, "n must be at most MAX_THETA_N = 63, the largest order "
                 "the theta commands are checked at")
          for c in ("theta", "sklyanin", "moduli-compare")}),
        # the 301-digit exponent bound prints in short scientific form
        (["--n", "3", "--tau", "0", "1e300"],
         {c: (2, "theta_1 at z = 0j is out of double range: the value may "
                 "reach exp(2.09e+300), beyond the limit exp(650)")
          for c in ("theta", "sklyanin", "moduli-compare")}),
    ], ids=["im_1e-6", "series_terms_limit", "rounding_limit", "n31_tau6i",
            "theta_rounding_limit", "n_1e15", "im_1e300"])
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
            assert err.count("\n") == 1 and len(err) <= 200
            assert "Traceback" not in err and out == ""
        else:
            assert err == ""


class TestHomologyWork:
    """homology refuses a run whose samples times the entries of an
    instance's differentials d^-1 and d^0, 4 n m (2 n^2 + m^2) with
    m = 2n + r, exceed MAX_HOMOLOGY_ENTRIES."""

    def test_refused_at_once(self, capsys):
        started = time.perf_counter()
        code = main(["homology", "--n", "16", "--samples", "10000"])
        elapsed = time.perf_counter() - started
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("error: samples x the entries of an instance's "
                       "differentials d^-1 and d^0 must be at most "
                       "MAX_HOMOLOGY_ENTRIES = 2e+07: at n = 16, r = 1 an "
                       "instance has 3.38e+06\n")
        assert elapsed < 1.0
        # n = 26 is refused even with one sample
        with pytest.raises(UsageError, match="must be at most MAX_HOMOLOGY"):
            RunConfig(n=26, r=1, samples=1).validate("homology")

    @pytest.mark.parametrize("n, r, samples", [
        (3, 1, 3553), (7, 2, 126), (10, 1, 37), (16, 1, 5), (25, 1, 1)])
    def test_largest_accepted(self, n, r, samples):
        # the largest count of samples at (n, r) within the bound; n = 25
        # is the largest n accepted at all
        RunConfig(n=n, r=r, samples=samples).validate("homology")
        with pytest.raises(UsageError, match="must be at most MAX_HOMOLOGY"):
            RunConfig(n=n, r=r, samples=samples + 1).validate("homology")

    def test_every_shipped_configuration_accepted(self):
        # the benchmark's homology jobs, the defaults and --n 10
        for n in range(1, 8):
            for r in (1, 2):
                RunConfig(n=n, r=r, samples=2).validate("homology")
        RunConfig().validate("homology")
        RunConfig(n=10, samples=1).validate("homology")
        # at n = 2 the samples bound binds first
        RunConfig(n=2, r=1, samples=10_000).validate("homology")


class TestThetaWork:
    """The theta commands refuse n above MAX_THETA_N, and moduli-compare
    refuses samples x n^2 above MAX_MODULI_ENTRIES, before anything is
    built."""

    @pytest.mark.parametrize("args, message", [
        (["theta", "--n", str(10 ** 20)], "MAX_THETA_N = 63"),
        (["sklyanin", "--n", str(10 ** 20)], "MAX_THETA_N = 63"),
        (["moduli-compare", "--n", str(10 ** 20)], "MAX_THETA_N = 63"),
        (["moduli-compare", "--n", "3", "--samples", str(10 ** 20)],
         "MAX_MODULI_ENTRIES = 1e+05: at n = 3 that is 11111 samples"),
    ])
    def test_refused_at_once(self, args, message, capsys):
        started = time.perf_counter()
        code = main(args)
        elapsed = time.perf_counter() - started
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert elapsed < 1.0

    @pytest.mark.parametrize("command", ["theta", "sklyanin",
                                         "moduli-compare"])
    def test_largest_n_accepted(self, command):
        RunConfig(n=63, k=2, samples=1).validate(command)
        with pytest.raises(UsageError, match="must be at most MAX_THETA_N"):
            RunConfig(n=64, k=3, samples=1).validate(command)

    @pytest.mark.parametrize("n, samples", [
        (3, 11111), (9, 1234), (31, 104), (63, 25)])
    def test_largest_samples_accepted(self, n, samples):
        RunConfig(n=n, samples=samples).validate("moduli-compare")
        with pytest.raises(UsageError, match="must be at most MAX_MODULI"):
            RunConfig(n=n, samples=samples + 1).validate("moduli-compare")

    def test_every_shipped_configuration_accepted(self):
        # the README's largest examples and the tests' largest n
        RunConfig(n=9, samples=1000).validate("moduli-compare")
        RunConfig(n=5, samples=1000).validate("moduli-compare")
        RunConfig(n=31, k=1).validate("sklyanin")
        RunConfig(n=31, samples=1, tau_im=6.0).validate("moduli-compare")

    def test_memory_error_is_usage_error(self, monkeypatch, capsys):
        # no accepted size is known to run out of memory, so the handler
        # for a host that cannot allocate one is reached by a stand-in
        import ellpoisson.cli as cli

        def unable(cfg):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setitem(cli.COMMANDS, "theta",
                            (unable,) + cli.COMMANDS["theta"][1:])
        assert main(["theta"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: theta ran out of memory at "
                                     "these sizes: Unable to allocate 8.00 "
                                     "EiB\n")


# every integer option of every command
INTEGER_OPTIONS = {command: [flag for flag in flags
                             if flag in ("--n", "--k", "--samples", "--seed",
                                         "--r")]
                   for command, flags in FLAGS.items()}


class TestExtremeValues:
    """Each integer option at 0 and at +-10^20 refuses with exit 2 or runs
    a small job; no value raises out of main."""

    @pytest.mark.parametrize("argv", [
        [command, flag, str(value)]
        for command, flags in INTEGER_OPTIONS.items() for flag in flags
        for value in (0, 10 ** 20, -10 ** 20)], ids=" ".join)
    def test_never_raises(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        assert (out == "") == (code == 2)
        assert "Traceback" not in err

    def test_every_integer_option_is_swept(self):
        # the sweep's options are those that the parser reads as integers
        sub = next(a for a in build_parser()[0]._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert {command: [a.option_strings[0] for a in p._actions
                          if a.type is int]
                for command, p in sub.choices.items()} == INTEGER_OPTIONS


class TestReports:
    def test_json_schema(self, tmp_path):
        code, text = run(["sklyanin", "--n", "3", "--k", "1"], tmp_path)
        assert code == 0
        report = json.loads(text)
        assert set(report) == {"command", "params", "checks", "tables",
                               "elapsed_ms"}
        for check in report["checks"]:
            assert set(check) == {"name", "residual", "tolerance", "pass"}
        assert [c["name"] for c in report["checks"]] == SKLYANIN_K1_CHECKS

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
        # no product of two differentials of the endomorphism complex: the
        # generator's product, the d^2 = 0 check of E and the two products
        # of the probe on End(E) each contract over E, at most 4n + r wide,
        # and the probe multiplies each of the four differentials of H by
        # its few columns; chain_map_ok and the cone identification form
        # none, as H proved d^2 = 0 when it was built
        from ellpoisson.exact import Mat
        from ellpoisson.homology import PROBE_COLUMNS

        shapes = []
        matmul = Mat.__matmul__

        def counted(self, other):
            shapes.append((self.shape, other.shape))
            return matmul(self, other)

        monkeypatch.setattr(Mat, "__matmul__", counted)
        args = ["homology", "--n", "5", "--samples", "1", "--seed", "0"]
        assert run(args, tmp_path)[0] == 0
        size = 21
        assert len(shapes) == 8
        assert [b[1] for a, b in shapes if a[1] > size] == [PROBE_COLUMNS] * 4
        assert all(a[1] <= size or b[1] == PROBE_COLUMNS for a, b in shapes)
        # 123,889 multiply-adds, where seven products of differentials of
        # H, formed before the factor check, took 5,549,555
        assert sum(a[0] * a[1] * b[1] for a, b in shapes) < 130_000

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

        def counted_init(self, n, rows=None):
            built.append(n)
            init(self, n, rows)

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
        # grid, shifted by 1 and by tau, in another; one derivative call,
        # the second at 0, as theta_0'(k/n) is read off the basis
        import ellpoisson.cli as cli

        shapes, derivatives = [], []
        evaluate, derive = cli.theta_alpha_eval, cli.theta_alpha_deriv

        def counted(basis, alpha, z):
            shapes.append(np.shape(z))
            return evaluate(basis, alpha, z)

        def counted_deriv(basis, alpha, z, order=1):
            derivatives.append((alpha, np.shape(z), order))
            return derive(basis, alpha, z, order)

        monkeypatch.setattr(cli, "theta_alpha_eval", counted)
        monkeypatch.setattr(cli, "theta_alpha_deriv", counted_deriv)
        assert run(["theta", "--n", "5"], tmp_path)[0] == 0
        assert shapes == [(400,), (180,)]
        assert derivatives == [(0, (), 2)]

    def test_sklyanin_k2_has_no_f_row(self, tmp_path):
        code, text = run(["sklyanin", "--n", "5", "--k", "2"], tmp_path)
        assert code == 0
        report = json.loads(text)
        names = [c["name"] for c in report["checks"]]
        assert names == [name for name in SKLYANIN_K1_CHECKS
                         if name != "canonical_form_equals_f_table"]
        tolerances = {c["name"]: c["tolerance"] for c in report["checks"]}
        assert tolerances["jacobi_defect"] == 2.8e-9
        assert tolerances["heisenberg_invariance"] == 1e-10


class TestSampleStack:
    """moduli-compare evaluates its samples as one stack per route, cut
    into chunks of whole points, so its memory does not grow with
    --samples."""

    @staticmethod
    def traced_peak(args):
        tracemalloc.start()
        try:
            code = main(args)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_bounded(self, capsys):
        code, peak = self.traced_peak(["moduli-compare", "--n", "9",
                                       "--samples", "1000"])
        assert code == 0
        assert peak < 16 * 2 ** 20

    def test_peak_bound_has_power(self, capsys, monkeypatch):
        # one chunk for the whole stack: 300 points already pass the bound
        import ellpoisson.theta as theta
        monkeypatch.setattr(theta, "CHUNK_ENTRIES", 2 ** 40)
        code, peak = self.traced_peak(["moduli-compare", "--n", "9",
                                       "--samples", "300"])
        assert code == 0
        assert peak > 16 * 2 ** 20


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


def flipped_chart_rule(g, t):
    """The chart rule with the sign of its -t_j {x_i, x_0} term flipped,
    written out by ``np.indices``."""
    from ellpoisson.poisson import chart_point
    n = len(g)
    t = chart_point(n, t)
    i, j, k = np.indices((n,) * 3)
    x = (g * t[..., None, None, :] * t.take((i + j - k) % n, axis=-1)
         ).sum(axis=-1)
    return (x - t[..., :, None] * x[..., :1, :]
            + t[..., None, :] * x[..., :, :1])


class TestSharedChartRule:
    """The closed residue route and the projective bracket descend to the
    chart through one function, ``poisson.chart_rule``; the trace route
    shares no code with it, so it stays the independent oracle."""

    ARGS = ["moduli-compare", "--n", "3", "--samples", "4", "--tau", "0.3",
            "0.8"]

    @staticmethod
    def checks(capsys):
        report = json.loads(capsys.readouterr().out)
        return {c["name"]: c for c in report["checks"]}

    def test_flipped_rule_fails_method_agreement(self, capsys, monkeypatch):
        import ellpoisson.cech as cech
        import ellpoisson.poisson as poisson
        assert main(self.ARGS) == 0
        assert self.checks(capsys)["method_agreement"]["residual"] < 1e-13
        # power control: a flipped sign where both routes read the rule
        # moves the closed grid, and the trace grid tells
        monkeypatch.setattr(poisson, "chart_rule", flipped_chart_rule)
        monkeypatch.setattr(cech, "chart_rule", flipped_chart_rule)
        assert main(self.ARGS) == 1
        checks = self.checks(capsys)
        assert not checks["method_agreement"]["pass"]
        assert checks["method_agreement"]["residual"] > 1.0

    def test_traced_job_records_both_routes(self, capsys):
        # perfbench wraps ResidueSystem.closed_form_entry and
        # trace_form_entry; bracket_matrix must still call both
        path = Path(__file__).resolve().parent.parent / "perfbench" / \
            "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        tracer.install()
        try:
            code = main(["moduli-compare", "--n", "3", "--samples", "2"])
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert code == 0
        names = [span.name for span in tracer.spans]
        assert names.count("cech.closed_form") >= 1
        assert names.count("cech.trace_form") >= 1


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

    # sha256 of the exit code and the payload without timings, taken when
    # each point came to sum one theta series for every index, which moves
    # the last bits of every basis value and so of every residual and
    # table; the verdicts and the payloads' structure stayed.  Each case
    # keeps a fixed id, args<i> and the digest it pinned before that
    # kernel, so that a re-pin changes the digest checked and not the
    # case's name
    @pytest.mark.parametrize("args, digest", [
        pytest.param(["sklyanin", "--n", "5", "--k", "2", "--tau", "0", "1"],
                     "5bbb246dba19c9ec", id="args0-429f1f8b94321c18"),
        pytest.param(["sklyanin", "--n", "10", "--k", "1", "--tau", "0.3",
                      "0.8"], "3b7535aae778c91a",
                     id="args1-8098472fe002c8b2"),
        pytest.param(["sklyanin", "--n", "13", "--k", "2", "--tau", "0",
                      "0.5"], "ec033da53234a9d8",
                     id="args2-e5aa68c0f51f1d98"),
        pytest.param(["sklyanin", "--n", "31", "--k", "1"],
                     "0e73559213b8ece5", id="args3-6f75f61c849c1751"),
        pytest.param(["theta", "--n", "3"],
                     "4b041ee3d7c49bb8", id="args4-1ea2c24c9ffad0a4"),
        pytest.param(["theta", "--n", "11"],
                     "f428e40f4ce290d2", id="args5-79461039bd3129ff"),
        pytest.param(["moduli-compare", "--n", "5", "--samples", "4"],
                     "f3799c839b4f6faa", id="args6-f3c4aaed879e057e"),
        pytest.param(["moduli-compare", "--n", "3", "--samples", "7"],
                     "8b595e59f4474bfe", id="args7-3327354571a3d3b9"),
        pytest.param(["moduli-compare", "--n", "9", "--samples", "2",
                      "--tau", "0.3", "0.8"], "c9ec312e8ef372c2",
                     id="args8-76c08a3cf6e96d5e"),
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


def shared_basis(n=5):
    """The basis the theta commands read at tau = i, from the memo."""
    import ellpoisson.cli as cli
    return cli._shared(cli.ThetaBasis, CurveParams(1j, n))


def array_attributes(obj):
    """The ndarray attributes of ``obj``, by name."""
    names = getattr(obj, "__slots__", None) or vars(obj)
    return {name: getattr(obj, name) for name in names
            if isinstance(getattr(obj, name), np.ndarray)}


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
            cli._shared.cache_clear()
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
            return cli.QuadraticBracket(ref.n, ref.rows * (1 + error))

        monkeypatch.setattr(cli, "sklyanin_bracket", scaled)
        code, text = run(args, tmp_path)
        assert code == 1
        verdicts = {c["name"]: c["pass"]
                    for c in json.loads(text)["checks"]}
        assert verdicts[name] is False

    def test_perturbed_basis_fails_after_a_warm_call(self, tmp_path,
                                                     monkeypatch):
        # power control: a replaced ThetaBasis whose theta_1(0) is off by
        # 1e-3 must fail the comparison, and is not served the residue
        # system or the bracket a passing job built from the genuine basis
        import ellpoisson.cli as cli
        args = ["moduli-compare", "--n", "5", "--tau", "0", "1"]
        assert run(args, tmp_path)[0] == 0
        genuine = cli.ThetaBasis
        system = cli._shared(cli.ResidueSystem, shared_basis())
        bracket = cli._shared(cli.sklyanin_bracket, shared_basis(), 1)

        def perturbed(params):
            basis = genuine(params)
            vals = basis.theta_at_zero.copy()
            vals[1] *= 1 + 1e-3
            object.__setattr__(basis, "theta_at_zero", vals)
            return basis

        monkeypatch.setattr(cli, "ThetaBasis", perturbed)
        code, text = run(args, tmp_path)
        assert code == 1
        verdicts = {c["name"]: c["pass"]
                    for c in json.loads(text)["checks"]}
        assert verdicts["matches_projective_bracket"] is False
        basis = shared_basis()
        assert cli._shared(cli.ResidueSystem, basis) is not system
        assert cli._shared(cli.ResidueSystem, basis).basis is basis
        assert cli._shared(cli.sklyanin_bracket, basis, 1) is not bracket

    def test_one_table_build_per_order(self, capsys):
        # the bracket and Jacobi tables of an order, and the series tables
        # of a truncation and jet order, are built once: a second lattice
        # of the same order and truncation builds none
        from ellpoisson import poisson, theta
        caches = (poisson._layout, poisson._jacobi_layout,
                  theta._series_table)
        for cache in caches:
            cache.cache_clear()
        args = ["sklyanin", "--n", "7", "--k", "3"]
        assert main(args) == 0
        built = [cache.cache_info().misses for cache in caches]
        # one order; the series tables of jet order 1, read by the index
        # tables of the basis, and of jet order 0, read by the terms of
        # every series and by the index table of the relations
        assert built == [1, 1, 2]
        assert poisson._layout.cache_info().hits > 0
        assert main(args + ["--tau", "0.3", "1"]) == 0
        assert [cache.cache_info().misses for cache in caches] == built
        capsys.readouterr()

    @pytest.mark.parametrize("args, names", [
        (["theta", "--n", "5", "--tau", "0.3", "0.8"], ["ThetaBasis"]),
        (["sklyanin", "--n", "5", "--k", "2"],
         ["ThetaBasis", "sklyanin_bracket"]),
        (["moduli-compare", "--n", "4", "--samples", "2"],
         ["ThetaBasis", "ResidueSystem", "sklyanin_bracket"]),
    ], ids=["theta", "sklyanin", "moduli-compare"])
    def test_traced_builders_build_again(self, args, names, capsys,
                                         monkeypatch):
        # a tracer installs a fresh function whose __wrapped__ is the real
        # builder on every traced job; each such job builds its own
        # objects on a warm lattice and prints the warm job's payload
        import ellpoisson.cli as cli
        self.outcome(args, capsys)
        warm = self.outcome(args, capsys)
        real = {name: getattr(cli, name) for name in names}
        for _ in range(2):
            built = []
            for name in names:
                def traced(*call, name=name):
                    built.append(name)
                    return real[name](*call)
                traced.__wrapped__ = real[name]
                monkeypatch.setattr(cli, name, traced)
            assert self.outcome(args, capsys) == warm
            assert built == names
    @pytest.mark.parametrize("args", [
        ["theta", "--n", "3"],
        ["sklyanin", "--n", "5", "--k", "2"],
        ["moduli-compare", "--n", "3", "--samples", "1"],
    ], ids=["theta", "sklyanin", "moduli-compare"])
    def test_one_curve_params_per_job(self, args, capsys, monkeypatch):
        made = []
        check = CurveParams.__post_init__

        def counted(params):
            made.append(params)
            check(params)

        monkeypatch.setattr(CurveParams, "__post_init__", counted)
        for _ in range(2):  # a cold and a warm lattice
            del made[:]
            assert self.outcome(args, capsys)[0] == 0
            assert len(made) == 1

    @staticmethod
    def replay_misses(jobs, capsys):
        """The memo misses of one replay of ``jobs`` through :func:`main`,
        in one process, as perfbench replays a round."""
        import ellpoisson.cli as cli
        before = cli._shared.cache_info().misses
        assert {main(job.argv) for job in jobs} <= {0, 1}
        capsys.readouterr()
        return cli._shared.cache_info().misses - before

    @staticmethod
    def bracket_round(monkeypatch):
        """The jobs of perfbench's bracket round at seed 1."""
        return workload_round(monkeypatch, "bracket", 1)

    def test_a_bracket_round_fits_the_memo(self, capsys, monkeypatch):
        # the largest known working set, one bracket round (27 bases and 39
        # brackets), is held whole: a second replay builds nothing
        import ellpoisson.cli as cli
        jobs = self.bracket_round(monkeypatch)
        assert self.replay_misses(jobs, capsys) == 66
        assert self.replay_misses(jobs, capsys) == 0
        assert cli._shared.cache_info().currsize == 66

    def test_a_smaller_memo_rebuilds_a_bracket_round(self, capsys,
                                                     monkeypatch):
        # power control: at 64 entries the second replay rebuilds objects
        import ellpoisson.cli as cli
        monkeypatch.setattr(cli, "_shared", functools.lru_cache(maxsize=64)(
            cli._shared.__wrapped__))
        jobs = self.bracket_round(monkeypatch)
        assert self.replay_misses(jobs, capsys) == 66
        assert self.replay_misses(jobs, capsys) == 35

    def test_memo_is_keyed_by_the_basis(self):
        # a system and a bracket are built from the basis passed in, even
        # when the memo holds objects of an equal lattice
        import ellpoisson.cli as cli
        warm = shared_basis()
        cli._shared(cli.ResidueSystem, warm)
        cli._shared(cli.sklyanin_bracket, warm, 1)
        built = []
        closed_form = cli.sklyanin_bracket

        def recorded(basis, k):
            built.append(basis)
            return closed_form(basis, k)

        b = ThetaBasis(CurveParams(1j, 5))
        system = cli._shared(cli.ResidueSystem, b)
        bracket = cli._shared(recorded, b, 1)
        assert system.basis is b and built == [b]
        assert cli._shared(cli.ResidueSystem, b) is system
        assert cli._shared(recorded, b, 1) is bracket
        assert built == [b]
        assert cli._shared(cli.ResidueSystem, warm) is not system
        assert cli._shared(cli.ResidueSystem, warm).basis is warm

    def test_changed_basis_gets_new_objects(self):
        import ellpoisson.cli as cli
        b = ThetaBasis(CurveParams(1j, 5))
        system = cli._shared(cli.ResidueSystem, b)
        bracket = cli._shared(cli.sklyanin_bracket, b, 1)
        changed = copy.copy(b)
        vals = b.theta_at_zero.copy()
        vals[1] *= 1.001
        object.__setattr__(changed, "theta_at_zero", vals)
        assert cli._shared(cli.ResidueSystem, changed) is not system
        assert cli._shared(cli.ResidueSystem, changed).basis is changed
        rebuilt = cli._shared(cli.sklyanin_bracket, changed, 1)
        assert rebuilt is not bracket
        assert np.array_equal(rebuilt.rows,
                              sklyanin_bracket(changed, 1).rows)
        assert not np.array_equal(rebuilt.rows, bracket.rows)

    def test_shared_arrays_are_read_only(self):
        import ellpoisson.cli as cli
        basis = shared_basis()
        system = cli._shared(cli.ResidueSystem, basis)
        bracket = cli._shared(cli.sklyanin_bracket, basis, 1)
        assert shared_basis() is basis
        assert cli._shared(cli.ResidueSystem, basis) is system
        assert cli._shared(cli.sklyanin_bracket, basis, 1) is bracket
        for obj in (basis, system, bracket):
            arrays = array_attributes(obj).values()
            assert arrays
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 1.0

    def test_objects_built_outside_the_memo_are_read_only(self):
        from ellpoisson.cech import ResidueSystem
        from ellpoisson.exact import Mat
        from ellpoisson.fo import semiclassical_from_relations
        from ellpoisson.homology import hom_complex
        from ellpoisson.poisson import QuadraticBracket

        basis = ThetaBasis(CurveParams(1j, 5))
        assert basis is not shared_basis()
        system = ResidueSystem(basis)
        bracket = sklyanin_bracket(basis, 2)
        mat = Mat(np.arange(6).reshape(2, 3))
        objects = [basis, system, bracket,
                   semiclassical_from_relations(basis, 1)[0],
                   mat, Mat.zeros(2, 2), mat @ mat.T, mat.T,
                   Mat.from_rows([[2 ** 70]]),
                   hom_complex(random_kronecker_complex(1, 2, 0)).diff(0)]
        for obj in objects:
            arrays = array_attributes(obj)
            assert arrays, obj
            for array in arrays.values():
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 0
        # the per-system tables of the residue routes are frozen with it
        assert {"mr", "f_mr", "g"} <= set(array_attributes(system))
        # a bracket keeps a copy of its rows and leaves the caller's
        g = bracket.rows.copy()
        own = QuadraticBracket(5, g)
        assert own.rows is not g and g.flags.writeable
        assert np.array_equal(own.rows, g)
