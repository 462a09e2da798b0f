import ast
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bgkspectral
from bgkspectral import cli, dispersion, make_params, make_scheme, moments
from bgkspectral.cli import main

SQPI = math.sqrt(math.pi)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestDispersionCurve:
    def test_a0_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, "dispersion-curve", "--a", "0",
                               "--x-min", "-4", "--x-max", "4",
                               "--points", "401")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "re_lambda_plus", "im_lambda_plus"]
        assert len(rows) == 401
        data = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
        re0, im0 = data[0.0]
        assert re0 == pytest.approx(1.0, abs=1e-8)
        assert im0 == pytest.approx(0.0, abs=1e-12)
        re1, im1 = data[1.0]
        assert im1 == pytest.approx(0.326, abs=1e-3)
        assert im1 == pytest.approx(0.5 * SQPI * math.exp(-1.0), abs=1e-10)

    def test_parity_columns(self, capsys):
        _, out, _ = run_cli(capsys, "dispersion-curve", "--a", "0.5",
                            "--x-min", "-1.5", "--x-max", "1.5",
                            "--points", "61")
        _, rows = parse_csv(out)
        x = np.array([float(r[0]) for r in rows])
        re = np.array([float(r[1]) for r in rows])
        im = np.array([float(r[2]) for r in rows])
        assert np.allclose(re, re[::-1], atol=1e-11)
        assert np.allclose(im, -im[::-1], atol=1e-11)
        assert np.all(np.diff(x) > 0)

    def test_range_outside_cut_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "dispersion-curve", "--a", "2", "--x-min", "-1",
                    "--x-max", "1")
        assert exc.value.code == 2

    def test_range_error_message(self, capsys):
        # raised as DomainError and turned into the parser's usage error
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "dispersion-curve", "--a", "1", "--x-min", "-2")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "bgkspectral: error: x range [-2.0, 0.999999] must lie inside the cut (-1.0, 1.0)\n")

    def test_negative_slope_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "dispersion-curve", "--a", "-1")
        assert exc.value.code == 2

    def test_byte_stable(self, capsys):
        args = ("dispersion-curve", "--a", "0.3", "--points", "21")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_lf_line_endings_and_digits(self, capsys):
        _, out, _ = run_cli(capsys, "dispersion-curve", "--a", "0",
                            "--points", "5")
        assert "\r" not in out
        # 12 significant digits survive the round trip
        _, rows = parse_csv(out)
        assert any(len(r[1].replace("-", "").replace(".", "").lstrip("0")) >= 11
                   for r in rows)

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "dispersion-curve", "--a", "0",
                               "--points", "11", "--out", str(target))
        assert code == 0 and out == ""
        header, rows = parse_csv(target.read_text())
        assert len(rows) == 11


class TestSpectrumVerify:
    @pytest.mark.parametrize("a", ["0", "1"])
    def test_report_passes(self, capsys, a):
        code, out, _ = run_cli(capsys, "spectrum-verify", "--a", a)
        rep = json.loads(out)
        assert code == 0
        assert rep["status"] == "pass"
        names = {c["check"] for c in rep["checks"]}
        assert {"conservation_number", "discrete_residual_h3",
                "normalization_consistency", "laurent_order",
                "fm_decay_rate", "fm_mode_residual_max"} <= names
        for c in rep["checks"]:
            assert set(c) >= {"check", "status", "value", "tolerance"}

    def test_a0_report_contains_closed_form_entry(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum-verify", "--a", "0")
        rep = json.loads(out)
        names = [c["check"] for c in rep["checks"]]
        assert "closed_form_agreement_a0" in names
        assert "zero_count_semicircle" in names

    def test_decay_rate_report_fields(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum-verify", "--a", "1")
        rep = json.loads(out)
        entry = next(c for c in rep["checks"] if c["check"] == "fm_decay_rate")
        assert entry["value"] == pytest.approx(math.sqrt(5 * math.pi) / 4)
        assert entry["literature_value"] == pytest.approx(
            math.sqrt(3 * math.pi) / 2)
        assert "discrepancy" in entry

    #: normalization_consistency where its eta sample, filtered at 1e-3
    #: instead of 1e-3 * min(alpha, 1), was empty; the growth from a ~ 120
    #: fails it at 1e3 (ROADMAP item 9)
    NORMALIZATION = {"1e3": ("fail", 3.95e-6), "1e5": ("pass", 5.61e-9)}

    @pytest.mark.parametrize("a", ["1e3", "1e5"])
    def test_crashing_check_becomes_error_entry(self, capsys, monkeypatch, a):
        # the check runs at these slopes; one that raises still becomes an
        # error entry, and the rest of the report is written
        code, out, _ = run_cli(capsys, "spectrum-verify", "--a", a)
        entry = next(c for c in json.loads(out)["checks"]
                     if c["check"] == "normalization_consistency")
        status, value = self.NORMALIZATION[a]
        assert entry["status"] == status
        assert entry["value"] == pytest.approx(value, rel=1e-3)
        assert code == 1  # zero_count still fails here

        def crash(*args):
            raise ValueError("max() arg is an empty sequence")

        monkeypatch.setattr(cli, "normalization_check", crash)
        code, out, _ = run_cli(capsys, "spectrum-verify", "--a", a)
        rep = json.loads(out)
        assert code == 1 and rep["status"] == "fail"
        entry = next(c for c in rep["checks"] if c["check"] == "normalization_consistency")
        assert entry["status"] == "error"
        assert entry["message"] == "max() arg is an empty sequence"
        assert {"conservation_number", "laurent_order",
                "fm_mode_residual_max"} <= {c["check"] for c in rep["checks"]}

    @pytest.mark.parametrize("a", ["0", "1"])
    @pytest.mark.parametrize("index", range(len(cli._CHECKS)),
                             ids=lambda i: cli._CHECKS[i].__name__[1:])
    def test_group_that_raises_keeps_its_entries(self, capsys, monkeypatch, a, index):
        # a group that raises after its entries keeps them and adds one error
        # entry named after it; the groups before and after it are unchanged
        params = make_params(float(a))
        scheme = make_scheme(params)
        entries = [list(group(params, scheme)) for group in cli._CHECKS]
        group = cli._CHECKS[index]
        message = f"synthetic failure after {group.__name__}"

        @functools.wraps(group)
        def raising(params, scheme):
            yield from group(params, scheme)
            raise RuntimeError(message)

        monkeypatch.setattr(cli, "_CHECKS", cli._CHECKS[:index] + (raising,)
                            + cli._CHECKS[index + 1:])
        code, out, _ = run_cli(capsys, "spectrum-verify", "--a", a)
        error = {"check": group.__name__[1:], "status": "error", "value": float("nan"),
                 "tolerance": 0.0, "message": message}
        want = [e for g in entries[:index + 1] for e in g] + [error] + \
            [e for g in entries[index + 1:] for e in g]
        assert code == 1
        assert (json.dumps(json.loads(out)["checks"], sort_keys=True)
                == json.dumps(want, sort_keys=True))

    @pytest.mark.parametrize("name, check, nan_of", [
        ("sokhotsky_jump", "sokhotsky_jump_vs_mu_times_claim",
         lambda sj: dataclasses.replace(sj, jump=complex("nan"))),
        ("normalization_check", "normalization_consistency",
         lambda dev: np.full_like(dev, np.nan)),
        ("fm_residual", "fm_mode_residual_max", lambda res: math.nan),
    ], ids=["sokhotsky_jump", "normalization_check", "fm_residual"])
    def test_nan_past_the_first_value_fails(self, capsys, monkeypatch, name, check, nan_of):
        # a NaN from the second cut point, eta or mode is the group's maximum,
        # and the entry fails instead of reporting the finite values' maximum
        calls = []
        fn = getattr(cli, name)

        def patched(*args):
            calls.append(args)
            out = fn(*args)
            return nan_of(out) if len(calls) == 2 else out

        monkeypatch.setattr(cli, name, patched)
        code, out, _ = run_cli(capsys, "spectrum-verify", "--a", "1")
        rep = json.loads(out)
        assert code == 1 and rep["status"] == "fail"
        assert [c["check"] for c in rep["checks"] if c["status"] not in ("pass", "info")] == [check]
        assert math.isnan(next(c["value"] for c in rep["checks"] if c["check"] == check))

    # the zero_count* entries (value, or message of an error entry) of the
    # report before the zero count refined its samples in place and
    # evaluated lambda once per symmetry orbit
    _KEYHOLES_ZERO = [("zero_count_keyhole_1", 0.0), ("zero_count_keyhole_2", 0.0),
                      ("zero_count_keyhole_3", 0.0)]
    ZERO_COUNTS = {
        "0": [("zero_count_semicircle", 0.0)],
        "1e-8": [("zero_count", "lambda smaller than 1e-8 on the contour")],
        "1e-3": [("zero_count", "lambda smaller than 1e-8 on the contour")],
        "0.05": _KEYHOLES_ZERO,
        "0.1": _KEYHOLES_ZERO,
        "0.5": _KEYHOLES_ZERO,
        "1": _KEYHOLES_ZERO,
        "2": _KEYHOLES_ZERO,
        "5": _KEYHOLES_ZERO,
        "10": [("zero_count_keyhole_1", 0.0), ("zero_count_keyhole_2", 0.0),
               ("zero_count", "lambda smaller than 1e-8 on the contour")],
        "100": [("zero_count", "lambda smaller than 1e-8 on the contour")],
        "170": [("zero_count", "lambda smaller than 1e-8 on the contour")],
        "1e3": [("zero_count", "lambda smaller than 1e-8 on the contour")],
        "1e4": [("zero_count", "lambda smaller than 1e-8 on the contour")],
        "1e5": [("zero_count", "lambda smaller than 1e-8 on the contour")],
    }

    @pytest.mark.parametrize("a", sorted(ZERO_COUNTS, key=float))
    def test_zero_count_entries(self, capsys, a):
        _, out, _ = run_cli(capsys, "spectrum-verify", "--a", a)
        got = [(c["check"], c["message"] if c["status"] == "error" else c["value"])
               for c in json.loads(out)["checks"] if c["check"].startswith("zero_count")]
        assert got == self.ZERO_COUNTS[a]

    def test_malformed_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "spectrum-verify", "--a", "-1")
        assert exc.value.code == 2

    def test_format_is_not_an_option(self, capsys):
        # the report is always JSON
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "spectrum-verify", "--a", "1", "--format", "json")
        assert exc.value.code == 2

    def test_numerical_failure_exits_one(self, capsys, monkeypatch):
        import bgkspectral.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic numerical failure")

        monkeypatch.setattr(cli_mod, "make_scheme", boom)
        code, _, err = run_cli(capsys, "spectrum-verify", "--a", "1")
        assert code == 1
        assert "synthetic numerical failure" in err


class TestLimitsCompare:
    def test_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, "limits-compare",
                               "--a-list", "0", "1e-6", "1000")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["a", "lambda_a0_deviation", "fm_kernel_deviation"]
        table = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
        assert table[0.0][0] < 1e-8
        assert table[1e-6][0] < 1e-5
        assert table[1000.0][1] < 1e-2


class TestFmSolve:
    def test_zero_solution(self, capsys):
        code, out, _ = run_cli(capsys, "fm-solve", "--x-points", "2",
                               "--c-points", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "C", "h"]
        assert rows[-1][0] == "residual_sup"
        assert float(rows[-1][2]) == 0.0
        for r in rows[:-1]:
            assert float(r[2]) == 0.0

    def test_kernel_mode(self, capsys):
        code, out, _ = run_cli(capsys, "fm-solve", "--A1", "1", "--A3", "-2",
                               "--x-points", "3", "--c-points", "7")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[-1][2]) < 1e-8

    def test_byte_stable(self, capsys):
        args = ("fm-solve", "--A0", "0.7", "--At1", "0.1", "--x-points", "3",
                "--c-points", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "fm-solve", "--A0", "1", "--format",
                               "json", "--x-points", "2", "--c-points", "5")
        rep = json.loads(out)
        assert rep["residual_sup"] < 1e-8
        assert rep["decay_rate"] == pytest.approx(math.sqrt(5 * math.pi) / 4)


class TestDispersionEval:
    def test_offcut_point(self, capsys):
        code, out, _ = run_cli(capsys, "dispersion-eval", "--a", "1",
                               "--z-re", "0", "--z-im", "2")
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[0][2] == "off-cut"
        assert float(rows[0][3]) == pytest.approx(0.0021985, abs=1e-6)

    def test_on_cut_sides(self, capsys):
        vals = {}
        for side in ("pv", "plus", "minus"):
            _, out, _ = run_cli(capsys, "dispersion-eval", "--a", "1",
                                "--z-re", "0.3", "--side", side)
            _, rows = parse_csv(out)
            vals[side] = complex(float(rows[0][3]), float(rows[0][4]))
        assert vals["pv"].imag == 0.0
        assert vals["plus"] == pytest.approx(np.conj(vals["minus"]), rel=1e-13)
        assert 0.5 * (vals["plus"] + vals["minus"]) == pytest.approx(
            vals["pv"], rel=1e-12)

    def test_json_payload(self, capsys):
        _, out, _ = run_cli(capsys, "dispersion-eval", "--a", "0.5",
                            "--z-re", "1", "--z-im", "1", "--format", "json")
        rep = json.loads(out)
        assert rep["region"] == "off-cut"
        assert len(rep["t"]) == 5

    @pytest.mark.parametrize("argv, region", [
        (["--z-re", "0", "--z-im", "2"], "off-cut"),
        (["--z-re", "0.3", "--z-im", "1e-3", "--side", "plus"], "off-cut"),
        (["--z-re", "0.3"], "on-cut-pv"),
        (["--z-re", "0.3", "--side", "plus"], "boundary-plus"),
        (["--z-re", "-0.3", "--side", "minus"], "boundary-minus"),
    ])
    def test_region_strings(self, capsys, argv, region):
        _, out, _ = run_cli(capsys, "dispersion-eval", "--a", "1", *argv)
        assert parse_csv(out)[1][0][2] == region
        _, out, _ = run_cli(capsys, "dispersion-eval", "--a", "1", *argv, "--format", "json")
        assert json.loads(out)["region"] == region

    def test_boundary_far_out_at_a0_is_finite(self, capsys):
        # rho underflows and C**n overflows there; the jump was 0 * inf = NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "dispersion-eval", "--a", "0",
                                     "--z-re", "1e100", "--side", "plus")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert rows[0][2] == "boundary-plus"
        assert all(math.isfinite(float(v)) for v in rows[0][3:])

    @pytest.mark.parametrize("a", ["0", "1", "100"])
    def test_point_where_z_squared_underflows(self, capsys, a):
        # lambda was NaN there (0 * inf from E1(-Z**2) at Z**2 = 0)
        code, out, _ = run_cli(capsys, "dispersion-eval", "--a", a,
                               "--z-re", "0", "--z-im", "1e-200")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][2:] == ["off-cut", "1", "0", "1"]


#: one too-small value per bounded count option
BELOW_MINIMUM = [
    ["dispersion-curve", "--points", "1"],
    ["fm-solve", "--x-points", "1"],
    ["fm-solve", "--c-points", "1"],
    ["fm-solve", "--c-points", "0"],
    ["fm-solve", "--c-points", "-1"],
]


@pytest.mark.parametrize("argv", BELOW_MINIMUM, ids=" ".join)
def test_count_below_minimum_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_count_at_minimum_is_accepted(capsys):
    for argv in (["dispersion-curve", "--a", "1", "--points", "2"],
                 ["fm-solve", "--x-points", "2", "--c-points", "2"]):
        assert run_cli(capsys, *argv)[0] == 0


#: the smallest valid invocation of each subcommand
SUBCOMMANDS = [
    ["dispersion-curve"],
    ["spectrum-verify"],
    ["limits-compare"],
    ["fm-solve"],
    ["dispersion-eval", "--z-re", "0.3"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_nodes_is_unknown_option(capsys, argv):
    # the quadrature rule is fixed; no subcommand takes a node count
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv, "--nodes", "200")
    assert exc.value.code == 2
    assert "unrecognized arguments: --nodes 200" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--A0", "--A1", "--A2", "--A3", "--At1", "--At3",
                                    "--x-min", "--x-max", "--c-min", "--c-max"])
def test_fm_solve_non_finite_float_is_usage_error(capsys, option):
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "fm-solve", f"{option}={value}")
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err


#: the README's five example commands and the sha256 of each one's output
#: file.  Any change to these bytes, a last-bit rounding change included,
#: must be a deliberate re-pin, here and in perfbench/workloads.py.
README_DIGESTS = {
    "dispersion-curve --a 0 --x-min -4 --x-max 4 --points 401":
        "42bd90494a564ad8b5944dd71ad75bc73067c3a90e1789badd6d66144d3347ec",
    "spectrum-verify --a 1":
        "d6dbdb38b52f65bd3cb95f5076a79c7a25f22d2a5144639a9caaf235e21da2c0",
    "limits-compare --a-list 0 1e-6 1e-3 0.1 1 10 1000":
        "fc5edc3a527800fd166fc714cc9a52855f5a285a2a393766dae1a116d8f6d8e8",
    "fm-solve --A0 1 --At1 0.5 --x-min 0 --x-max 2":
        "5b7115903323417a47aa5e7d1e8cef709bfa2e46f28389333b5a0dbbb606fc55",
    "dispersion-eval --a 1 --z-re 0.3 --side plus":
        "d7cc59dee0f9446fc33d5f229a145981171e34f2789e5a45ed3b487a420ba1d4",
}


@pytest.mark.parametrize("command", list(README_DIGESTS),
                         ids=lambda c: c.split()[0])
def test_readme_output_golden(command, tmp_path):
    path = tmp_path / "out"
    assert main(command.split() + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == README_DIGESTS[command]


#: sha256 of the README's three table commands with ``--format json``; the
#: table above pins their CSV bytes, this one the JSON writer's
README_JSON_DIGESTS = {
    "dispersion-curve --a 0 --x-min -4 --x-max 4 --points 401":
        "646e3056604e2bf8683d661b95efae338cc49f172cc4c4ecf536575fae226e51",
    "limits-compare --a-list 0 1e-6 1e-3 0.1 1 10 1000":
        "b899e5c6cd97ac5191de803b3a333268440723d3286c36af6eb2ab850f687172",
    "fm-solve --A0 1 --At1 0.5 --x-min 0 --x-max 2":
        "772682c7d83de85206de46320b69a22591ba3a91db4bc88564eecc03f37331bf",
}


@pytest.mark.parametrize("command", list(README_JSON_DIGESTS),
                         ids=lambda c: c.split()[0])
def test_readme_table_json_golden(command, tmp_path):
    path = tmp_path / "out.json"
    assert main(command.split() + ["--format", "json", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == README_JSON_DIGESTS[command]


def test_readme_outputs_reach_the_series_only_through_zero_counts(tmp_path, monkeypatch):
    # the far-field moment series shows in the README outputs only through
    # the integer zero counts, so a change to its last bits moves no README
    # digest and no entry of the benchmark's table
    callers = []
    series = moments._cauchy_halfline_series

    def recording(a, z):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names)
        return series(a, z)

    monkeypatch.setattr(moments, "_cauchy_halfline_series", recording)
    for command in README_DIGESTS:
        assert main(command.split() + ["--out", str(tmp_path / "out")]) == 0
    assert callers  # spectrum-verify --a 1 counts zeros over far points
    assert all("count_zeros" in names for names in callers)


def test_readme_digests_match_benchmark_table():
    # the benchmark pins the same digests; a re-pin must update both tables.
    # Parsed as text so the test does not import the benchmark.
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    table = next(node.value for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "README_COMMANDS" for t in node.targets))
    assert ast.literal_eval(table) == README_DIGESTS


#: sha256 of ``spectrum-verify --a A --out PATH`` at the benchmark's slopes,
#: exit codes included (1 where a check fails, see ROADMAP items 1, 3 and 9).
#: Speed-ups must leave these bytes alone; a fix that moves a report re-pins
#: its digest with a stated reason.
VERIFY_DIGESTS = {
    # re-pinned when the a = 0 kernel stopped forming the exponential-integral
    # half of Phi off the cut, which cancels between the two half-lines: only
    # the value of closed_form_agreement_a0 moves (3.5e-12 -> 2.4e-12);
    # every status and exit code stays
    "0": ("7d673cb8b07c0d64ea947a7416504aec81b719da56b97c4ad539d3471f593673", 0),
    "1e-8": ("1e8a8edb760cda63a61b605992f69bd7b313aef6570a476ef636f858d8a0def9", 1),
    "1e-3": ("5eb16299bdda531b8f21b666fab320d02fea16bf8b1e89a18965f053b5b37532", 1),
    "0.1": ("24099f39dcd6d132a5f23b25c75a6447d20de8cb5b3428972e25038afeaa1558", 0),
    "1": ("d6dbdb38b52f65bd3cb95f5076a79c7a25f22d2a5144639a9caaf235e21da2c0", 0),
    "10": ("df74832ad94732c9486cb49983a9956f8d318a1f3079119005a5584f17e6ec93", 1),
    "100": ("2a3e3352c0e1fa1013d38545ce0577627131563c5b041dc00b5959c1968c1977", 1),
    # re-pinned when the eta sample of normalization_consistency began to
    # scale with alpha: the check now runs at these slopes instead of
    # erroring on an empty sample
    "1e3": ("d049f1ee0c263843717fa2e67ce2779dc6dcab48c60ea6070849ee30217c5b52", 1),
    "1e5": ("323ff87343e6f1d85b1bdffb09df0010c38ab28d6effe18976f3c05234e584c3", 1),
}


#: sha256 of ``dispersion-eval ARGS --format json``, which prints t0..t4 at
#: full precision: points off the cut and principal values on it, near and
#: far (|Z+| >= 8, the moment series), both boundary values, x = 0 and the
#: a = 0 branches.  Scalar calls, so the BLAS thread count cannot move them.
KERNEL_DIGESTS = {
    "--a 1 --z-re 0.3 --z-im 0.1":
        "7e35d296c5333a54f80dbff4f3aa3d5424747dc59c1fbf0d9f7a941fe3aac2fe",
    # re-pinned when the moment series became a fixed Horner sum, as the
    # three other points marked below: |Z+| >= 8, so the last bits of t_n move
    "--a 1 --z-re 0.95 --z-im 0.001":
        "85729e0749f66bea1944a10fa67981a0f1c40ffd938b5003539b6a5ba595fdbf",
    "--a 1 --z-re 0.3":
        "8c3039d4782d68d0a0a3ed5de066c3f80c122b55420728b3a05d2cc197e07c58",
    # re-pinned: Horner series (see above)
    "--a 1 --z-re 0.95":
        "2facb5b375b0611b968ab385d38d3245bdd7603b326113bad7524e09ea99ab5e",
    "--a 1 --z-re 0.5 --side plus":
        "f93f9ee7b5a33edf4cfd98a90c534d97a45dccb1380f64a05cdad8dbfdb595a1",
    "--a 1 --z-re -0.5 --side minus":
        "c245e49f46431450f66167e2da23b6ee0906d87ee02b0c61b157d6c382f00507",
    "--a 1 --z-re 0":
        "b79aa3dc3833c257fe78fa92a2f3247d58e5cec52b83c11d742886f23d0f0dac",
    "--a 0 --z-re 0 --z-im 2":
        "8514148e2abd39a107318220aab2fac391cc2ea97e4a821d6fd44246546668d6",
    "--a 0 --z-re 1.5":
        "59dcdf97634fc99ed2b86a34258ef003e0a54bcc2358699bccf6e4e3622d19cd",
    # re-pinned: Horner series (see above)
    "--a 0 --z-re -9.5 --side plus":
        "8b4c96546f91fda272f417fb415ccec2400ca3be38ccf062603ae75e1b8710d7",
    # re-pinned: Horner series (see above)
    "--a 0 --z-re 10 --z-im -3":
        "a354e6c5db5c24aef1fcff362a48dff9352ca0afa6cf234b41e8a2a372ff2dd2",
    "--a 100 --z-re 0.005 --z-im 0.001":
        "e553480c71da858ffe259080a4197a5e0c5a6a34ee21955100648205fb0abfc2",
    "--a 100 --z-re 0.00999":
        "df27f1c3423b38221b7cf876c1af872a8696163fca954950a764afdb7b948050",
    "--a 100 --z-re -0.004 --side minus":
        "231e5795f912ff4a758ef8e5e8e7830161df23b85fee436735c82b7f1c6bda51",
}


@pytest.mark.parametrize("args", list(KERNEL_DIGESTS))
def test_dispersion_eval_kernel_golden(args, tmp_path):
    path = tmp_path / "point.json"
    argv = ["dispersion-eval", *args.split(), "--format", "json", "--out", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == KERNEL_DIGESTS[args]


@pytest.mark.parametrize("a", list(VERIFY_DIGESTS))
def test_spectrum_verify_report_golden(a, tmp_path):
    path = tmp_path / "report.json"
    digest, code = VERIFY_DIGESTS[a]
    assert main(["spectrum-verify", "--a", a, "--out", str(path)]) == code
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_pinned_outputs_fit_in_one_lambda_slice(tmp_path, monkeypatch):
    # every pinned output evaluates lambda in batches of at most one slice,
    # so its bytes cannot depend on the slice bound: record the batch sizes
    # reaching the evaluators, under every name a module binds them to
    sizes = []
    for name in ("lambda_fn", "lambda_pv", "lambda_boundary"):
        real = getattr(dispersion, name)

        def recording(params, scheme, points, *args, _real=real):
            sizes.append(np.size(points))
            return _real(params, scheme, points, *args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith(bgkspectral.__name__)
                    and getattr(module, name, None) is real):
                monkeypatch.setattr(module, name, recording)
    commands = [c.split() for c in README_DIGESTS]
    commands += [["spectrum-verify", "--a", a] for a in VERIFY_DIGESTS]
    commands += [["dispersion-eval", *args.split()] for args in KERNEL_DIGESTS]
    for argv in commands:
        main(argv + ["--out", str(tmp_path / "out")])
    assert len(sizes) > 50  # 72 calls when this was written
    assert max(sizes) <= dispersion._LAMBDA_SLICE
