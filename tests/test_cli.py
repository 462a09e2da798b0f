import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

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

    def test_malformed_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "spectrum-verify", "--a", "-1")
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


#: one too-small value per bounded count option; fm-solve never builds a
#: quadrature scheme but still rejects --nodes below the minimum
BELOW_MINIMUM = [
    ["dispersion-curve", "--nodes", "19"],
    ["spectrum-verify", "--nodes", "19"],
    ["limits-compare", "--nodes", "19"],
    ["fm-solve", "--nodes", "19"],
    ["dispersion-eval", "--z-re", "0.3", "--nodes", "19"],
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
    for argv in (["dispersion-eval", "--z-re", "0.3", "--nodes", "20"],
                 ["dispersion-curve", "--a", "1", "--points", "2"],
                 ["fm-solve", "--nodes", "20", "--x-points", "2", "--c-points", "2"]):
        assert run_cli(capsys, *argv)[0] == 0


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
