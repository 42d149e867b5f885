"""End-to-end command-line tests driving the full pipeline."""

import ast
import dataclasses
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import lpvembed
from lpvembed import cli
from lpvembed.cli import MAX_STEPS, main
from lpvembed.embed import embed
from lpvembed.errors import HurwitzWarning
from lpvembed.factorize import SchedulingMap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def msd_file(tmp_path, capsys):
    code, out, err = run(capsys, "example", "msd2dof", "--out", str(tmp_path))
    assert code == 0, err
    return tmp_path / "msd2dof_nlfr.json"


def test_example_writes_expected_matrix(msd_file):
    raw = json.loads(msd_file.read_text())
    k1 = math.pi**2
    k2 = (1.2 * math.pi) ** 2
    assert raw["A"][2][0] == -k1 - k2
    assert raw["f"] == ["0.1*sin(10*z1)*z2 + 0.2*z2^2 + 10*z1^3"]


def test_example_unknown_name(tmp_path, capsys):
    code, out, err = run(capsys, "example", "nosuch", "--out", str(tmp_path))
    assert code == 1
    assert "error[UnknownExample]" in err


def test_validate_msd(msd_file, capsys):
    code, out, err = run(capsys, "validate", "--model", str(msd_file))
    assert code == 0
    assert "RESULT: embeddable" in out
    assert "offset: c = 0" in out and "reconstruction PASS" in out


def test_validate_rejects_nonzero_dzw(tmp_path, msd_file, capsys):
    raw = json.loads(msd_file.read_text())
    raw["Dzw"] = [[0.1], [0.0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run(capsys, "validate", "--model", str(bad))
    assert code == 1
    assert "error[NonzeroDzw]" in err


@pytest.mark.parametrize("command", ["validate", "embed"])
def test_overflow_at_the_origin_is_typed(tmp_path, msd_file, capsys, command):
    # exp(800) overflows before the product with z2 = 0 is formed
    raw = json.loads(msd_file.read_text())
    raw["f"] = ["exp(z1 + 800)*z2"]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    argv = ["--out", str(tmp_path / "out")] if command == "embed" else []
    code, out, err = run(capsys, command, "--model", str(path), *argv)
    assert code == 1
    assert err == "error[NonFiniteEntry]: row 1 overflows at z = 0: math range error\n"


def test_validate_offset_toy_column_space_violation(tmp_path, capsys):
    # z has two channels but u reaches only the first; the offset needs both
    raw = {
        "dims": {"n_x": 2, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 2},
        "A": [[-1.0, 0.0], [0.0, -1.0]],
        "Bw": [[0.0], [1.0]],
        "Bu": [[1.0], [0.0]],
        "Cz": [[1.0, 0.0], [0.0, 1.0]],
        "Cy": [[1.0, 0.0]],
        "Dzu": [[0.0], [0.0]],
        "Dyw": [[0.0]],
        "Dyu": [[0.0]],
        "f": ["z2 + 1"],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "validate", "--model", str(path))
    assert code == 1
    assert "error[ColumnSpaceViolation]" in err


def test_embed_default_ordering(tmp_path, msd_file, capsys):
    code, out, err = run(
        capsys, "embed", "--model", str(msd_file), "--out", str(tmp_path)
    )
    assert code == 0
    assert "10*z1^2" in out
    assert "0.1*sin(10*z1) + 0.2*z2" in out
    lpv_path = tmp_path / "msd2dof_nlfr_lpv.json"
    assert lpv_path.exists()
    assert (tmp_path / "msd2dof_nlfr_embed_report.txt").exists()
    raw = json.loads(lpv_path.read_text())
    assert raw["dims"]["n_p"] == 2


def test_embed_reversed_ordering(tmp_path, msd_file, capsys):
    out_lpv = tmp_path / "rev.json"
    code, out, err = run(
        capsys, "embed", "--model", str(msd_file), "--out", str(tmp_path),
        "--ordering", "2,1", "--lpv", str(out_lpv),
    )
    assert code == 0
    assert "0.2*z2" in out
    raw = json.loads(out_lpv.read_text())
    assert raw["schedule"]["ordering"] == [2, 1]
    kinds = {cell["type"] for row in raw["schedule"]["entries"] for cell in row}
    assert "quotient" in kinds


def test_embed_bad_ordering(tmp_path, msd_file, capsys):
    code, out, err = run(
        capsys, "embed", "--model", str(msd_file), "--out", str(tmp_path),
        "--ordering", "1,1",
    )
    assert code == 1
    assert "error[InvalidOrdering]" in err


def test_simulate_deterministic_csv(tmp_path, msd_file, capsys):
    args = (
        "simulate", "--model", str(msd_file), "--out", str(tmp_path),
        "--t-end", "0.5", "--seed", "0",
    )
    code, *_ = run(capsys, *args)
    assert code == 0
    csv_path = tmp_path / "msd2dof_nlfr_traj.csv"
    first = csv_path.read_bytes()
    code, *_ = run(capsys, *args)
    assert code == 0
    assert csv_path.read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header == "t,u1,u2,x1,x2,x3,x4,y1,y2,z1,z2,w1"


def test_simulate_two_sample_edge(tmp_path, msd_file, capsys):
    # a one-step horizon has no multisine grid line below Nyquist, so the
    # input must come from a file
    path = tmp_path / "u.csv"
    path.write_text("u1,u2\n1.0,0.0\n1.0,0.0\n")
    code, out, err = run(
        capsys, "simulate", "--model", str(msd_file), "--out", str(tmp_path),
        "--t-end", "0.001", "--input", f"file:{path}",
    )
    assert code == 0, err
    lines = (tmp_path / "msd2dof_nlfr_traj.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 samples


def test_simulate_lpv_file(tmp_path, msd_file, capsys):
    run(capsys, "embed", "--model", str(msd_file), "--out", str(tmp_path))
    lpv_path = tmp_path / "msd2dof_nlfr_lpv.json"
    code, out, err = run(
        capsys, "simulate", "--model", str(lpv_path), "--out", str(tmp_path),
        "--t-end", "0.5",
    )
    assert code == 0
    header = (tmp_path / "msd2dof_nlfr_lpv_traj.csv").read_text().splitlines()[0]
    assert header.endswith("p1,p2")


def test_simulate_input_file(tmp_path, msd_file, capsys):
    n = 20
    path = tmp_path / "input.csv"
    rows = ["u1,u2"] + [f"{0.1 * k},{-0.05 * k}" for k in range(n + 1)]
    path.write_text("\n".join(rows) + "\n")
    code, out, err = run(
        capsys, "simulate", "--model", str(msd_file), "--out", str(tmp_path),
        "--t-end", "0.02", "--input", f"file:{path}",
    )
    assert code == 0, err


@pytest.mark.parametrize(
    "text, where",
    [("u1\n0.0\n0.1\n", "input.csv:2:"), ("1,2\n3\n", "input.csv:2:")],
    ids=["one-column", "ragged"],
)
def test_simulate_input_file_wrong_columns(tmp_path, msd_file, capsys, text, where):
    path = tmp_path / "input.csv"
    path.write_text(text)
    code, out, err = run(
        capsys, "simulate", "--model", str(msd_file), "--out", str(tmp_path),
        "--t-end", "0.001", "--input", f"file:{path}",
    )
    assert code == 1
    assert "error[InputFormatError]" in err
    assert where in err


def test_compare_pipeline_passes(tmp_path, msd_file, capsys):
    run(capsys, "embed", "--model", str(msd_file), "--out", str(tmp_path))
    lpv_path = tmp_path / "msd2dof_nlfr_lpv.json"
    code, out, err = run(
        capsys, "compare", "--model", str(msd_file), "--lpv", str(lpv_path),
        "--out", str(tmp_path), "--t-end", "2",
    )
    assert code == 0, err
    assert "compare PASS" in out
    for name in (
        "compare_report.txt",
        "compare_report.csv",
        "spectrum_nlfr.csv",
        "spectrum_lpv.csv",
    ):
        assert (tmp_path / name).exists()
    report = (tmp_path / "compare_report.csv").read_text().splitlines()
    assert report[0] == "channel,max_abs_error,relative_rms"
    assert float(report[1].split(",")[1]) <= 1e-9


def test_compare_corrupted_lpv_fails(tmp_path, msd_file, capsys):
    run(capsys, "embed", "--model", str(msd_file), "--out", str(tmp_path))
    lpv_path = tmp_path / "msd2dof_nlfr_lpv.json"
    raw = json.loads(lpv_path.read_text())
    # corrupt a basis matrix consistently with its structural matrices so the
    # file loads but the dynamics no longer reconstruct the nonlinearity
    raw["Bw"] = [[0.0], [0.0], [-1.1], [0.0]]
    for cell in raw["basis"]:
        bw = np.array(raw["Bw"])[:, 0]
        cz = np.array(raw["Cz"])[cell["i"] - 1]
        cell["Ak"] = np.outer(bw, cz).tolist()
    bad = tmp_path / "bad_lpv.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run(
        capsys, "compare", "--model", str(msd_file), "--lpv", str(bad),
        "--out", str(tmp_path), "--t-end", "2",
    )
    assert code == 1
    assert "error[ToleranceExceeded]" in err
    assert "compare FAIL" in out


def test_out_dir_env_var(tmp_path, msd_file, capsys, monkeypatch):
    monkeypatch.setenv("LPVEMBED_OUT", str(tmp_path / "envout"))
    code, out, err = run(capsys, "embed", "--model", str(msd_file))
    assert code == 0
    assert (tmp_path / "envout" / "msd2dof_nlfr_lpv.json").exists()


def test_full_pipeline_determinism(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        run(capsys, "example", "msd2dof", "--out", str(out_dir))
        model = out_dir / "msd2dof_nlfr.json"
        run(capsys, "embed", "--model", str(model), "--out", str(out_dir))
        run(
            capsys, "compare", "--model", str(model),
            "--lpv", str(out_dir / "msd2dof_nlfr_lpv.json"),
            "--out", str(out_dir), "--t-end", "1",
        )
        outs.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out_dir.iterdir())
                if p.is_file()
            }
        )
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], name


def test_simulate_divergence_flushes_partial(tmp_path, capsys):
    raw = {
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[1.0]], "Bw": [[1.0]], "Bu": [[1.0]],
        "Cz": [[1.0]], "Cy": [[1.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["z1^3"],
    }
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(raw))
    u_path = tmp_path / "u.csv"
    u_path.write_text("u1\n" + "\n".join(["1.0"] * 3001) + "\n")
    code, out, err = run(
        capsys, "simulate", "--model", str(path), "--out", str(tmp_path),
        "--t-end", "3", "--input", f"file:{u_path}",
    )
    assert code == 1
    assert "error[Divergence]" in err
    partial = tmp_path / "unstable_traj.csv"
    assert partial.exists()
    assert len(partial.read_text().splitlines()) > 1


@pytest.mark.parametrize(
    "option, value",
    [("--dt", "0"), ("--dt", "inf"), ("--t-end", "inf")],
    ids=["dt-zero", "dt-inf", "t-end-inf"],
)
def test_invalid_dt_rejected(tmp_path, msd_file, capsys, option, value):
    code, out, err = run(
        capsys, "simulate", "--model", str(msd_file), "--out", str(tmp_path),
        option, value,
    )
    assert code == 1
    assert "error[InvalidConfig]" in err


def test_negative_seed_rejected(tmp_path, msd_file, capsys):
    # numpy's generator refuses a negative seed with an untyped ValueError
    code, out, err = run(
        capsys, "simulate", "--model", str(msd_file), "--out", str(tmp_path),
        "--t-end", "1", "--seed", "-1",
    )
    assert code == 1
    assert "error[InvalidConfig]" in err and "seed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "msd2dof_nlfr_traj.csv").exists()


def write_scalar_model(path, f, A=-1.0, Bw=-1.0, Dzu=0.0):
    path.write_text(json.dumps({
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[A]], "Bw": [[Bw]], "Bu": [[1.0]],
        "Cz": [[1.0]], "Cy": [[1.0]],
        "Dzu": [[Dzu]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": [f],
    }))
    return path


def test_embed_report_offset_diagnostics(tmp_path, capsys):
    path = write_scalar_model(tmp_path / "toy.json", "z1 + 1")
    code, out, err = run(capsys, "embed", "--model", str(path), "--out", str(tmp_path))
    assert code == 0
    report = (tmp_path / "toy_embed_report.txt").read_text()
    assert "residual" in report
    assert "stability" in report


def test_embed_report_reads_the_offset_solution(tmp_path, capsys, monkeypatch):
    # the report prints embed's offset solution; solving again would fail here
    def unreachable(*args):
        raise AssertionError("the offset was solved again after embed")

    monkeypatch.setattr("lpvembed.cli.dc_gains", unreachable)
    monkeypatch.setattr("lpvembed.cli.solve_offsets", unreachable)
    path = write_scalar_model(tmp_path / "toy.json", "z1 + 1")
    code, out, err = run(capsys, "embed", "--model", str(path), "--out", str(tmp_path))
    assert code == 0, err
    assert "(residual 0.000e+00)" in out


def test_embed_linear_model_yields_lti(tmp_path, capsys):
    raw = {
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[-1.0]], "Bw": [[1.0]], "Bu": [[1.0]],
        "Cz": [[1.0]], "Cy": [[1.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["0"],
    }
    path = tmp_path / "lin.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "embed", "--model", str(path), "--out", str(tmp_path))
    assert code == 0
    lpv_raw = json.loads((tmp_path / "lin_lpv.json").read_text())
    assert lpv_raw["dims"]["n_p"] == 0
    assert lpv_raw["basis"] == []
    assert lpv_raw["A"] == raw["A"]


def test_compare_reversed_ordering_also_passes(tmp_path, msd_file, capsys):
    run(capsys, "embed", "--model", str(msd_file), "--out", str(tmp_path),
        "--ordering", "2,1", "--lpv", str(tmp_path / "rev.json"))
    code, out, err = run(
        capsys, "compare", "--model", str(msd_file),
        "--lpv", str(tmp_path / "rev.json"), "--out", str(tmp_path),
        "--t-end", "2",
    )
    assert code == 0, err
    assert "compare PASS" in out


def test_compare_offset_model_passes(tmp_path, capsys):
    # f(0) = 1: the LPV core starts at the shifted state that matches the
    # nonlinear model's zero start; the direct path u -> z makes that shift
    # nonzero (it is 0.5 here)
    path = write_scalar_model(tmp_path / "toy.json", "z1 + 1", Dzu=1.0)
    run(capsys, "embed", "--model", str(path), "--out", str(tmp_path))
    code, out, err = run(
        capsys, "compare", "--model", str(path),
        "--lpv", str(tmp_path / "toy_lpv.json"), "--out", str(tmp_path),
        "--t-end", "2",
    )
    assert code == 0, err
    assert "compare PASS" in out
    report = (tmp_path / "compare_report.csv").read_text().splitlines()
    assert float(report[1].split(",")[1]) <= 1e-9


def test_simulate_evaluation_overflow_is_typed(tmp_path, capsys):
    path = write_scalar_model(tmp_path / "blowup.json", "exp(z1)", A=1.0, Bw=1.0)
    code, out, err = run(
        capsys, "simulate", "--model", str(path), "--out", str(tmp_path),
        "--t-end", "5",
    )
    assert code == 1
    assert "error[Divergence]" in err
    assert (tmp_path / "blowup_traj.csv").exists()


@pytest.mark.parametrize(
    "t_end", [f"{(MAX_STEPS + 1) * 1e-3!r}", "1e300"], ids=["one-above", "1e300"]
)
def test_run_size_bound_rejected(tmp_path, msd_file, capsys, t_end):
    code, out, err = run(
        capsys, "simulate", "--model", str(msd_file), "--out", str(tmp_path),
        "--t-end", t_end,
    )
    assert code == 1
    assert "error[InvalidConfig]" in err and "exceeds" in err
    assert not (tmp_path / "msd2dof_nlfr_traj.csv").exists()


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_compare_tolerance_must_be_finite_nonnegative(tmp_path, msd_file, capsys, tol):
    run(capsys, "embed", "--model", str(msd_file), "--out", str(tmp_path))
    code, out, err = run(
        capsys, "compare", "--model", str(msd_file),
        "--lpv", str(tmp_path / "msd2dof_nlfr_lpv.json"), "--out", str(tmp_path),
        "--t-end", "0.5", "--tol", tol,
    )
    assert code == 1
    assert "error[InvalidConfig]" in err and "tolerance" in err
    assert "compare PASS" not in out


def _nlfr_dims_not_object(msd_file, capsys, tmp_path):
    return "validate", {"dims": 5}


def _nlfr_row_not_text(msd_file, capsys, tmp_path):
    raw = json.loads(msd_file.read_text())
    raw["f"] = [5]
    return "validate", raw


def _lpv_schedule_cell_text(msd_file, capsys, tmp_path):
    run(capsys, "embed", "--model", str(msd_file), "--out", str(tmp_path))
    raw = json.loads((tmp_path / "msd2dof_nlfr_lpv.json").read_text())
    raw["schedule"]["entries"][0][0] = "x"
    return "simulate", raw


@pytest.mark.parametrize(
    "make, code_name",
    [
        (_nlfr_dims_not_object, "ModelFormatError"),
        (_nlfr_row_not_text, "ParseError"),
        (_lpv_schedule_cell_text, "ModelFormatError"),
    ],
    ids=["dims-5", "f-row-5", "schedule-cell-x"],
)
def test_malformed_model_file_is_typed(tmp_path, msd_file, capsys, make, code_name):
    command, raw = make(msd_file, capsys, tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    extra = ("--out", str(tmp_path), "--t-end", "0.5") if command == "simulate" else ()
    code, out, err = run(capsys, command, "--model", str(bad), *extra)
    assert code == 1
    assert f"error[{code_name}]" in err
    assert "Traceback" not in err


def _msd_edited(msd_file, key, value):
    raw = json.loads(msd_file.read_text())
    raw[key] = value
    return json.dumps(raw).encode()


def _f_row_nested(msd_file):
    return "validate", _msd_edited(msd_file, "f", ["(" * 300 + "z1" + ")" * 300])


def _dims_nested(msd_file):
    return "validate", b'{"dims": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"


def _model_not_utf8(msd_file):
    return "validate", b"\xff" + msd_file.read_bytes()


def _input_not_utf8(msd_file):
    return "simulate", msd_file.read_bytes()


def _integer_beyond_float_range(msd_file):
    A = json.loads(msd_file.read_text())["A"]
    A[0][0] = 10**400
    return "validate", _msd_edited(msd_file, "A", A)


def _integer_beyond_str_limit(msd_file):
    # Python refuses to read an integer of more than 4 300 digits
    text = msd_file.read_text()
    assert '"n_x": 4,' in text
    return "validate", text.replace('"n_x": 4,', '"n_x": ' + "9" * 5000 + ",").encode()


def _variable_beyond_str_limit(msd_file):
    # a variable's index is read with int() too
    return "validate", _msd_edited(msd_file, "f", ["z" + "9" * 5000])


@pytest.mark.parametrize(
    "make, code_name",
    [
        (_f_row_nested, "ParseError"),
        (_dims_nested, "ModelFormatError"),
        (_model_not_utf8, "ModelFormatError"),
        (_input_not_utf8, "InputFormatError"),
        (_integer_beyond_float_range, "ModelFormatError"),
        (_integer_beyond_str_limit, "ModelFormatError"),
        (_variable_beyond_str_limit, "ParseError"),
    ],
    ids=["f-row-nested-300", "dims-nested-100000", "model-0xff", "input-0xff",
         "A-401-digits", "n_x-5000-digits", "f-variable-5000-digits"],
)
def test_out_of_range_file_is_typed(tmp_path, msd_file, capsys, make, code_name):
    command, model_bytes = make(msd_file)
    bad = tmp_path / "bad.json"
    bad.write_bytes(model_bytes)
    extra = ()
    if command == "simulate":
        inputs = tmp_path / "input.csv"
        inputs.write_bytes(b"u1,u2\n0,0\n\xff,0\n")
        extra = ("--out", str(tmp_path), "--t-end", "0.02",
                 "--input", f"file:{inputs}")
    code, out, err = run(capsys, command, "--model", str(bad), *extra)
    assert code == 1
    assert f"error[{code_name}]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_foreign_tau_file_is_typed(tmp_path, msd_file, capsys, command):
    # both commands load the LPV file through load_lpv
    code, out, err = run(
        capsys, "embed", "--model", str(msd_file), "--ordering", "2,1",
        "--out", str(tmp_path),
    )
    assert code == 0, err
    lpv_file = tmp_path / "msd2dof_nlfr_lpv.json"
    raw = json.loads(lpv_file.read_text())
    raw["schedule"]["entries"][0][0]["tau"] = 7
    lpv_file.write_text(json.dumps(raw))
    models = ("--model", str(msd_file), "--lpv") if command == "compare" else ("--model",)
    code, out, err = run(
        capsys, command, *models, str(lpv_file), "--out", str(tmp_path), "--t-end", "0.5"
    )
    assert code == 1
    assert "error[ModelFormatError]" in err and "tau 7" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "appended",
    [" + 0.5*z2", " + exp(1000*z2)", " + z2*exp(900*z2)"],
    ids=["0.5z2", "exp-1000z2", "z2-exp-900z2"],
)
def test_non_removable_quotient_is_refused(tmp_path, msd_file, capsys, appended):
    # a quotient numerator that does not vanish on z1 = 0 has a pole there;
    # the appended terms hold no z1, so the stored derivative stays right,
    # and the last two overflow on part of the plane z1 = 0, so only a check
    # that evaluates nothing refuses each of them
    code, out, err = run(
        capsys, "embed", "--model", str(msd_file), "--ordering", "2,1",
        "--out", str(tmp_path),
    )
    assert code == 0, err
    lpv_file = tmp_path / "msd2dof_nlfr_lpv.json"
    raw = json.loads(lpv_file.read_text())
    cell = raw["schedule"]["entries"][0][0]
    assert cell["type"] == "quotient" and cell["divisor"] == 1
    cell["numerator"] += appended
    lpv_file.write_text(json.dumps(raw))
    code, out, err = run(
        capsys, "simulate", "--model", str(lpv_file), "--out", str(tmp_path),
        "--t-end", "0.5",
    )
    assert code == 1
    assert "error[ModelFormatError]" in err and "does not vanish" in err
    assert "Traceback" not in err


# sha256 of the text artifacts on msd2dof; a change here is a change of the
# program's output
GOLDEN_SHA256 = {
    "msd2dof_nlfr.json":
        "0577ff21e952947fbc476cbb3424d463760a3735949570c3220987210e264a16",
    "validate.txt":
        "decf997e7c7ea33447a2cfaaa02fdc664aa87695ac9d8ca5b52f3ca0d6f86f5b",
    "1,2/msd2dof_nlfr_lpv.json":
        "dde163c6f1675675a93221f7c8fc202b69341336a71b99907d34b76a7b4f21dc",
    "1,2/msd2dof_nlfr_embed_report.txt":
        "663db523e8d3e363eb1ee9830ac3137152744b9de60badf3ff367d394eaf4413",
    "2,1/msd2dof_nlfr_lpv.json":
        "770f896b3ab4b39584a7a8991b2eacd6bc8fdd80db6a9591912f2b7ecc893a43",
    "2,1/msd2dof_nlfr_embed_report.txt":
        "4f191b6447a3335ab5180afced04a5917149b2af9dc829a05b2b3042d43630ec",
}


def test_golden_artifacts(tmp_path, capsys, monkeypatch):
    # relative paths, so the validate output does not name the directory
    monkeypatch.chdir(tmp_path)
    # a rerun into the same directories replaces every output with the same bytes
    for _ in range(2):
        assert run(capsys, "example", "msd2dof")[0] == 0
        code, out, err = run(capsys, "validate", "--model", "msd2dof_nlfr.json")
        assert code == 0, err
        (tmp_path / "validate.txt").write_text(out)
        for ordering in ("1,2", "2,1"):
            code, out, err = run(
                capsys, "embed", "--model", "msd2dof_nlfr.json",
                "--ordering", ordering, "--out", ordering,
            )
            assert code == 0, err
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_SHA256
        }
        assert digests == GOLDEN_SHA256


# sha256 of the simulation artifacts on msd2dof.  The compare and spectrum
# digests were recorded before the generated stage kernel replaced the
# per-stage rule calls; the trajectory digests pin the w and p the kernel
# integrated.
GOLDEN_SIM_SHA256 = {
    "msd2dof_nlfr_traj.csv":
        "e7c91f1cb296d8af69545436e0de574c2a408a6850ea19eea98ef73c87ad4d1b",
    "1,2/msd2dof_nlfr_lpv_traj.csv":
        "8f8799ae5a172dc6896e0bbed9c0a695fc691844efd1d973685cde095fed5d5a",
    "1,2/compare_report.csv":
        "25f1053bc386d4d1b90732001dd68d42193eaa33d04b8529f81b61de312fa7af",
    "1,2/spectrum_nlfr.csv":
        "3493cbd99f238e989b055d33df5d1290e52961a17b26cff9267a4816c9eb10ec",
    "1,2/spectrum_lpv.csv":
        "a28cb8b36923577a48d0facdfa6d734083fa0402655c83e4b14082278b834417",
    "2,1/msd2dof_nlfr_lpv_traj.csv":
        "12dd6633879fc042f1b0efdb1c8ab1ca51f4350d9ddcac3c9850ed3bae30f4d1",
    "2,1/compare_report.csv":
        "1bc5964d51c036f46309b0db8293e03bab7b0776576b0417bad8fb8b0993ba62",
    "2,1/spectrum_nlfr.csv":
        "3493cbd99f238e989b055d33df5d1290e52961a17b26cff9267a4816c9eb10ec",
    "2,1/spectrum_lpv.csv":
        "3493cbd99f238e989b055d33df5d1290e52961a17b26cff9267a4816c9eb10ec",
}


def test_golden_simulation_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert run(capsys, "example", "msd2dof")[0] == 0
        code, out, err = run(
            capsys, "simulate", "--model", "msd2dof_nlfr.json", "--t-end", "2"
        )
        assert code == 0, err
        for ordering in ("1,2", "2,1"):
            lpv = f"{ordering}/msd2dof_nlfr_lpv.json"
            for argv in (
                ("embed", "--model", "msd2dof_nlfr.json", "--ordering", ordering),
                ("simulate", "--model", lpv, "--t-end", "2"),
                ("compare", "--model", "msd2dof_nlfr.json", "--lpv", lpv),
            ):
                code, out, err = run(capsys, *argv, "--out", ordering)
                assert code == 0, err
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_SIM_SHA256
        }
        assert digests == GOLDEN_SIM_SHA256


# Two offset models (f(0) != 0), which msd2dof (c = 0) does not reach: a
# stable one, and one whose A is not Hurwitz.  Name -> (file content, the
# orderings embedded).
OFFSET_MODELS = {
    "stable": ({
        "dims": {"n_x": 2, "n_u": 2, "n_y": 2, "n_w": 2, "n_z": 2},
        "A": [[-2.0, 0.5], [0.0, -1.0]], "Bw": [[1.0, 0.0], [0.5, 1.0]],
        "Bu": [[1.0, 0.0], [0.0, 1.0]], "Cz": [[1.0, 0.0], [0.0, 1.0]],
        "Cy": [[1.0, 0.0], [0.0, 1.0]], "Dzu": [[0.1, 0.0], [0.0, 0.2]],
        "Dyw": [[0.1, 0.0], [0.0, 0.0]], "Dyu": [[0.0, 0.0], [0.0, 0.0]],
        "f": ["0.3*z1*z2 + sin(z1) + 0.25", "z2^3 - 0.4"],
    }, ("1,2", "2,1")),
    "unstable": ({
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[1.0]], "Bw": [[-1.0]], "Bu": [[1.0]], "Cz": [[1.0]],
        "Cy": [[1.0]], "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["0.1*z1 + 0.5 + z1^3"],
    }, ("1",)),
}

# sha256 of validate's stdout, the embed report and the LPV file of each
# offset model: its offset: and stability: lines and its d and y0
GOLDEN_OFFSET_SHA256 = {
    "stable_validate.txt":
        "029f4215fad1e84ab6abc0bb51c90a0fae25ed6b049368aedfe2797a91a4892c",
    "1,2/stable_lpv.json":
        "360436e9be9e9edfe68b7e70f6592ec41a453d5e15dd149955ddee54469835d9",
    "1,2/stable_embed_report.txt":
        "0b48a0d30f4a4681aa3a0c8bb24a944164efc7f25b35124f981236e76fa2badb",
    "2,1/stable_lpv.json":
        "206c88ea86d3d2f1f133c05b7347c87c2198d2a2cff1505d51aacc25aba514dc",
    "2,1/stable_embed_report.txt":
        "26df9bb3eee6a3f6e472d33fc2f2b037a6d2d0c532edf82df2a9129a0d81d6ed",
    "unstable_validate.txt":
        "3addcbfc8320ba65d923c122a6fafc0ff21bcf69f78f689f98e979c1fd0048f4",
    "1/unstable_lpv.json":
        "5adedc3295a94c1fce5043c5f95611852e58abb8292ce2e3dc09ff9ba52c86a6",
    "1/unstable_embed_report.txt":
        "c024ccfd458c354f895deded353dd19ea1cf4671b296a9e84112e92734017a3a",
}


def test_golden_offset_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        for name, (raw, orderings) in OFFSET_MODELS.items():
            model = f"{name}.json"
            Path(model).write_text(json.dumps(raw))
            code, out, err = run(capsys, "validate", "--model", model)
            assert code == 0, err
            Path(f"{name}_validate.txt").write_text(out)
            for ordering in orderings:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code, out, err = run(
                        capsys, "embed", "--model", model,
                        "--ordering", ordering, "--out", ordering,
                    )
                assert code == 0, err
                # embed gives the stability advice only for a non-Hurwitz A
                expected = [HurwitzWarning] if name == "unstable" else []
                assert [w.category for w in caught] == expected
        digests = {name: sha256(tmp_path / name) for name in GOLDEN_OFFSET_SHA256}
        assert digests == GOLDEN_OFFSET_SHA256


# --- validate: embed's pipeline, without the files ----------------------------


def _model_file(tmp_path, msd_file, name):
    """msd2dof's file, or an OFFSET_MODELS one written to tmp_path."""
    if name == "msd2dof":
        return msd_file
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(OFFSET_MODELS[name][0]))
    return path


@pytest.mark.parametrize("name", ["msd2dof", "stable", "unstable"])
def test_validate_prints_the_default_embed_report(tmp_path, msd_file, capsys,
                                                  monkeypatch, name):
    # validate's lines between model: and its reconstruction line are the
    # report embed writes at the default ordering, and validate writes no file
    model = _model_file(tmp_path, msd_file, name)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        code, out, err = run(capsys, "validate", "--model", str(model))
        assert code == 0, err
        assert sorted(tmp_path.rglob("*")) == before
        assert run(capsys, "embed", "--model", str(model), "--out", "out")[0] == 0
    lines = out.splitlines(keepends=True)
    assert lines[0] == f"model: {model}\n"
    assert lines[-2].startswith("reconstruction PASS: ")
    assert lines[-1] == "RESULT: embeddable\n"
    report = (tmp_path / "out" / f"{model.stem}_embed_report.txt").read_text()
    assert "".join(lines[1:-2]) == report


@pytest.mark.parametrize(
    "name, edit, code_name, message",
    [
        ("unstable", {"f": ["exp(z1 + 800)*z1"]}, "NonFiniteEntry",
         "row 1 overflows at z = 0"),
        ("unstable", {"A": [[0.0]]}, "SingularA", "A is singular"),
        # no path from u to z, so the offset cannot be cancelled
        ("stable", {"Bu": [[0.0, 0.0]] * 2, "Dzu": [[0.0, 0.0]] * 2},
         "ColumnSpaceViolation", "outside the column space"),
        # embed succeeds; exp(900*z1) overflows at the third probe
        ("stable", {"f": ["exp(900*z1)*z2", "z2^3"]}, "NonFiniteEntry",
         "overflow at sample #2"),
    ],
    ids=["overflow-at-origin", "singular-A-offset", "column-space", "overflow-at-probe"],
)
def test_validate_refusal_prints_nothing(tmp_path, capsys, name, edit, code_name, message):
    # validate prints nothing before embed and the check have returned
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**OFFSET_MODELS[name][0], **edit}))
    code, out, err = run(capsys, "validate", "--model", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error[{code_name}]: ") and message in err
    assert err.count("\n") == 1


def test_invalid_ordering_is_reported_before_singular_a(tmp_path, capsys):
    # embed factorizes before it solves the offset, so of a model's two
    # faults the ordering is reported; alone, each keeps its code
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**OFFSET_MODELS["unstable"][0], "A": [[0.0]]}))
    for argv, code_name in (["--ordering", "2"], "InvalidOrdering"), ([], "SingularA"):
        code, out, err = run(capsys, "embed", "--model", str(path),
                             "--out", str(tmp_path / "out"), *argv)
        assert code == 1
        assert err.startswith(f"error[{code_name}]: ") and err.count("\n") == 1


def test_validate_unstable_offset_warns_on_stderr(tmp_path):
    # the console script's own stderr, where pytest would record the warning
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(OFFSET_MODELS["unstable"][0]))
    src = str(Path(lpvembed.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "lpvembed.cli", "validate", "--model", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "(NOT Hurwitz; corrections propagated anyway)\n" in proc.stdout
    assert "HurwitzWarning: A is not Hurwitz" in proc.stderr
    assert proc.stdout.endswith("RESULT: embeddable\n")


def test_validate_reconstruction_failure_is_refused(msd_file, capsys, monkeypatch):
    # an embedding whose entry (1, 1) was zeroed, as in test_factorize's
    # negative control, fails the sampled check
    def broken_embed(model):
        lpv = embed(model)
        m = lpv.schedule
        rows = ((None, m.entry(1, 2)),)
        return dataclasses.replace(lpv, schedule=SchedulingMap(rows, m.ordering, m.c))

    monkeypatch.setattr(cli, "embed", broken_embed)
    code, out, err = run(capsys, "validate", "--model", str(msd_file))
    assert code == 1
    assert out.splitlines()[-1].startswith("reconstruction FAIL: ")
    assert "RESULT" not in out
    assert err == "error[ToleranceExceeded]: the sampled reconstruction check failed\n"


# --- compare's NLFR run in a forked child ---------------------------------------


@pytest.fixture()
def parent_nlfr_runs(monkeypatch):
    """Lets compare fork whatever the CPU count, and lists the NLFR runs made
    in this process: a run the child makes is not listed.  No child may be
    left afterwards."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        pytest.skip("compare forks on Linux only")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    runs, simulate = [], cli.simulate_nlfr

    def listed(*args, **kwargs):
        runs.append(os.getpid())
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_nlfr", listed)
    yield runs
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def compare_both_ways(capsys, monkeypatch, out, *argv):
    """compare with the child and in process, each into a directory of its
    own: (exit code, stdout with that directory as OUT, stderr, artifacts)."""
    results = []
    for way, floor in (("child", cli._FORK_MIN_STEPS), ("in-process", math.inf)):
        monkeypatch.setattr(cli, "_FORK_MIN_STEPS", floor)
        where = out / way
        where.mkdir()
        code, stdout, stderr = run(capsys, "compare", *argv, "--out", str(where))
        artifacts = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
        results.append((code, stdout.replace(str(where), "OUT"), stderr, artifacts))
    return results


def embedded(capsys, tmp_path, name, model_text=None, ordering="1,2", **scalar):
    """(model, LPV file) of msd2dof under ordering, or of a scalar model."""
    if model_text is None:
        run(capsys, "example", "msd2dof", "--out", str(tmp_path))
        model = tmp_path / "msd2dof_nlfr.json"
    else:
        model = write_scalar_model(tmp_path / f"{name}.json", model_text, **scalar)
    lpv = tmp_path / f"{name}_lpv.json"
    code, _, err = run(capsys, "embed", "--model", str(model), "--lpv", str(lpv),
                       "--ordering", ordering, "--out", str(tmp_path))
    assert code == 0, err
    return model, lpv


@pytest.mark.parametrize("case", ["1,2", "2,1", "offset"])
def test_compare_child_matches_in_process(tmp_path, capsys, monkeypatch,
                                          parent_nlfr_runs, case):
    if case == "offset":
        model, lpv = embedded(capsys, tmp_path, "toy", "z1 + 1", ordering="1", Dzu=1.0)
    else:
        model, lpv = embedded(capsys, tmp_path, "msd", ordering=case)
    child, in_process = compare_both_ways(
        capsys, monkeypatch, tmp_path, "--model", str(model), "--lpv", str(lpv)
    )
    assert child == in_process
    assert child[0] == 0 and "compare PASS" in child[1]
    assert len(child[3]) == 4
    # the child ran the NLFR at the defaults' 20 000 steps, this process
    # only the in-process compare's
    assert parent_nlfr_runs == [os.getpid()]


# scalar models (f, A, Bw): from a zero start under the default input,
# "blowup" passes 1e12 at step 806 and "growth" at step 14121
DIVERGING = {
    "blowup": ("z1^3", 1.0, 1.0),
    "growth": ("0.5*sin(z1)", 2.0, 1.0),
    "stable": ("0.5*sin(z1)", -1.0, -1.0),
}


@pytest.mark.parametrize("nlfr_name, lpv_name, reported", [
    ("blowup", "growth", "nlfr"),
    ("blowup", "stable", "nlfr"),
    ("stable", "growth", "lpv"),
], ids=["both", "nlfr-only", "lpv-only"])
def test_compare_reports_the_nlfr_divergence_first(
    tmp_path, capsys, monkeypatch, parent_nlfr_runs, nlfr_name, lpv_name, reported
):
    paths = {}
    for name in {nlfr_name, lpv_name}:
        f, A, Bw = DIVERGING[name]
        paths[name] = embedded(capsys, tmp_path, name, f, ordering="1", A=A, Bw=Bw)
    model, lpv = paths[nlfr_name][0], paths[lpv_name][1]
    # the line simulate gives for the model that is reported
    code, _, err = run(capsys, "simulate", "--model",
                       str(model if reported == "nlfr" else lpv), "--out", str(tmp_path))
    expected = err.splitlines()[-1]
    assert code == 1 and expected.startswith("error[Divergence]: state exceeded")
    parent_nlfr_runs.clear()
    child, in_process = compare_both_ways(
        capsys, monkeypatch, tmp_path, "--model", str(model), "--lpv", str(lpv)
    )
    assert child == in_process == (1, "", expected + "\n", {})
    # a failed child leaves the NLFR to this process, which raises its error
    assert parent_nlfr_runs == [os.getpid()] * (2 if reported == "nlfr" else 1)


@pytest.mark.parametrize("when", ["at-once", "after-sending"])
def test_compare_child_that_fails(tmp_path, capsys, monkeypatch, parent_nlfr_runs, when):
    model, lpv = embedded(capsys, tmp_path, "msd", ordering="2,1")
    parent = os.getpid()
    if when == "at-once":
        nlfr_run = cli._nlfr_run
        monkeypatch.setattr(
            cli, "_nlfr_run",
            lambda *args: nlfr_run(*args) if os.getpid() == parent else os._exit(1),
        )
    else:
        # all of the result arrives, but the exit status says it failed
        send = cli._send

        def send_and_fail(*args):
            send(*args)
            os._exit(1)

        monkeypatch.setattr(cli, "_send", send_and_fail)
    child, in_process = compare_both_ways(
        capsys, monkeypatch, tmp_path, "--model", str(model), "--lpv", str(lpv)
    )
    assert child == in_process
    assert child[0] == 0 and len(child[3]) == 4
    assert parent_nlfr_runs == [os.getpid()] * 2


def test_interrupted_compare_reaps_its_child(tmp_path, capsys, monkeypatch,
                                             parent_nlfr_runs):
    model, lpv = embedded(capsys, tmp_path, "msd")
    # the child would run for a minute; the interrupt kills it
    monkeypatch.setattr(cli, "_nlfr_run", lambda *args: time.sleep(60))

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_lpv_run", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["compare", "--model", str(model), "--lpv", str(lpv),
              "--out", str(tmp_path / "out")])
    assert time.monotonic() - start < 30
    assert not (tmp_path / "out" / "compare_report.txt").exists()


def test_fork_floor_and_cpu_count(monkeypatch):
    if sys.platform != "linux" or not hasattr(os, "fork"):
        pytest.skip("compare forks on Linux only")
    floor = cli._FORK_MIN_STEPS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert cli._forks(floor) and not cli._forks(floor - 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert not cli._forks(floor)


# --- the artifact writer: outputs are replaced, not truncated -----------------


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_pipeline(capsys, out, seed):
    """example, embed, simulate and compare into out: eight artifacts."""
    model, lpv = out / "msd2dof_nlfr.json", out / "msd2dof_nlfr_lpv.json"
    sim_args = ("--t-end", "0.5", "--seed", seed)
    for argv in (
        ("example", "msd2dof"),
        ("embed", "--model", str(model)),
        ("simulate", "--model", str(model), *sim_args),
        ("compare", "--model", str(model), "--lpv", str(lpv), *sim_args),
    ):
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 0, err
    return sorted(p.name for p in out.iterdir())


def test_rerun_replaces_outputs_and_keeps_hard_links(tmp_path, capsys):
    out, links, fresh = tmp_path / "out", tmp_path / "links", tmp_path / "fresh"
    names = run_pipeline(capsys, out, "0")
    assert len(names) == 8
    links.mkdir()
    old = {}
    for name in names:
        os.link(out / name, links / name)
        old[name] = (out / name).read_bytes()
    assert run_pipeline(capsys, out, "1") == names
    run_pipeline(capsys, fresh, "1")
    for name in names:
        # the link keeps the old file; the output is a new file with the
        # bytes a run into an empty directory writes
        assert (links / name).read_bytes() == old[name], name
        assert not os.path.samefile(out / name, links / name), name
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
    assert (out / "msd2dof_nlfr_traj.csv").read_bytes() != old["msd2dof_nlfr_traj.csv"]


@pytest.mark.parametrize("target_exists", [True, False], ids=["target", "dangling"])
def test_symlinked_output_is_written_through(tmp_path, msd_file, capsys, target_exists):
    target = tmp_path / "elsewhere" / "real_lpv.json"
    target.parent.mkdir()
    if target_exists:
        target.write_text("old")
    link = tmp_path / "link_lpv.json"
    link.symlink_to(target)
    code, _, err = run(
        capsys, "embed", "--model", str(msd_file), "--lpv", str(link),
        "--out", str(tmp_path / "fresh"),
    )
    assert code == 0, err
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert sha256(target) == GOLDEN_SHA256["1,2/msd2dof_nlfr_lpv.json"]


def test_symlink_loop_output_is_refused(tmp_path, msd_file, capsys):
    a, b = tmp_path / "a_lpv.json", tmp_path / "b_lpv.json"
    a.symlink_to(b)
    b.symlink_to(a)
    code, _, err = run(
        capsys, "embed", "--model", str(msd_file), "--lpv", str(a),
        "--out", str(tmp_path / "fresh"),
    )
    assert code == 1
    assert "error[IOError]" in err and "Too many levels of symbolic links" in err
    assert os.readlink(a) == str(b) and os.readlink(b) == str(a)


def test_output_that_is_a_directory_is_refused(tmp_path, msd_file, capsys):
    blocker = tmp_path / "msd2dof_nlfr_traj.csv"
    blocker.mkdir()
    (blocker / "keep.txt").write_text("kept")
    code, _, err = run(
        capsys, "simulate", "--model", str(msd_file), "--out", str(tmp_path),
        "--t-end", "0.5",
    )
    assert code == 1
    assert "error[IOError]" in err and "Traceback" not in err
    assert blocker.is_dir()
    assert [p.name for p in blocker.iterdir()] == ["keep.txt"]
    assert (blocker / "keep.txt").read_text() == "kept"


def test_output_that_is_a_pipe_is_written_in_place(tmp_path, msd_file, capsys):
    fifo = tmp_path / "pipe_lpv.json"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, _, err = run(
        capsys, "embed", "--model", str(msd_file), "--lpv", str(fifo),
        "--out", str(tmp_path / "fresh"),
    )
    reader.join(timeout=10)
    assert code == 0, err
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [hashlib.sha256(b).hexdigest() for b in received] == [
        GOLDEN_SHA256["1,2/msd2dof_nlfr_lpv.json"]
    ]


def test_output_that_cannot_be_removed_is_rewritten_in_place(
    tmp_path, msd_file, capsys, monkeypatch
):
    # a writable file in a directory the user may not modify (sticky /tmp,
    # a shared directory) cannot be removed, but can still be rewritten
    target, link = tmp_path / "shared_lpv.json", tmp_path / "link_lpv.json"
    target.write_text("old")
    os.link(target, link)

    def refuse(path, *args, **kwargs):
        raise PermissionError(1, "Operation not permitted", str(path))

    monkeypatch.setattr(os, "remove", refuse)
    code, _, err = run(
        capsys, "embed", "--model", str(msd_file), "--lpv", str(target),
        "--out", str(tmp_path / "fresh"),
    )
    assert code == 0, err
    assert os.path.samefile(target, link)
    assert sha256(link) == GOLDEN_SHA256["1,2/msd2dof_nlfr_lpv.json"]


@pytest.mark.skipif(
    os.geteuid() == 0,
    reason="root may write any file, so a read-only output cannot be refused",
)
def test_read_only_output_is_refused(tmp_path, msd_file, capsys):
    argv = (
        "simulate", "--model", str(msd_file), "--out", str(tmp_path),
        "--t-end", "0.5",
    )
    assert run(capsys, *argv)[0] == 0
    csv = tmp_path / "msd2dof_nlfr_traj.csv"
    csv.chmod(0o444)
    before, inode = csv.read_bytes(), csv.stat().st_ino
    code, _, err = run(capsys, *argv, "--seed", "1")
    assert code == 1
    assert f"error[IOError]: [Errno 13] Permission denied: '{csv}'" in err
    assert csv.read_bytes() == before and csv.stat().st_ino == inode


def _writes(call: ast.Call) -> bool:
    """Whether call writes a file: write_text or write_bytes, os.open, or an
    open whose mode is not a constant read mode."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    owner = getattr(func, "value", None)
    if getattr(owner, "id", None) == "os":
        return True  # flags, not a mode
    # builtin and io.open take the mode second, a Path's open first
    at = 1 if owner is None or getattr(owner, "id", None) == "io" else 0
    modes = call.args[at : at + 1] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(
        not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt"))
        for m in modes
    )


@pytest.mark.parametrize(
    "code, writes",
    [
        ("open(p)", False), ("open(p, 'rb')", False), ("p.open()", False),
        ("p.read_text()", False), ("open(p, 'w')", True), ("open(p, 'r+')", True),
        ("open(p, mode='a')", True), ("open(p, m)", True), ("io.open(p, 'x')", True),
        ("p.open('w')", True), ("p.write_text(s)", True), ("p.write_bytes(b)", True),
        ("os.open(p, os.O_RDONLY)", True),
    ],
)
def test_write_detector(code, writes):
    assert _writes(ast.parse(code).body[0].value) is writes


def test_every_write_goes_through_the_writer():
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and _writes(child):
                sites.append(where)
            visit(child, where)

    for path in sorted(Path(lpvembed.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sites == ["model._write"]
