"""End-to-end command-line tests driving the full pipeline."""

import hashlib
import json
import math

import numpy as np
import pytest

from lpvembed.cli import MAX_STEPS, main


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
    assert "check[offset]" in out and "PASS" in out


def test_validate_rejects_nonzero_dzw(tmp_path, msd_file, capsys):
    raw = json.loads(msd_file.read_text())
    raw["Dzw"] = [[0.1], [0.0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run(capsys, "validate", "--model", str(bad))
    assert code == 1
    assert "error[NonzeroDzw]" in err


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


@pytest.mark.parametrize(
    "make, code_name",
    [
        (_f_row_nested, "ParseError"),
        (_dims_nested, "ModelFormatError"),
        (_model_not_utf8, "ModelFormatError"),
        (_input_not_utf8, "InputFormatError"),
        (_integer_beyond_float_range, "ModelFormatError"),
    ],
    ids=["f-row-nested-300", "dims-nested-100000", "model-0xff", "input-0xff",
         "A-401-digits"],
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


# sha256 of the text artifacts on msd2dof; a change here is a change of the
# program's output
GOLDEN_SHA256 = {
    "msd2dof_nlfr.json":
        "0577ff21e952947fbc476cbb3424d463760a3735949570c3220987210e264a16",
    "validate.txt":
        "741f06edf90dc40eb372c7577f68576560d894bc2a39572227be8267c1758c3c",
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
