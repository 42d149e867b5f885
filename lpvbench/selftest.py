"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q lpvbench/selftest.py

They are kept out of the repository's test suite (the file name does not
match ``test_*.py``) because they pin the benchmark's view of the program,
including a defect the program has today.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from synth import model_json, synth_model  # noqa: E402

from lpvembed import embed, expr, validate_nlfr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    """A workload instance shrunk to run in about a second."""
    w = type(workloads.WORKLOADS[name])()
    if name == "msd2dof-compare":
        w.t_end = "1"
        w.roundtrips_per_compare = 1
    elif name == "synth64-simulate":
        w.dims = dict(n_x=8, n_u=2, n_y=2, n_w=2, n_z=3)
        w.n_steps = 1000
    else:
        w.dims = dict(n_x=6, n_u=3, n_y=2, n_w=2, n_z=3)
        w.n_steps = 1000
    return w


def test_generator_is_deterministic_per_seed():
    sizes = dict(n_x=16, n_u=5, n_y=2, n_w=3, n_z=5, offset=True)
    text = model_json(synth_model(4, **sizes))
    assert model_json(synth_model(4, **sizes)) == text
    assert model_json(synth_model(5, **sizes)) != text


def test_generator_structure_does_not_depend_on_seed():
    sizes = dict(n_x=64, n_u=2, n_y=2, n_w=4, n_z=6, terms_per_row=4)
    channels = {embed(validate_nlfr(synth_model(s, **sizes))).channels for s in (1, 2, 3)}
    assert len(channels) == 1
    assert len(channels.pop()) == 18


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_completes_with_every_metric(name, trace, tmp_path, capsys):
    result = run.run(tiny(name), 3, 0.0, trace, tmp_path)
    printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
               if line.startswith("  metric ")]
    assert printed
    assert set(printed) <= {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert result["correct"]
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    spec = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == spec
    assert json.loads(json.dumps(result, allow_nan=False)) == result
    if trace:
        assert list(tmp_path.glob("spans-*.jsonl"))
        assert list(tmp_path.glob("layers-*.txt"))
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_offset_compare_probes_are_reported_failed(tmp_path, capsys):
    result = run.run(tiny("synth5-orderings"), 3, 0.0, False, tmp_path)
    assert result["failed"] == 2
    assert result["correct"]
    out = capsys.readouterr().out
    assert "zero-start offset compare (CLI): known defect: error[ToleranceExceeded]" in out
    assert "ill-conditioned offset compare (CLI): known defect: untyped OverflowError" in out


def test_untyped_error_is_counted_not_raised():
    cyc = workloads.Cycle()
    with cyc.op("overflow"):
        raise OverflowError("math range error")
    assert (cyc.attempted, cyc.failed, cyc.known_failed) == (1, 1, 0)
    assert "untyped OverflowError" in cyc.failures[0]


def test_tracer_restores_every_name():
    before = expr.Expression.evaluate
    lib = spans.Lib()
    tracer = spans.Tracer("t")
    tracer.install(lib)
    assert expr.Expression.evaluate is not before
    tracer.uninstall()
    assert expr.Expression.evaluate is before
    assert lib.embed is spans.Lib().embed


def test_self_time_excludes_children():
    tracer = spans.Tracer("t")
    tracer.spans[:] = [["a", "a", 0.0, 10.0, None, "t/0", 1.0],
                       ["b", "b", 2.0, 5.0, 0, "t/0", 0.0]]
    assert tracer.self_times() == [6.0, 3.0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "msd2dof-compare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
