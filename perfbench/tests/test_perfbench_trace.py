"""Trace wiring: tracing changes no output, every layer the benchmark names
records calls on the workload meant to exercise it, and the kernel's traced
hit count agrees with the closed forms.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import lpoly  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 5

# layer metrics that must be nonzero on each workload
EXERCISED = {
    "dual-subdivision": [
        "feasible.calls", "feasible.rows", "feasible.feasible", "feasible.self_s",
        "polyhedra.contains_calls", "polyhedra.contains_self_s", "subdivisions.self_s",
    ],
    "ehrhart": [
        "polyhedra.face_builds", "polyhedra.face_reuses", "polyhedra.faces",
        "polyhedra.face_self_s", "polyhedra.dilates", "linalg.calls", "linalg.self_s",
        "counting.self_s", "desing.self_s",
    ],
    "count-dilates": [
        "kernels.calls", "kernels.box_points", "kernels.hits", "kernels.self_s",
        "counting.self_s",
    ],
    "tensor-products": [
        "rootsys.induce_calls", "rootsys.self_s", "characters.self_s",
        "characters.terms", "characters.weyl_misses",
    ],
}
# layers the tensor products must not touch
UNTOUCHED = {
    "tensor-products": ["feasible.calls", "polyhedra.face_builds", "kernels.calls",
                        "polyhedra.contains_calls"],
}


# runs before the module's tracer is installed
def test_uninstall_restores_the_program():
    from lpoly import counting, polyhedra

    before = (counting.count_box, polyhedra.LabelledPolyhedron.contains)
    t = Tracer()
    t.install()
    assert counting.count_box is not before[0]
    t.uninstall()
    assert (counting.count_box, polyhedra.LabelledPolyhedron.contains) == before


@pytest.fixture(scope="module")
def tracer():
    t = Tracer()
    rebound = t.install()
    yield t, rebound
    t.uninstall()


def one_pass(work, tracer, traced):
    run.clear_memos()
    tracer.reset()
    tracer.enabled = traced
    outputs = {}
    errors = []
    run.run_pass(work.ops(), outputs, errors)
    tracer.enabled = False
    assert errors == []
    return outputs, tracer.layer_metrics()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_pass_matches_untraced_and_exercises_its_layers(name, tracer):
    t, _ = tracer
    work = wl.WORKLOADS[name](SEED)
    work.load(lpoly)
    plain, _ = one_pass(work, t, traced=False)
    assert t.spans == []
    traced, layers = one_pass(work, t, traced=True)
    assert {k: run.digest(v) for k, v in traced.items()} == {
        k: run.digest(v) for k, v in plain.items()
    }
    assert work.check(traced) == []
    for metric in EXERCISED[name]:
        assert layers[metric][0] > 0, metric
    for metric in UNTOUCHED.get(name, []):
        assert layers[metric][0] == 0, metric
    assert len(t.spans) > 0
    if name == "count-dilates":
        expected = sum(wl.closed_form(k[0], k[2], k[3]) for k in traced)
        assert layers["kernels.hits"][0] == expected


def test_names_imported_by_value_are_rebound(tracer):
    _, rebound = tracer
    for pair in [
        ("lpoly.polyhedra", "feasible_point"), ("lpoly.subdivisions", "feasible_point"),
        ("lpoly.counting", "count_box"), ("lpoly.counting", "scan_box"),
        ("lpoly.counting", "dilate"), ("lpoly.characters", "dilate"),
        ("lpoly.characters", "induce"),
    ]:
        assert pair in rebound


def _copy(dst: Path, with_program: bool):
    shutil.copytree(BENCH, dst / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", dst)
    if with_program:
        shutil.copytree(BENCH.parent / "src", dst / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_command_prints_one_result_line(tmp_path):
    _copy(tmp_path, with_program=True)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            spec["command"] + ["--workload", "count-dilates", "--seed", "2",
                               "--seconds", "0.1", "--trace", str(trace)],
            cwd=tmp_path, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[group]}
        for m in spec[group]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_command_fails_without_the_program(tmp_path):
    _copy(tmp_path, with_program=False)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "ehrhart", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
