"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
(about half a minute: the traced-layer test runs both sweeps once).
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

# Layers each workload must exercise (nonzero calls), per the benchmark's
# predictions of which end-to-end metric each layer moves.
LAYERS_RUN = {
    "common": [
        "rep.hom_reps.calls", "rep.hom_reps.slots", "rep.is_mono.calls",
        "exact.kernel.calls", "exact.cokernel.calls", "exact.image.calls",
        "exact.solve_right.calls", "exact.solve_hom_system.calls",
        "exact.solve_hom_system.rows", "exact.snf_free.calls",
        "serialmod.mor_compose.calls", "serialmod.direct_sum.calls",
        "decompose.fitting_split.calls", "rep.find_iso_reps.calls",
        "rep.find_iso_reps.exhaustive", "rep.find_iso_reps.found", "rep.residue_rank_max",
        "base.compose_coeff.calls", "chainring.elem_ops", "quiver.paths.calls",
    ],
    "sweep": [
        "enumerate.rep_fingerprint.calls", "enumerate.IsoClassifier.add.calls",
        "enumerate.classifier_new", "enumerate.bucket_max", "enumerate.candidates",
        "enumerate.classes", "decompose.is_indecomposable.calls",
        "decompose.is_indecomposable.true",
    ],
    "linear-a3": ["concrete.ConcreteModule.submodules.calls", "concrete.lattice_size",
                  "rep.f_shriek.calls"],
    "generic-zigzag": ["serialmod.hom_space.calls"],
    "approx-battery": [
        "io.representation_to_json.calls", "io.representation_from_json.calls",
        "mimo.mimo.calls", "mimo.stable_reduce.calls", "mimo.mimo_from_stable.calls",
        "mimo.transfer.calls", "mimo.strip_injective_summands.calls",
        "decompose.decompose.calls", "decompose.fitting_split.splits",
        "exact.solve_left.calls",
    ],
}


def _traced_layers(items):
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        _, failures = workloads.run_items(items, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    return tracing.layer_metrics(tracer)


def test_linear_a3_expectation_is_reference_table_plus_known_extras():
    table = {"".join(map(str, v))
             for v in workloads._load_data("a3_loewy3_length_vectors.json")["vectors"]}
    within_caps = {v for v in table if all(int(x) <= c for x, c in zip(v, (3, 4, 5)))}
    assert sorted(workloads.LINEAR_A3_VECTORS) == sorted(within_caps | {"022", "033", "133", "233"})
    assert len(workloads.LINEAR_A3_VECTORS) == 26


def test_wrong_expected_class_count_fails_the_item():
    # A2 over F_2[x]/(x^2) with caps (2, 2) has 5 classes; expect one more.
    spec = workloads.SweepSpec("An-linear:2", "chain:poly:2:2", (2, 2),
                               "a3_loewy3_length_vectors.json",
                               expected_vectors=("01", "02", "11", "12", "22", "99"))
    seconds, failures = workloads.run_items(workloads.sweep_setup(spec))
    assert len(seconds) == 1 and len(failures) == 1
    assert "missing ['99']" in failures[0]

    spec = workloads.SweepSpec("A4-zigzag", "chain:poly:2:2", (1, 1, 1, 1),
                               "a4_zigzag_rad2_classes.json", expected_count=12)
    _, failures = workloads.run_items(workloads.sweep_setup(spec))
    assert len(failures) == 1 and "expected 12" in failures[0]


def test_forced_failing_property_fails_every_item(monkeypatch):
    items = workloads.battery_setup(workloads.battery_inputs(seed=0, input_set=0)[:3])
    monkeypatch.setattr(workloads, "is_mono", lambda rep: False)
    seconds, failures = workloads.run_items(items)
    assert len(seconds) == 3 and len(failures) == 3
    assert all("not monic" in line for line in failures)


def test_raised_budget_exceeded_fails_the_item(monkeypatch):
    from monocat.decompose import BudgetExceeded

    def over_budget(rep):
        raise BudgetExceeded("residue space too large")

    items = workloads.battery_setup(workloads.battery_inputs(seed=0, input_set=0)[:1])
    monkeypatch.setattr(workloads, "decompose", over_budget)
    _, failures = workloads.run_items(items)
    assert len(failures) == 1 and "BudgetExceeded" in failures[0]


def test_failures_reach_the_result_line(monkeypatch, tmp_path):
    def fake_worker(workload, inputs, deadline, trace_out=None, setup_only=False):
        return {"setup_s": 0.1, "raw_setup_s": 0.2, "wall_s": 1.0, "raw_wall_s": 2.0,
                "item_s": [0.5, 0.5], "failures": ["item 1: forced"], "peak_rss_mb": 20.0}

    monkeypatch.setattr(run, "run_worker", fake_worker)
    monkeypatch.setattr(run, "OUT", tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(["--workload", "linear-a3", "--seed", "1", "--seconds", "1"]) == 0
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "FAILED item 1: forced" in lines
    assert "failed_frac 0.5 (1 of 2 items)" in lines
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_host_speed_clock_scales_wall_time_by_reference_speed(monkeypatch):
    # A host where the reference loop takes twice its nominal time: a wall
    # second counts as half a nominal second.
    monkeypatch.setattr(hostspeed, "reference_time",
                        lambda samples=5: 2 * hostspeed.NOMINAL_REF_S)
    clock = hostspeed.HostSpeedClock(interval=0.01)
    clock.start()
    try:
        t0, wall0 = clock.now(), time.perf_counter()
        time.sleep(0.2)
        nominal, wall = clock.now() - t0, time.perf_counter() - wall0
    finally:
        clock.stop()
    assert clock.samples > 5
    assert nominal == pytest.approx((wall - clock.reference_s) / 2, rel=0.05)


def test_self_time_subtracts_child_spans():
    tr = tracing.Tracer()
    outer = tr.open(tr.name_id("outer"))
    inner = tr.open(tr.name_id("inner"))
    tr.close(inner)
    tr.close(outer)
    tr.span_start[outer], tr.span_end[outer] = 0.0, 10.0
    tr.span_start[inner], tr.span_end[inner] = 2.0, 5.0
    assert tr.self_times() == {"outer": (1, 7.0), "inner": (1, 3.0)}


def test_install_patches_names_bound_by_import_and_uninstall_restores():
    import monocat.enumerate as enum_mod
    import monocat.rep as rep_mod

    originals = (enum_mod.is_mono, rep_mod.is_mono, rep_mod.find_iso_reps, workloads.mimo)
    tr = tracing.Tracer()
    tr.install(extra_modules=[workloads])
    try:
        assert enum_mod.is_mono is rep_mod.is_mono is not originals[0]
        assert rep_mod.find_iso_reps is not originals[2]
        assert workloads.mimo is not originals[3]
    finally:
        tr.uninstall()
    assert (enum_mod.is_mono, rep_mod.is_mono, rep_mod.find_iso_reps, workloads.mimo) == originals


@pytest.mark.parametrize("name", ["linear-a3", "generic-zigzag", "approx-battery"])
def test_traced_run_emits_every_layer_metric(name):
    workload = workloads.WORKLOADS[name]
    if workload.make_inputs:
        docs = workload.make_inputs(0, 0)
        # two middle-sized items of each configuration keep the test short
        per = workloads.BATTERY_ITEMS_PER_CONFIG
        docs = [d for k, d in enumerate(docs) if k % per in (per // 2, per // 2 + 1)]
        items = workload.setup(docs)
    else:
        items = workload.setup(None)
    layers = _traced_layers(items)
    assert set(layers) | {"trace.overhead_s"} == PER_LAYER
    expected = LAYERS_RUN["common"] + LAYERS_RUN[name]
    if not workload.make_inputs:
        expected += LAYERS_RUN["sweep"]
    silent = [m for m in expected if not layers[m]]
    assert silent == []
    assert all(layers[m.replace(".calls", ".self_s")] > 0
               for m in expected if m.endswith(".calls") and m.replace(".calls", ".self_s") in layers)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "linear-a3", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
