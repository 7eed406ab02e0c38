"""Tests of the benchmark itself: relabelling, pins, tracing, failure counts.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import signal
import subprocess
import shutil
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import permrel  # noqa: E402
import permrel.cli  # noqa: E402,F401  (the tracer wraps run_command there)
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PINS = workloads.load_pins()
SMALL = ("S4", "C3^2:C4")
SMALL_LADDER = tuple((name, "prim", workloads.CHARS) for name in SMALL)


def small_answers(seed):
    answers = {}
    for name in SMALL:
        group = workloads.build_group(PINS["groups"][name], seed, name)
        for char in workloads.CHARS:
            answers[workloads.answer_key(name, char)] = workloads.answer(group, "prim", char)
    return answers


def permrel_namespaces():
    """Every attribute of every permrel module, plus Group's tables."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "permrel" or modname.startswith("permrel."):
            for attr, value in vars(mod).items():
                out[(modname, attr)] = value
    for attr in tracing.TABLES:
        out[("Group", attr)] = permrel.Group.__dict__[attr]
    return out


@pytest.fixture(scope="module")
def traced():
    before = permrel_namespaces()
    tracer = tracing.Tracer()
    with tracer:
        wrapped = len(tracer._patched)
        answers = small_answers(seed=1)
    return before, tracer, answers, wrapped


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", SMALL)
def test_relabelled_group_keeps_pinned_invariants(name, seed):
    spec = PINS["groups"][name]
    group = workloads.build_group(spec, seed, name)
    assert [list(g.images) for g in group.generators] != spec["generators"]
    for char in workloads.CHARS:
        key = workloads.answer_key(name, char)
        assert workloads.answer(group, "prim", char) == PINS["answers"]["corpus"][key]


def test_relabelling_is_fixed_by_the_seed():
    spec = PINS["groups"]["S4"]
    one = workloads.relabel(spec["generators"], spec["degree"], 7, "S4")
    assert one == workloads.relabel(spec["generators"], spec["degree"], 7, "S4")
    assert one != workloads.relabel(spec["generators"], spec["degree"], 8, "S4")


def test_every_wrapped_attribute_is_restored(traced):
    before, _, _, wrapped = traced
    after = permrel_namespaces()
    assert wrapped > len(tracing.TABLES) + sum(len(v) for v in tracing.TRACED.values())
    assert before.keys() == after.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_functions_imported_elsewhere_are_wrapped_there_too():
    hnf, prim, closure = permrel.zlattice.hnf, permrel.relations.prim, permrel._kernels.closure
    with tracing.Tracer():
        assert permrel.relations.hnf is permrel.zlattice.hnf is not hnf
        assert permrel.prim is permrel.cli.prim is permrel.relations.prim is not prim
        assert permrel._kernels.closure is not closure
    assert permrel.relations.hnf is permrel.zlattice.hnf is hnf


def test_traced_answers_equal_untraced(traced):
    _, _, answers, _ = traced
    assert answers == small_answers(seed=1)
    for key, value in answers.items():
        assert value == PINS["answers"]["corpus"][key]


def test_child_self_time_never_exceeds_parent_span(traced):
    _, tracer, _, _ = traced
    spans = tracer.spans
    own = tracing.self_times(spans)
    assert any(s[3] >= 0 for s in spans)
    for i, s in enumerate(spans):
        assert s[1] <= s[2]
        assert own[i] >= -1e-9
        if s[3] >= 0:
            parent = spans[s[3]]
            assert parent[1] <= s[1] and s[2] <= parent[2]
            assert own[i] <= parent[2] - parent[1]


def test_layer_metrics_of_a_small_pass(traced):
    _, tracer, _, _ = traced
    metrics = tracing.layer_metrics(tracer.spans)
    pinned = PINS["answers"]["corpus"]
    assert metrics["subgroups.classes"] == sum(pinned["%s/0" % n]["classes"] for n in SMALL)
    assert metrics["subgroups.subgroups"] == sum(pinned["%s/0" % n]["subgroups"] for n in SMALL)
    assert 0 < metrics["subgroups.closure_yield"] <= 1
    assert 0 < metrics["relations.imprimitive.yield"] <= 1
    assert metrics["perm.tables.calls"] >= 2 * len(SMALL)
    assert metrics["kernels.closure.calls"] > 0
    assert metrics["cli.run_command.calls"] == 0


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.mark.parametrize("kind", sorted(speed.CHUNKS))
def test_speedometer_samples_inside_the_span_and_restores_the_alarm(kind):
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(kind, interval=0.05) as meter:
        busy(0.5)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the edge samples, plus one sample for each interval the span lasted
    assert len(meter.samples) >= 2 * speed.EDGE_SAMPLES + 5
    assert 0 < meter.paused < 0.5
    # the handler's time is taken out of the span's wall time
    assert meter.wall_s == pytest.approx(0.5 - meter.paused, abs=0.03)
    assert meter.ref_s == pytest.approx(meter.wall_s * meter.speed)
    assert meter.speed == pytest.approx(
        sum(speed.REF_CHUNK_S[kind] / s for s in meter.samples) / len(meter.samples)
    )


def test_speedometer_without_sampling_runs_nothing_inside_the_span():
    with speed.Speedometer("mixed", interval=0) as meter:
        busy(0.3)
    assert len(meter.samples) == 2 * speed.EDGE_SAMPLES
    assert meter.paused == 0
    assert meter.wall_s == pytest.approx(0.3, abs=0.03)


@pytest.fixture
def small_workload(monkeypatch):
    monkeypatch.setitem(workloads.LADDERS, "small", SMALL_LADDER)
    pins = copy.deepcopy(PINS)
    pins["answers"]["small"] = {
        key: value for key, value in PINS["answers"]["corpus"].items() if key.split("/")[0] in SMALL
    }
    return pins


def test_matching_pins_count_no_failure(small_workload):
    pins = small_workload
    groups = workloads.build_groups("small", 3, pins)
    answers, failed = workloads.solve("small", groups, pins)
    assert failed == 0
    assert len(answers) == workloads.attempted("small", pins) == 10


def test_wrong_pin_counts_as_failure(small_workload):
    pins = small_workload
    pins["answers"]["small"]["S4/3"]["kernel_rank"] += 1
    groups = workloads.build_groups("small", 3, pins)
    _, failed = workloads.solve("small", groups, pins)
    assert failed == 1
    assert failed / workloads.attempted("small", pins) == pytest.approx(0.1)


def test_raising_answer_counts_as_failure(small_workload, monkeypatch):
    pins = small_workload
    groups = workloads.build_groups("small", 3, pins)

    def broken(group, char):
        raise permrel.InternalCheckError("deliberate")

    monkeypatch.setattr(permrel, "prim", broken)
    answers, failed = workloads.solve("small", groups, pins)
    assert failed == 10
    assert answers["S4/0"] == {"error": "InternalCheckError: deliberate"}


def test_corpus_digest_mismatch_counts_as_failure():
    pins = copy.deepcopy(PINS)
    answers, failed = workloads.solve("corpus", [], pins)
    assert failed == 0
    pins["corpus"]["stdout_sha256"] = "0" * 64
    _, failed = workloads.solve("corpus", [], pins)
    assert failed == 1
    pins["corpus"]["rows"]["S4/2"]["computed"] = "Z/2"
    _, failed = workloads.solve("corpus", [], pins)
    assert failed == 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_of_its_kind(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=120, check=True,
    )
    lines = proc.stdout.decode("utf-8").splitlines()
    assert "seed=5" in lines[-2]
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 70
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = spec["per_layer"] if trace else spec["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in kind
    }
