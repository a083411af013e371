"""Tests of the layer-ledger benchmark harness (tiny inputs, a few seconds)."""

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

import pytest

import compare
import run
from ledger import measure, refspeed, spans
from ledger.clock import now
from ledger.workloads import WORKLOADS

RUN_PY = os.path.abspath(run.__file__)
NAMES = sorted(WORKLOADS)


def _workload(name, tmp_path):
    return WORKLOADS[name](0, "tiny", str(tmp_path))


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, RUN_PY, "--size", "tiny", "--seconds", "0", *args],
        capture_output=True, text=True, timeout=300, check=False,
    )


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = spans.installed_originals()
    assert len(before) >= len(spans.SPANS)
    with spans.Tracer() as tracer:
        during = spans.installed_originals()
        _workload("exact-faulty", tmp_path).run_pass()
        tracer.collect()
    assert not tracer.unwrapped
    assert during.keys() == before.keys()
    assert all(during[key] is not before[key] for key in before)
    after = spans.installed_originals()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    installs = []
    monkeypatch.setattr(measure, "Tracer", lambda: installs.append("tracer"))
    before = spans.installed_originals()
    m = measure.measure(_workload("schedule-explore", tmp_path), 0, traced=False)
    assert m.passes == 2 and not m.problems
    assert installs == []
    after = spans.installed_originals()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", NAMES)
def test_traced_digest_equals_untraced_digest(name, tmp_path):
    workload = _workload(name, tmp_path)
    try:
        plain = measure.digest(workload.run_pass().content)
        with spans.Tracer():
            traced = measure.digest(workload.run_pass().content)
    finally:
        workload.close()
    assert traced == plain


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_counts_repeat_exactly(name, tmp_path):
    first = measure.measure(_workload(name, tmp_path), 0, traced=True)
    second = measure.measure(_workload(name, tmp_path), 0, traced=True)
    assert not first.problems and not second.problems
    counts = [key for key, unit in measure.PER_LAYER.items() if unit in ("count", "B")]
    assert {k: first.layers[k] for k in counts} == {k: second.layers[k] for k in counts}
    # Self times of all layers plus the unattributed rest are the traced wall.
    total = sum(first.layers[metric] for metric in measure.SELF_TIME.values())
    total += first.layers["tracing.unattributed_s"]
    assert math.isclose(total, statistics.mean(first.traced_pass_s), rel_tol=1e-9)


def test_campaign_counts_move_on_campaign_sweep_only(tmp_path):
    layers = {}
    for name in ("exact-faulty", "campaign-sweep"):
        layers[name] = measure.measure(_workload(name, tmp_path), 0, traced=True).layers
    assert layers["exact-faulty"]["engine.events"] > 0
    assert layers["exact-faulty"]["campaign.store_saves"] == 0
    assert layers["campaign-sweep"]["campaign.store_saves"] > 0
    assert layers["campaign-sweep"]["campaign.cache_hits"] > 0


def _sections(lines):
    """Report lines per workload (each section starts with ``== name:``)."""
    sections, current = {}, None
    for line in lines:
        if line.startswith("== "):
            current = sections.setdefault(line[3:].split(":")[0], [])
        elif current is not None:
            current.append(line)
    return sections


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_of_each_workload_prints_every_metric_with_its_unit(trace):
    proc = _run_cli("--workload", "all", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = measure.PER_LAYER if trace == "1" else measure.END_TO_END
    assert set(result["metrics"]) == {f"{name}.{metric}" for name in NAMES for metric in expected}
    sections = _sections(lines[:-1])
    assert sorted(sections) == NAMES
    for name, section in sections.items():
        for metric, unit in expected.items():
            assert result["metrics"][f"{name}.{metric}"]["unit"] == unit
            assert any(line.split()[:1] == [metric] and line.endswith(f" {unit}")
                       for line in section), (name, metric)
        text = "\n".join(section)
        assert "failed_ratio" in text and "output_digest" in text


def test_single_workload_prints_exactly_the_end_to_end_metrics():
    proc = _run_cli("--workload", "schedule-explore", "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in measure.END_TO_END.items()
    }
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_stored_digest_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps(
        {"seed": 0, "size": "tiny", "digests": {"schedule-explore": "0" * 64}}
    ))
    monkeypatch.setattr(run, "DIGESTS", str(digests))
    code = run.main(["--workload", "schedule-explore", "--size", "tiny", "--seconds", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "simulated output changed" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(os.path.dirname(RUN_PY), tmp_path / "perfbench")
    copied = str(tmp_path / "perfbench" / "run.py")
    proc = subprocess.run(
        [sys.executable, copied, "--workload", "exact-faulty", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _report(events, self_s):
    layers = {
        "engine.events": {"value": events, "unit": "count"},
        "engine.self_s": {"value": self_s, "unit": "s"},
    }
    return {"exact-faulty": layers}


def test_layer_compare_flags_changed_counts_only(capsys):
    assert compare.compare(_report(100, 1.0), _report(100, 0.5)) == []
    flagged = compare.compare(_report(100, 1.0), _report(101, 1.0))
    assert flagged == ["exact-faulty: engine.events"]
    assert "COUNT CHANGED" in capsys.readouterr().out


def test_sampler_takes_ticks_out_and_scales_by_nearby_chunks():
    sampler = refspeed.Sampler()
    nominal = refspeed.NOMINAL_CHUNK_S
    # Ticks at 1-2 and 5-6 on the host clock; the host runs at half speed
    # around the first and at nominal speed around the second.
    sampler.ticks = [(1.0, 2.0, 2 * nominal), (5.0, 6.0, nominal)]
    sampler._local = [2.0, 1.0]
    assert sampler.program_s(0.0, 7.0) == 5.0
    # 0-1 and 2-5 belong to tick 0 (slowdown 2), 6-7 to tick 1.
    assert math.isclose(sampler.nominal_s(0.0, 7.0), 1 / 2 + 3 / 2 + 1 / 1)
    assert math.isclose(sampler.nominal_s(1.5, 5.5), 3 / 2)
    assert sampler.program_s(3.0, 4.0) == 1.0


def test_sampler_restores_the_timer_and_handler():
    before = signal.getsignal(signal.SIGALRM)
    with refspeed.Sampler() as sampler:
        deadline = now() + 3 * refspeed.PERIOD_S
        while now() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # entry, exit and at least one timer tick
    assert len(sampler.ticks) >= 3
    assert sampler.slowdown > 0
