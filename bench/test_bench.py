"""Tests of the benchmark itself, on the tiny workload configs (m=8, 9x9 grid)."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from elastoscan import forward  # noqa: E402
from elastoscan.forward import load_msr, save_msr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5


def _main(*argv) -> list[dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    return [json.loads(line) for line in buf.getvalue().splitlines()]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_prints_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    lines = _main("--workload", "all", "--seed", str(SEED), "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    final = lines[-1]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= len(WORKLOADS)
    expect = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in spec[section]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expect
    assert all(isinstance(v["value"], float) for v in final["metrics"].values())
    for detail in lines[:-1]:
        assert detail["fingerprint"]["nproc"] >= 1 and detail["fingerprint"]["numpy"]


def _outputs(tmp_path, workload: str) -> Path:
    out = tmp_path / workload
    calls = WORKLOADS[workload].calls(str(out), SEED, True, str(tmp_path))
    assert run.run_calls(calls)
    return out


def _rewrite_manifest(out: Path, name: str) -> None:
    """Re-hash one artifact so that only the numeric checks can catch a change."""
    man = json.loads((out / "manifest.json").read_text())
    for entry in man["files"]:
        if entry["path"] == name:
            entry["sha256"] = checks.sha256_file(str(out / name))
            entry["bytes"] = (out / name).stat().st_size
    (out / "manifest.json").write_text(json.dumps(man))


def _problems(out: Path, workload: str) -> list[str]:
    return WORKLOADS[workload].check(str(out), SEED, gates=False).problems


def test_corrupted_msr_entry_fails_the_checks(tmp_path):
    out = _outputs(tmp_path, "limited-retrieval-small")
    assert _problems(out, "limited-retrieval-small") == []
    msr_path = out / "run_retrieved.msr"
    msr = load_msr(msr_path)
    msr.f_pp[0, 0] *= 1.5
    save_msr(msr, msr_path)
    assert any("manifest sha256" in p for p in _problems(out, "limited-retrieval-small"))
    _rewrite_manifest(out, "run_retrieved.msr")
    assert any("naive double sum" in p for p in _problems(out, "limited-retrieval-small"))


def test_corrupted_field_value_fails_the_checks(tmp_path):
    out = _outputs(tmp_path, "limited-retrieval-small")
    csv_path = out / "run_retr_ff.csv"
    table, _ = checks.read_csv(str(csv_path))
    top = int(table[:, 2].argmax())
    lines = csv_path.read_text().splitlines()
    x, y, _ = lines[top + 1].split(",")
    lines[top + 1] = f"{x},{y},{table[top, 2] * 1.001!r}"
    csv_path.write_text("\n".join(lines) + "\n")
    _rewrite_manifest(out, "run_retr_ff.csv")
    assert any("naive double sum" in p for p in _problems(out, "limited-retrieval-small"))


def test_corrupted_forward_data_fails_the_checks(tmp_path):
    out = _outputs(tmp_path, "forward-io")
    assert _problems(out, "forward-io") == []
    path = out / "multiple" / "data.msr"
    msr = load_msr(path)
    msr.f_ps[1, 2] += abs(msr.f_ps).max()
    save_msr(msr, path)
    problems = _problems(out, "forward-io")
    assert any("reciprocity defect" in p for p in problems)
    assert any("realized noise" in p for p in problems)


def test_retrieval_checks_pass_on_tiny_outputs(tmp_path):
    out = _outputs(tmp_path, "limited-retrieval-small")
    rep = WORKLOADS["limited-retrieval-small"].check(str(out), SEED, gates=False)
    assert rep.problems == []
    assert 0 < rep.values["retrieval_err"] < rep.values["zero_fill_err"]


def test_csv_reader_tolerates_numpy_repr_and_counts_strict_rows(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("x,y,value\nnp.float64(-6.0),np.float64(1.5),np.float64(2.25)\n"
                    "0.5,-1.0,3.0\n")
    table, strict = checks.read_csv(str(path))
    assert table.tolist() == [[-6.0, 1.5, 2.25], [0.5, -1.0, 3.0]]
    assert strict == 1


def test_tracer_restores_every_binding_and_computes_self_time(monkeypatch):
    from elastoscan import harness

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("forward", "removed_function", "forward.gone", None),
        ("forward", "RemovedClass.method", "forward.gone", None)))
    before = (forward.save_msr, harness.save_msr, forward.SystemMatrix.__dict__["solve"])
    tracer = tracing.Tracer()
    tracer.install()
    assert harness.save_msr is not before[1] and harness.save_msr is forward.save_msr
    assert tracer.missing == ["forward.removed_function", "forward.RemovedClass.method"]
    tracer.uninstall()
    assert (forward.save_msr, harness.save_msr,
            forward.SystemMatrix.__dict__["solve"]) == before
    spans = [["a", 0.0, 10.0, None, None], ["b", 1.0, 4.0, 0, None],
             ["b", 2.0, 3.0, 1, None], ["c", 5.0, 6.0, 0, None]]
    selft, calls = tracing.self_times(spans)
    assert selft == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 1, "c": 1}


def test_host_clock_scales_by_the_reference_times_around_each_piece(monkeypatch):
    times = iter([0.2, 0.2, 0.1, 0.05, 0.1, 0.15, 0.15])
    monkeypatch.setattr(reference.Reference, "run", lambda self: next(times))
    short, long = 0.09 / reference.REF_SHARE, 0.18 / reference.REF_SHARE
    clock = reference.HostClock()
    assert clock.scale(short) == pytest.approx(short * reference.REF_S / 0.2)
    assert clock.scale(short) == pytest.approx(short * reference.REF_S / 0.15)
    # after a long piece the task repeats until it took REF_SHARE of the piece
    assert clock.scale(long) == pytest.approx(long * reference.REF_S / 0.1)
    assert clock.scale(short) == pytest.approx(short * reference.REF_S / 0.125)
    assert clock.refs == [0.2, 0.2, 0.1, 0.05, 0.1, 0.15, 0.15]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "limited-retrieval-small",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""
