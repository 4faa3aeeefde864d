"""The benchmark's own tests: `python3 -m pytest bench/test_bench.py`."""

from __future__ import annotations

import json

import pytest
import run
from genprog import branch_free
from hostspeed import REFERENCE_S, HostSpeed
from workloads import WORKLOADS, InputFile, assign_flags, flag_assignments, scale

from qlint import Config, analyze_paths

# 3,000 terms: deep enough that `ast.parse` raises RecursionError inside
# qlint. Used here only, never in a workload.
DEEP_SUM = "n = " + "+".join(["1"] * 3000) + "\n"


@pytest.mark.parametrize("trace", [False, True])
def test_file_raising_inside_qlint_fails_alone(tmp_path, trace):
    with pytest.raises(RecursionError):
        analyze_paths([_write(tmp_path, "deep.py", DEEP_SUM)], Config())
    files = [
        InputFile("a_clean.py", branch_free(1).source, "straight"),
        InputFile("b_deep.py", DEEP_SUM, "straight"),
        InputFile("c_clean.py", branch_free(2).source, "straight"),
    ]
    outcome = run.run("corpus", seed=0, seconds=0.01, trace=trace, files=files)
    result = outcome["result"]
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS)
    failed = [line for line in outcome["lines"] if line.startswith("  FAILED")]
    assert len(failed) == 1 and "b_deep.py" in failed[0] and "RecursionError" in failed[0]


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(1120)])[0] == 99
    assert run.tail_percentile([float(i) for i in range(20)]) == (50, 9.0)
    assert run.tail_percentile([float(i) for i in range(8)]) == (100, 7.0)


def test_inputs_depend_only_on_the_seed():
    assert [f.source for f in scale(7)] == [f.source for f in scale(7)]
    assert [f.source for f in scale(7)] != [f.source for f in scale(8)]
    branchy = scale(7)[-1]
    for values in flag_assignments(branchy, 7):
        rewritten = assign_flags(branchy.source, values)
        assert "flag" not in rewritten
        assert rewritten.count("\n") == branchy.source.count("\n")


def test_host_speed_scales_by_the_nearest_calibrations():
    host = HostSpeed()
    # the loop took 2x the reference during the first 10 s, 1x after
    host.marks = [float(t) for t in range(20)]
    host.times = [2 * REFERENCE_S] * 10 + [REFERENCE_S] * 10
    assert host.scaled(2.0, 1.0) == pytest.approx(0.5)
    assert host.scaled(15.0, 1.0) == pytest.approx(1.0)


def _write(directory, name: str, source: str) -> str:
    path = directory / name
    path.write_text(source, "utf-8")
    return str(path)
