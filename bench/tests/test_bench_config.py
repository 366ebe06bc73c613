"""BENCHMARK.json names exactly what the benchmark reports."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER  # noqa: E402
from run_bench import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
