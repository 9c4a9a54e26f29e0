"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from hostspeed import REF_SAMPLE_S, HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_self_time_excludes_children_and_originals_come_back():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: mod.inner() + mod.inner()
    originals = (mod.outer, mod.inner)
    tracer = Tracer()
    points = [(mod, "outer", "outer"), (mod, "inner", "inner")]
    with tracer.installed(points):
        mod.outer()
    assert (mod.outer, mod.inner) == originals
    stats, root_ns = tracer.summary()
    assert stats["outer"][0] == 1 and stats["inner"][0] == 2
    assert stats["outer"][2] == root_ns
    assert stats["outer"][1] + stats["inner"][1] == root_ns


def test_missing_trace_point_is_an_error():
    mod = types.SimpleNamespace()
    mod.inner = lambda: 1
    original = mod.inner
    with pytest.raises(LookupError, match="missing"):
        with Tracer().installed([(mod, "inner", "inner"), (mod, "missing", "missing")]):
            pass
    assert mod.inner is original


def test_host_speed_scales_by_the_median_sample_of_a_phase():
    speed = HostSpeed()
    speed.samples = [REF_SAMPLE_S, 4 * REF_SAMPLE_S, 2 * REF_SAMPLE_S]
    assert speed.scale() == 1 / 2
    assert speed.scale(1) == 1 / 3
    assert speed.sample() == 3 and speed.samples[3] > 0


def test_smoke_emits_every_named_metric():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("smoke: ok")
