"""Self-tests of the benchmark harness: `python3 -m pytest bench`."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import mrtcat  # noqa: E402
from spans import Tracer, installed, summarize  # noqa: E402


def test_quick_mode_passes_real_outputs_and_rejects_wrong_ones():
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_spans_nest_under_monte_carlo_on_pool_threads_and_bindings_restore():
    original = mrtcat.simulate.simulate_trial
    config = mrtcat.GenerativeConfig(
        family="gm0", t_points=10, rand_probs=np.array([0.3, 0.3]),
        tau_curve=np.full(10, 0.8),
    )
    tracer = Tracer()
    with installed(tracer):
        assert mrtcat.simulate.simulate_trial is not original
        mrtcat.run_monte_carlo(
            config, 30, 6, mrtcat.ModelSpec(), np.eye(2), seed=3, threads=2
        )
    assert mrtcat.simulate.simulate_trial is original

    by_id = {s.id: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s.name == "simulate.run_monte_carlo"]
    trials = [s for s in tracer.spans if s.name == "simulate.simulate_trial"]
    assert len(trials) == 6
    assert {s.parent for s in trials} == {root.id}
    for span in tracer.spans:
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end

    stats = summarize(tracer.spans)
    assert stats.calls["wcls.fit_wcls"] == 6
    assert stats.calls["numerics.f_quantile"] == 12
    assert 0.0 <= stats.self_s["simulate.run_monte_carlo"] <= root.end - root.start
