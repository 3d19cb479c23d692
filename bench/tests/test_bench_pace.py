"""Pace arithmetic on hand-built probe samples, and the probe process itself."""

import time

import pytest

import pace


def test_chunk_s_uses_the_window_or_falls_back_to_every_sample(monkeypatch):
    monkeypatch.setattr(pace, "MIN_WINDOW_SAMPLES", 3)
    samples = [(0.5, 9.0), (1.1, 1.0), (1.2, 2.0), (1.3, 3.0), (2.5, 8.0), (3.5, 7.0)]
    assert pace.chunk_s(samples, [(1.0, 2.0)]) == 2.0
    assert pace.chunk_s(samples, [(1.0, 1.25), (3.0, 4.0)]) == 2.0
    # two samples are too few: the median of all six is taken
    assert pace.chunk_s(samples, [(2.0, 4.0)]) == pytest.approx(5.0)
    with pytest.raises(RuntimeError):
        pace.chunk_s([], [(0.0, 1.0)])


def test_paced_scales_each_window_by_the_square_root_of_the_pace(monkeypatch):
    monkeypatch.setattr(pace, "MIN_WINDOW_SAMPLES", 1)
    ref = pace.REFERENCE_CHUNK_S
    # the build (1..2) ran at a quarter of the reference pace, the rest at the reference pace
    samples = [(0.5, ref), (1.5, 4 * ref), (2.5, ref), (2.6, ref)]
    run = {"t0": 0.0, "t1": 3.0, "setup_window": [1.0, 2.0], "cpu_s": 6.0, "setup_cpu_s": 4.0, "query_cpu_s": 2.0}
    out = pace.paced(run, samples)
    assert out["setup_s"] == pytest.approx(2.0)
    assert out["paced_query_s"] == pytest.approx(2.0)
    assert out["paced_cpu_s"] == pytest.approx(6.0)  # median chunk of the whole job is ref
    assert out["pace_samples"] == 4


def test_probe_samples_and_stops():
    probe = pace.Probe(min(pace.os.sched_getaffinity(0)))
    time.sleep(0.2)
    samples = probe.stop()
    assert probe.proc.returncode is not None
    assert len(samples) > 10 and all(c > 0 for _, c in samples)
