"""Benchmark driver behaviour. Assertions here are about accounting and
scaling shape, not absolute speed; absolute numbers live in the
acceptance suite's hardware-dependent criterion.
"""

import math

from v2xauth import actors
from v2xauth.simnet import bench


def test_latency_rows_shape():
    rows = bench.bench_latency(iterations=40, warmup=5)
    phases = {r[0] for r in rows}
    assert phases == {"vn_request_build", "rsu_verify", "vn_reply_handling", "rsu_ack_check"}
    for _, n, mean, p50, p95 in rows:
        assert n == 40
        assert 0 < mean and p50 <= p95


def test_batch_scaling_is_linear():
    rows, slope, r2 = bench.bench_batch_scaling(batch_sizes=(1, 10, 50, 100))
    assert [n for n, _ in rows] == [1, 10, 50, 100]
    assert slope > 0
    assert r2 > 0.99


def test_low_rate_has_zero_loss():
    rows, capacity = bench.bench_loss_ratio(100, 1000)
    assert sum(r[3] for r in rows) == 0
    assert capacity > 100


def test_partial_interval_is_its_own_row():
    # a duration that is not a whole number of intervals ends in a shorter
    # interval of its own, with its own deadline
    for duration_ms, offered in ((500, [50]), (1500, [100, 50])):
        rows, _ = bench.bench_loss_ratio(100, duration_ms)
        assert [r[1] for r in rows] == offered
        for _, offered_n, served, dropped, _ in rows:
            assert served + dropped == offered_n


class _FakeClock:
    """Stands in for ``bench.time``: time moves 1 us per clock read and by
    each sleep, plus one stall of ``stall_ms`` on the first sleep that
    reaches ``stall_at_ms`` after the first read."""

    def __init__(self, stall_at_ms, stall_ms):
        self.ns = 0
        self.start_ns = None
        self.stall_at_ms = stall_at_ms
        self.stall_ms = stall_ms

    def perf_counter_ns(self):
        self.ns += 1_000
        if self.start_ns is None:
            self.start_ns = self.ns
        return self.ns

    def sleep(self, seconds):
        self.ns += round(seconds * 1e9)
        if self.stall_ms and self.ns - self.start_ns >= self.stall_at_ms * 1_000_000:
            self.ns += self.stall_ms * 1_000_000
            self.stall_ms = 0


def test_short_stall_at_an_interval_end_loses_nothing(monkeypatch):
    # 100/s: the last arrival of the first interval is at 990 ms, and a
    # 50 ms stall starts it at 1,040 ms, after its interval closed but
    # well inside the freshness window
    monkeypatch.setattr(bench, "time", _FakeClock(stall_at_ms=990, stall_ms=50))
    rows, _ = bench.bench_loss_ratio(100, 2000)
    assert [r[1:4] for r in rows] == [(100, 100, 0), (100, 100, 0)]


def test_stall_longer_than_the_freshness_window_loses_the_request(monkeypatch):
    # the loop resumes at 1,585 ms: the stalled request and every later
    # one that has waited more than the window by then (arrivals 990
    # through 1,080 ms) are lost; the arrival at 1,090 ms is served
    stall_ms = actors.FRESHNESS_WINDOW_MS + 95
    monkeypatch.setattr(bench, "time", _FakeClock(stall_at_ms=990, stall_ms=stall_ms))
    rows, _ = bench.bench_loss_ratio(100, 2000)
    assert [r[1:4] for r in rows] == [(100, 99, 1), (100, 91, 9)]


def test_forced_saturation_drops_requests():
    # offered load a fixed multiple (8x) of the capacity read from the
    # verifier's thread-CPU cost per request. A preempted thread's CPU
    # clock stops, so a stall cannot make the probe read low, and a higher
    # rate only saturates harder. The window shrinks with the rate so the
    # stream stays near 8000 requests, whose blinded points dominate the
    # build time. The last of them starts late by 8000 service times less
    # the window: 0.89 s at 7,000/s served, even if the probe read 4,000/s,
    # against the 500 ms freshness window
    _, slope_ms, _ = bench.bench_batch_scaling(batch_sizes=(1, 10, 50, 100))
    rate = 8 * math.ceil(1000 / slope_ms)
    window_ms = max(1, 8000 * 1000 // rate)
    rows, _ = bench.bench_loss_ratio(rate, window_ms, interval_ms=window_ms)
    total_offered = sum(r[1] for r in rows)
    total_dropped = sum(r[3] for r in rows)
    assert total_offered == rate * window_ms // 1000
    assert total_dropped > 0


def test_csv_writer_format(tmp_path):
    path = tmp_path / "t.csv"
    bench.write_csv(path, ("a", "b"), [(1, 0.5), (2, 1.25)], comments=("model note",))
    text = path.read_text().splitlines()
    assert text[0] == "# model note"
    assert text[1] == "a,b"
    assert text[2] == "1,0.500000"
