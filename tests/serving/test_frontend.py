"""Tests for the front end both servers share (repro.serving.frontend)."""

import math
import time
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

from repro.nn.module import Module
from repro.serving import InferenceServer, ServerStats, ShardedInferenceServer
from repro.serving.frontend import _Accounting, _FrontEnd


class AlwaysFails(Module):
    """A model whose every forward raises (module-level: spawn-picklable)."""

    def forward(self, x):
        raise RuntimeError("injected model failure")


def _thread_server():
    return InferenceServer(AlwaysFails(), workers=1, max_batch=2, max_wait_ms=0.0)


def _sharded_server():
    return ShardedInferenceServer(AlwaysFails, procs=1, queue_depth=4, max_retries=0)


class TestAccountingRule:
    @pytest.mark.parametrize("make_server", [_thread_server, _sharded_server],
                             ids=["thread", "sharded"])
    def test_failed_requests_are_slo_misses_outside_the_percentiles(self, make_server):
        n = 4
        with make_server() as server:
            futures = [server.submit(np.zeros((1, 8, 8))) for _ in range(n)]
            for future in futures:
                with pytest.raises(RuntimeError, match="injected model failure"):
                    future.result(120)
            stats = server.stats()
        assert isinstance(stats, ServerStats)
        assert stats.requests == n and stats.failed == n
        assert stats.slo_attainment == 0.0
        assert math.isnan(stats.latency_ms_p50)
        assert math.isnan(stats.latency_ms_p99)
        assert math.isnan(stats.latency_ms_mean)

    def test_cancelled_request_is_not_counted(self):
        front = _FrontEnd(queue_depth=1, overload="block", slo_ms=100.0, tuned=False)
        request = SimpleNamespace(future=Future(), enqueued_at=time.perf_counter())
        assert request.future.cancel()
        front._settle(request, np.zeros(1))
        assert front.stats().requests == 0 and request.future.cancelled()

    def test_latency_window_keeps_the_newest_max_samples(self):
        accounting = _Accounting(slo_ms=100.0)
        k = 7
        total = _Accounting.MAX_SAMPLES + k
        for i in range(total):
            accounting.record([i * 1e-6])
        assert list(accounting._latencies) == [i * 1e-6 for i in range(k, total)]
        stats = accounting.snapshot()
        assert stats.requests == total
        assert stats.latency_ms_max == pytest.approx((total - 1) * 1e-3)
        assert stats.latency_ms_mean == pytest.approx((k + total - 1) / 2 * 1e-3)


class TestOverloadPolicy:
    def test_thread_server_has_no_degrade_policy(self):
        with pytest.raises(ValueError, match="degrade"):
            InferenceServer(AlwaysFails(), overload="degrade")
        with pytest.raises(ValueError, match="overload must be one of"):
            InferenceServer(AlwaysFails(), overload="shrug")
