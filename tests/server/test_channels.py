"""Tests for repro.server.channels — channel pools and Erlang-B blocking."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.server.channels import ChannelPool, UnicastVODServer, erlang_b
from repro.sim.continuous import ContinuousSimulation
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals


class TestErlangB:
    def test_known_values(self):
        assert erlang_b(0.0, 5) == 0.0
        assert erlang_b(1.0, 1) == pytest.approx(0.5)
        assert erlang_b(2.0, 2) == pytest.approx(0.4)

    def test_matches_direct_formula(self):
        # B(a, k) = (a^k / k!) / sum_j a^j / j!
        a, k = 3.5, 6
        numerator = a**k / math.factorial(k)
        denominator = sum(a**j / math.factorial(j) for j in range(k + 1))
        assert erlang_b(a, k) == pytest.approx(numerator / denominator)

    @given(load=st.floats(0.0, 50.0), channels=st.integers(1, 40))
    def test_probability_bounds_and_monotonicity(self, load, channels):
        blocking = erlang_b(load, channels)
        assert 0.0 <= blocking < 1.0
        assert erlang_b(load, channels + 1) <= blocking + 1e-12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            erlang_b(-1.0, 3)
        with pytest.raises(ConfigurationError):
            erlang_b(1.0, 0)


class TestChannelPool:
    def test_allocate_and_release(self):
        pool = ChannelPool(capacity=2)
        assert pool.allocate(0.0, 10.0)
        assert pool.allocate(1.0, 5.0)
        assert not pool.allocate(2.0, 3.0)
        assert pool.busy(2.0) == 2
        assert pool.allocate(6.0, 9.0)  # one freed at t=5
        assert pool.free(6.0) == 0

    def test_counters(self):
        pool = ChannelPool(capacity=1)
        pool.allocate(0.0, 10.0)
        pool.allocate(1.0, 2.0)
        assert pool.allocations == 1
        assert pool.rejections == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChannelPool(capacity=0)
        pool = ChannelPool(capacity=1)
        with pytest.raises(ConfigurationError):
            pool.allocate(5.0, 3.0)


class TestUnicastVODServer:
    def test_blocking_example(self):
        server = UnicastVODServer(n_channels=1, duration=10.0)
        assert server.handle_request(0.0) == [(0.0, 10.0)]
        assert server.handle_request(5.0) == []
        assert server.blocking_ratio == 0.5

    def test_blocking_matches_erlang_b(self):
        """The loss-system simulation reproduces the closed form."""
        duration, rate, channels = 7200.0, 14.0, 30
        server = UnicastVODServer(n_channels=channels, duration=duration)
        horizon = 1500 * 3600.0
        sim = ContinuousSimulation(server, horizon)
        times = PoissonArrivals(rate).generate(
            horizon, RandomStreams(1).get("erlang")
        )
        result = sim.run(times)
        offered = (rate / 3600.0) * duration
        assert server.blocking_ratio == pytest.approx(
            erlang_b(offered, channels), abs=0.01
        )
        # Carried load = offered * (1 - blocking), in channels.
        carried = offered * (1 - erlang_b(offered, channels))
        assert result.mean_streams == pytest.approx(carried, rel=0.03)

    def test_unicast_vastly_worse_than_dhb(self):
        """The paper's premise: individual streams do not scale.  At 100
        requests/hour a lossless unicast server needs ~200 busy channels
        where DHB needs ~5 streams."""
        offered = (100.0 / 3600.0) * 7200.0  # 200 Erlangs
        assert offered == pytest.approx(200.0)
        # 5 streams of unicast would block almost everything:
        assert erlang_b(offered, 5) > 0.95

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UnicastVODServer(n_channels=2, duration=0.0)
