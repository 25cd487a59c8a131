"""Unit tests for the simulated network: delays, faults, partitions."""

import pytest

from repro.sim import (
    ConstantDelay,
    JitteredDelay,
    MatrixDelay,
    Message,
    Network,
    Node,
    Simulator,
)


class Recorder(Node):
    """Test node that logs everything it receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_data(self, msg):
        self.received.append((self.sim.now, msg["n"]))

    def on_ping(self, msg):
        self.reply(msg, payload={"n": msg["n"]})


@pytest.fixture
def sim():
    return Simulator(seed=1)


def make_pair(sim, delay_model=None, **net_kwargs):
    net = Network(sim, delay_model or ConstantDelay(10.0), **net_kwargs)
    a = Recorder(sim, net, "a")
    b = Recorder(sim, net, "b")
    return net, a, b


class TestDelivery:
    def test_constant_delay(self, sim):
        net, a, b = make_pair(sim)
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == [(10.0, 1)]

    def test_unknown_destination_counts_as_drop(self, sim):
        net, a, b = make_pair(sim)
        a.send("zzz", "data", {"n": 1})
        sim.run()
        assert net.stats.dropped == 1
        assert net.stats.unknown_destination == 1
        assert b.received == []

    def test_duplicate_node_id_rejected(self, sim):
        net, a, b = make_pair(sim)
        with pytest.raises(ValueError):
            Recorder(sim, net, "a")

    def test_matrix_delay_and_symmetry(self, sim):
        model = MatrixDelay({}, default_ms=99.0)
        model.set("a", "b", 5.0)
        net = Network(sim, model)
        a = Recorder(sim, net, "a")
        b = Recorder(sim, net, "b")
        c = Recorder(sim, net, "c")
        a.send("b", "data", {"n": 1})
        b.send("a", "data", {"n": 2})
        a.send("c", "data", {"n": 3})
        sim.run()
        assert b.received == [(5.0, 1)]
        assert a.received == [(5.0, 2)]
        assert c.received == [(99.0, 3)]

    def test_jitter_within_bounds_and_can_reorder(self):
        # With jitter up to 50ms on a 1ms base, two back-to-back sends
        # should reorder for some seed.
        reordered = False
        for seed in range(20):
            sim = Simulator(seed=seed)
            net = Network(sim, JitteredDelay(ConstantDelay(1.0), 50.0))
            a = Recorder(sim, net, "a")
            b = Recorder(sim, net, "b")
            a.send("b", "data", {"n": 1})
            a.send("b", "data", {"n": 2})
            sim.run()
            order = [n for _, n in b.received]
            assert sorted(order) == [1, 2]
            if order == [2, 1]:
                reordered = True
        assert reordered, "jitter never produced reordering across seeds"

    def test_stats_counting(self, sim):
        net, a, b = make_pair(sim)
        a.send("b", "data", {"n": 1})
        a.send("b", "data", {"n": 2})
        sim.run()
        assert net.stats.total_messages == 2
        assert net.stats.by_kind["data"] == 2
        assert net.stats.by_pair[("a", "b")] == 2

    def test_stats_snapshot_diff(self, sim):
        net, a, b = make_pair(sim)
        a.send("b", "data", {"n": 1})
        sim.run()
        snap = net.snapshot()
        a.send("b", "data", {"n": 2})
        sim.run()
        diff = net.stats.diff(snap)
        assert diff.total_messages == 1

    def test_tap_observes_messages(self, sim):
        net, a, b = make_pair(sim)
        seen = []
        net.add_tap(lambda m: seen.append(m.kind))
        a.send("b", "data", {"n": 1})
        sim.run()
        assert seen == ["data"]


class TestFaults:
    def test_loss_drops_messages(self):
        sim = Simulator(seed=5)
        net, a, b = make_pair(sim, loss_probability=1.0)
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == []
        assert net.stats.dropped == 1

    def test_loss_probability_statistics(self):
        sim = Simulator(seed=5)
        net, a, b = make_pair(sim, loss_probability=0.5)
        for i in range(400):
            a.send("b", "data", {"n": i})
        sim.run()
        assert 120 < len(b.received) < 280  # ~200 expected

    def test_duplication(self):
        sim = Simulator(seed=5)
        net, a, b = make_pair(sim, duplicate_probability=1.0)
        a.send("b", "data", {"n": 1})
        sim.run()
        assert [n for _, n in b.received] == [1, 1]
        assert net.stats.duplicated == 1

    def test_invalid_probabilities_rejected(self, sim):
        with pytest.raises(ValueError):
            Network(sim, ConstantDelay(1.0), loss_probability=1.5)
        with pytest.raises(ValueError):
            Network(sim, ConstantDelay(1.0), duplicate_probability=-0.1)


class TestPartitions:
    def test_block_drops_both_directions(self, sim):
        net, a, b = make_pair(sim)
        net.block("a", "b")
        a.send("b", "data", {"n": 1})
        b.send("a", "data", {"n": 2})
        sim.run()
        assert b.received == [] and a.received == []

    def test_asymmetric_block(self, sim):
        net, a, b = make_pair(sim)
        net.block("a", "b", symmetric=False)
        a.send("b", "data", {"n": 1})
        b.send("a", "data", {"n": 2})
        sim.run()
        assert b.received == []
        assert a.received == [(10.0, 2)]

    def test_unblock_restores(self, sim):
        net, a, b = make_pair(sim)
        net.block("a", "b")
        net.unblock("a", "b")
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == [(10.0, 1)]

    def test_partition_groups(self, sim):
        net = Network(sim, ConstantDelay(1.0))
        nodes = {name: Recorder(sim, net, name) for name in "abcd"}
        net.partition(["a", "b"], ["c", "d"])
        nodes["a"].send("b", "data", {"n": 1})  # same side
        nodes["a"].send("c", "data", {"n": 2})  # across
        nodes["d"].send("c", "data", {"n": 3})  # same side
        sim.run()
        assert [n for _, n in nodes["b"].received] == [1]
        assert [n for _, n in nodes["c"].received] == [3]

    def test_heal_removes_all_blocks(self, sim):
        net, a, b = make_pair(sim)
        net.partition(["a"], ["b"])
        net.heal()
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == [(10.0, 1)]

    def test_overlapping_partitions_heal_independently(self, sim):
        net = Network(sim, ConstantDelay(1.0))
        nodes = {name: Recorder(sim, net, name) for name in "abc"}
        t1 = net.partition(["a"], ["b", "c"])
        t2 = net.partition(["a", "b"], ["c"])
        net.heal(t1)
        # a↔c is still severed by the second partition; a↔b is open.
        nodes["a"].send("b", "data", {"n": 1})
        nodes["a"].send("c", "data", {"n": 2})
        sim.run()
        assert [n for _, n in nodes["b"].received] == [1]
        assert nodes["c"].received == []
        net.heal(t2)
        nodes["a"].send("c", "data", {"n": 3})
        sim.run()
        assert [n for _, n in nodes["c"].received] == [3]

    def test_heal_unknown_token_is_noop(self, sim):
        net, a, b = make_pair(sim)
        token = net.partition(["a"], ["b"])
        net.heal(9999)  # unknown
        assert net.is_blocked("a", "b")
        net.heal(token)
        net.heal(token)  # double-heal is idempotent
        assert not net.is_blocked("a", "b")

    def test_argless_heal_clears_everything(self, sim):
        net, a, b = make_pair(sim)
        net.block("a", "b")
        net.partition(["a"], ["b"])
        net.heal()
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == [(10.0, 1)]

    def test_partition_formed_mid_flight_drops(self, sim):
        """A partition severs the path for in-flight messages too."""
        net, a, b = make_pair(sim)
        a.send("b", "data", {"n": 1})
        sim.schedule(5.0, lambda: net.block("a", "b"))
        sim.run()
        assert b.received == []


class TestGrayFailures:
    def test_degrade_link_adds_delay(self, sim):
        net, a, b = make_pair(sim)
        token = net.degrade_link("a", "b", extra_delay_ms=25.0)
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == [(35.0, 1)]
        net.restore_link(token)
        a.send("b", "data", {"n": 2})
        sim.run()
        assert b.received[-1] == (sim.now, 2)
        assert net.link_extra_delay("a", "b") == 0.0

    def test_degrade_link_stacks(self, sim):
        net, a, b = make_pair(sim)
        t1 = net.degrade_link("a", "b", extra_delay_ms=10.0)
        t2 = net.degrade_link("a", "b", extra_delay_ms=5.0)
        assert net.link_extra_delay("a", "b") == 15.0
        net.restore_link(t1)
        assert net.link_extra_delay("a", "b") == 5.0
        net.restore_link(t2)
        net.restore_link(t2)  # idempotent
        assert net.link_extra_delay("a", "b") == 0.0

    def test_degrade_link_loss(self):
        sim = Simulator(seed=7)
        net, a, b = make_pair(sim)
        token = net.degrade_link("a", "b", loss_probability=1.0, symmetric=False)
        a.send("b", "data", {"n": 1})
        b.send("a", "data", {"n": 2})
        sim.run()
        assert b.received == []
        assert [n for _, n in a.received] == [2]
        net.restore_link(token)
        assert net.link_loss_probability("a", "b") == 0.0

    def test_loss_window_composes_with_base(self):
        sim = Simulator(seed=3)
        net, a, b = make_pair(sim, loss_probability=0.0)
        token = net.add_loss_window(1.0)
        assert net.effective_loss_probability("a", "b") == 1.0
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == []
        net.remove_loss_window(token)
        assert net.effective_loss_probability("a", "b") == 0.0
        a.send("b", "data", {"n": 2})
        sim.run()
        assert [n for _, n in b.received] == [2]

    def test_duplication_window(self):
        sim = Simulator(seed=3)
        net, a, b = make_pair(sim)
        token = net.add_duplication_window(1.0)
        a.send("b", "data", {"n": 1})
        sim.run()
        assert [n for _, n in b.received] == [1, 1]
        net.remove_duplication_window(token)
        a.send("b", "data", {"n": 2})
        sim.run()
        assert [n for _, n in b.received] == [1, 1, 2]

    def test_degrade_link_rejects_bad_args(self, sim):
        net, a, b = make_pair(sim)
        with pytest.raises(ValueError):
            net.degrade_link("a", "b", extra_delay_ms=-1.0)
        with pytest.raises(ValueError):
            net.degrade_link("a", "b", loss_probability=2.0)
        with pytest.raises(ValueError):
            net.add_loss_window(-0.5)
        with pytest.raises(ValueError):
            net.add_duplication_window(1.5)


class TestMessage:
    def test_unique_ids(self):
        m1 = Message(src="a", dst="b", kind="k")
        m2 = Message(src="a", dst="b", kind="k")
        assert m1.msg_id != m2.msg_id

    def test_duplicate_copies_payload_and_reply_to(self):
        m = Message(src="a", dst="b", kind="k", payload={"x": 1}, reply_to=77)
        d = m.duplicate()
        assert d.msg_id != m.msg_id
        assert d.reply_to == 77
        assert d.payload == {"x": 1}
        d.payload["x"] = 2
        assert m.payload["x"] == 1  # independent copy

    def test_getitem_and_get(self):
        m = Message(src="a", dst="b", kind="k", payload={"x": 1})
        assert m["x"] == 1
        assert m.get("y", "dflt") == "dflt"

    def test_duplicate_preserves_span_id(self):
        m = Message(src="a", dst="b", kind="k", span_id=42)
        assert m.duplicate().span_id == 42

    def test_receiver_held_message_keeps_payload(self, sim):
        """A delivered message a receiver keeps is never reused: later
        traffic leaves its identity and payload intact."""

        class Keeper(Node):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.held = []

            def on_keep(self, msg):
                self.held.append(msg)

        net = Network(sim, ConstantDelay(1.0))
        a = Recorder(sim, net, "a")
        k = Keeper(sim, net, "k")
        a.send("k", "keep", {"n": 42})
        sim.run()
        a.send("k", "keep", {"n": 43})
        sim.run()
        first, second = k.held
        assert first is not second
        assert first.payload == {"n": 42}
        assert second.payload == {"n": 43}
        assert first.msg_id < second.msg_id

    def test_rpc_reply_value_survives_delivery(self, sim):
        net, a, b = make_pair(sim, ConstantDelay(1.0))
        fut = a.call("b", "ping", {"n": 7}, timeout=100.0)
        sim.run()
        reply = fut.value
        a.call("b", "ping", {"n": 8}, timeout=100.0)
        sim.run()
        assert reply["n"] == 7
        assert reply.reply_to is not None


class TestNetworkStats:
    def test_copy_is_independent(self, sim):
        net, a, b = make_pair(sim)
        a.send("b", "data", {"n": 1})
        sim.run()
        snap = net.stats.copy()
        assert snap.total_messages == 1
        assert snap.by_kind["data"] == 1
        a.send("b", "data", {"n": 2})
        sim.run()
        # later traffic must not leak into the earlier snapshot
        assert snap.total_messages == 1
        assert snap.by_kind["data"] == 1
        assert net.stats.total_messages == 2
        # nor may mutating the copy touch the live stats
        snap.by_kind["data"] += 10
        assert net.stats.by_kind["data"] == 2

    def test_diff_yields_counters_since_snapshot(self, sim):
        net, a, b = make_pair(sim)
        a.send("b", "data", {"n": 1})
        sim.run()
        before = net.stats.copy()
        a.send("b", "data", {"n": 2})
        a.send("b", "ping", {"n": 3})
        sim.run()
        delta = net.stats.diff(before)
        assert delta.total_messages == 3  # data + ping + ping's reply
        assert delta.by_kind["data"] == 1
        assert delta.by_kind["ping"] == 1
        assert delta.by_pair[("a", "b")] == 2
        # no phantom negative/zero-count keys from the subtraction
        assert all(v > 0 for v in delta.by_kind.values())

    def test_diff_of_drops(self, sim):
        net, a, b = make_pair(sim)
        before = net.stats.copy()
        token = net.partition(["a"], ["b"])
        a.send("b", "data", {"n": 1})
        sim.run()
        delta = net.stats.diff(before)
        assert delta.dropped == 1
        assert delta.total_messages == 1  # sends are recorded, then dropped
        net.heal(token)


class TestRngStreamIsolation:
    """Per-purpose RNG streams: enabling a fault lane must never shift
    the draws of another lane (the golden determinism contract in the
    module docstring).  Before the split, a single shared ``sim.rng``
    meant e.g. ``duplicate_probability=0.0001`` consumed a dup draw per
    message and thereby reshuffled every later delivery delay."""

    def _delivery_times(self, **net_kwargs):
        sim = Simulator(seed=7)
        net, a, b = make_pair(
            sim, delay_model=JitteredDelay(ConstantDelay(10.0), 8.0), **net_kwargs
        )
        for n in range(30):
            a.send("b", "data", {"n": n})
        sim.run()
        return b.received

    def test_fault_flag_noop_is_byte_identical(self):
        """Setting a fault probability that never fires (or a window
        that can't fire) leaves the whole trace untouched."""
        baseline = self._delivery_times()
        assert baseline == self._delivery_times(duplicate_probability=1e-12)
        assert baseline == self._delivery_times(loss_probability=1e-12)

    def test_loss_preserves_survivor_delays(self):
        """With real loss, every *surviving* message is delivered at
        exactly the delay the lossless run gave it — loss filters the
        trace, it does not reshuffle it."""
        baseline = {n: t for t, n in self._delivery_times()}
        lossy = self._delivery_times(loss_probability=0.3)
        assert 0 < len(lossy) < len(baseline)
        for t, n in lossy:
            assert baseline[n] == t

    def test_duplication_preserves_primary_delays(self):
        """Duplicate copies draw from the dup stream; every primary
        delivery still happens at exactly its lossless-run instant (the
        duplicates are pure additions to the trace)."""
        from collections import Counter

        baseline = Counter(self._delivery_times())
        duped = Counter(self._delivery_times(duplicate_probability=0.4))
        assert sum(duped.values()) > 30
        missing = baseline - duped
        assert not missing, f"primary deliveries perturbed: {missing}"

    def test_streams_are_seed_derived(self):
        """Same seed, same trace; different seed, different trace."""
        assert self._delivery_times() == self._delivery_times()
        sim = Simulator(seed=8)
        net, a, b = make_pair(sim, delay_model=JitteredDelay(ConstantDelay(10.0), 8.0))
        for n in range(30):
            a.send("b", "data", {"n": n})
        sim.run()
        assert b.received != self._delivery_times()
