"""Unit tests for shared utilities and the exception hierarchy."""

import pytest

from repro import errors
from repro.obs import MetricsRegistry
from repro.util import IdGenerator, check_identifier, check_positive, check_probability, human_size
from repro.util.tally import LabelCounts


class TestLabelCounts:
    def test_a_keys_first_count_binds_its_series(self):
        registry = MetricsRegistry()
        by_fault = LabelCounts(registry.counter_family("chaos.injected", ("fault",)))
        by_route = LabelCounts(
            registry.counter_family("gateway.routed_bytes", ("shard", "direction"))
        )
        assert registry.snapshot()["counters"] == {}
        by_fault["drop"] += 1
        by_fault["drop"] += 2
        by_route["shard-1", "to_client"] += 40
        assert by_fault.get("corrupt", 0) == 0  # reading with get binds nothing
        assert registry.snapshot()["counters"] == {
            'chaos.injected{fault="drop"}': 3,
            'gateway.routed_bytes{shard="shard-1",direction="to_client"}': 40,
        }


class TestIdGenerator:
    def test_per_prefix_counters(self):
        gen = IdGenerator()
        assert gen.next("room") == "room-1"
        assert gen.next("room") == "room-2"
        assert gen.next("session") == "session-1"

    def test_reset(self):
        gen = IdGenerator()
        gen.next("x")
        gen.reset()
        assert gen.next("x") == "x-1"

    def test_fresh_generators_restart(self):
        assert IdGenerator().next("a") == IdGenerator().next("a")

    def test_default_generator_is_unnamespaced(self):
        # Single-server deployments keep the paper's bare ids.
        assert IdGenerator().next("room") == "room-1"

    def test_namespaced_ids_carry_the_node(self):
        gen = IdGenerator(namespace="shard-1")
        assert gen.next("session") == "shard-1:session-1"
        assert gen.next("session") == "shard-1:session-2"

    def test_namespaced_generators_cannot_collide(self):
        # The cluster bug this guards: two InteractionServers both minting
        # "session-1" would collide in the gateway's routing table.
        first = IdGenerator(namespace="shard-1")
        second = IdGenerator(namespace="shard-2")
        minted = [first.next("session") for _ in range(50)]
        minted += [second.next("session") for _ in range(50)]
        assert len(set(minted)) == len(minted)

    def test_thread_safety(self):
        import threading

        gen = IdGenerator()
        seen = []

        def worker():
            for _ in range(200):
                seen.append(gen.next("t"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(seen)) == 800


class TestValidation:
    def test_identifier_ok(self):
        assert check_identifier("imaging.ct-1_x") == "imaging.ct-1_x"

    def test_identifier_bad(self):
        with pytest.raises(ValueError):
            check_identifier("1leading-digit")
        with pytest.raises(ValueError):
            check_identifier("")
        with pytest.raises(ValueError):
            check_identifier("with space")
        with pytest.raises(TypeError):
            check_identifier(5)

    def test_positive(self):
        assert check_positive(2.5) == 2.5
        for bad in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_positive(bad)
        with pytest.raises(TypeError):
            check_positive(True)
        with pytest.raises(TypeError):
            check_positive("2")

    def test_probability(self):
        assert check_probability(0) == 0.0
        assert check_probability(1) == 1.0
        with pytest.raises(ValueError):
            check_probability(1.1)
        with pytest.raises(TypeError):
            check_probability("0.5")


class TestHumanSize:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, "0 B"), (1023, "1023 B"), (1024, "1.0 KB"), (1536, "1.5 KB"),
         (1024**2, "1.0 MB"), (4 * 1024**3, "4.0 GB")],
    )
    def test_rendering(self, value, expected):
        assert human_size(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            human_size(-1)


class TestErrorHierarchy:
    def test_all_under_root(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name

    def test_key_lookups_catchable_both_ways(self):
        # UnknownVariableError is both a library error and a KeyError.
        with pytest.raises(KeyError):
            raise errors.UnknownVariableError("x")
        with pytest.raises(errors.CPNetError):
            raise errors.UnknownVariableError("x")

    def test_unknown_variable_message_unquoted(self):
        try:
            raise errors.UnknownVariableError("no variable 'x'")
        except errors.UnknownVariableError as exc:
            assert str(exc) == "no variable 'x'"
