"""Annotation registry tests."""

import random

import pytest

from repro.instrument import AnnotationRegistry


@pytest.fixture
def registry():
    return AnnotationRegistry()


class TestRegistry:
    def test_hint_creates_type(self, registry):
        annotation = registry.pm_sync_var_hint("lock", 8, 0)
        assert annotation.name == "lock"
        assert annotation.size == 8
        assert annotation.init_val == 0

    def test_hint_idempotent(self, registry):
        first = registry.pm_sync_var_hint("lock", 8, 0)
        again = registry.pm_sync_var_hint("lock", 8, 0)
        assert first is again
        assert registry.annotation_count == 1

    def test_register_and_lookup(self, registry):
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 128)
        assert registry.lookup(128, 8).name == "lock"

    def test_lookup_overlapping_range(self, registry):
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 128)
        # a store covering [120, 136) touches the annotated byte
        assert registry.lookup(120, 16) is not None

    def test_lookup_miss(self, registry):
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 128)
        assert registry.lookup(256, 8) is None

    def test_unregister(self, registry):
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 128)
        registry.unregister_instance(128)
        assert registry.lookup(128, 8) is None

    def test_unregister_unknown_ok(self, registry):
        registry.unregister_instance(999)

    def test_unknown_type_raises(self, registry):
        with pytest.raises(KeyError):
            registry.register_instance("nope", 0)

    def test_multiple_types(self, registry):
        registry.pm_sync_var_hint("a", 8, 0)
        registry.pm_sync_var_hint("b", 8, 1)
        registry.register_instance("a", 0)
        registry.register_instance("b", 64)
        assert registry.annotation_count == 2
        assert registry.lookup(0, 8).name == "a"
        assert registry.lookup(64, 8).init_val == 1
        assert {a.name for a in registry.types()} == {"a", "b"}


def _byte_loop_lookup(by_addr, addr, size):
    """The oracle: probe every byte of the range, lowest first."""
    for offset in range(addr, addr + max(size, 1)):
        if offset in by_addr:
            return by_addr[offset]
    return None


@pytest.mark.parametrize("seed", range(6))
def test_lookup_matches_byte_loop(seed):
    """Randomized (seeded) interleavings of (un)registrations and
    lookups, including zero-size, range-edge and empty-registry probes:
    the bisection returns the byte loop's annotation every time."""
    rng = random.Random(seed)
    registry = AnnotationRegistry()
    names = ["a", "b", "c"]
    for index, name in enumerate(names):
        registry.pm_sync_var_hint(name, 8, index)
    model = {}
    space = rng.choice([64, 256, 1024])
    for _ in range(600):
        action = rng.random()
        if action < 0.15:
            addr = rng.randrange(space)
            name = rng.choice(names)
            registry.register_instance(name, addr)
            model[addr] = name
        elif action < 0.22 and model:
            addr = rng.choice(sorted(model))
            registry.unregister_instance(addr)
            del model[addr]
        elif action < 0.25:
            addr = rng.randrange(space)
            registry.unregister_instance(addr)
            model.pop(addr, None)
        else:
            addr = rng.randrange(-8, space + 8)
            size = rng.choice([0, 1, 2, 7, 8, 16, 64, rng.randrange(200)])
            expected = _byte_loop_lookup(model, addr, size)
            found = registry.lookup(addr, size)
            assert (found.name if found else None) == expected, \
                (addr, size)
