"""Span recording: self-time arithmetic and pass-through wrappers."""

import math
import types

import pytest

from pipebench.spans import Target, Tracer, installed, self_times
from pipebench.workloads import layer_targets


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _nested_trace():
    """outer [0, 10] -> a [1, 3], b [4, 8] -> c [5, 6]."""
    clock = FakeClock()
    tracer = Tracer(clock)

    def c():
        clock.now = 6.0

    def b():
        clock.now = 5.0
        traced_c()
        clock.now = 8.0

    def a():
        clock.now = 3.0

    def outer():
        clock.now = 1.0
        traced_a()
        clock.now = 4.0
        traced_b()
        clock.now = 10.0

    traced_c = tracer.wrap("c", c)
    traced_b = tracer.wrap("b", b)
    traced_a = tracer.wrap("a", a)
    tracer.wrap("outer", outer)()
    return tracer


def test_nested_spans_record_parents_and_self_time():
    tracer = _nested_trace()
    assert tracer.names == ["outer", "a", "b", "c"]
    assert tracer.parents == [-1, 0, 0, 2]
    assert list(zip(tracer.starts, tracer.ends)) == [(0, 10), (1, 3), (4, 8), (5, 6)]
    # Self time: duration minus what the children cover.
    assert self_times(tracer) == [10 - 2 - 4, 2, 4 - 1, 1]
    assert sum(self_times(tracer)) == 10


def test_wrapper_passes_arguments_results_and_errors_through():
    tracer = Tracer(FakeClock())
    payload = object()
    seen = []

    def callee(*args, **kwargs):
        seen.append((args, kwargs))
        return payload

    def failing():
        raise KeyError("boom")

    wrapped = tracer.wrap("x", callee, note=lambda args, kwargs, result: len(args))
    assert wrapped(1, 2, key=3) is payload
    assert seen == [((1, 2), {"key": 3})]
    assert tracer.notes == [2]
    with pytest.raises(KeyError):
        tracer.wrap("y", failing)()
    # The failed call still closes its span.
    assert tracer.names == ["x", "y"] and not math.isnan(tracer.ends[1])


def test_installed_wraps_methods_and_module_functions_then_restores():
    class Layer:
        def work(self, value):
            return [value]

    module = types.ModuleType("fake_layer")
    module.helper = lambda value: (value,)
    original_work, original_helper = Layer.__dict__["work"], module.helper
    tracer = Tracer(FakeClock())
    targets = [Target(Layer, "work", "layer.work"), Target(module, "helper", "layer.helper")]
    with installed(tracer, targets):
        result = Layer().work(7)
        assert result == [7]
        assert module.helper(7) == (7,)
    assert tracer.names == ["layer.work", "layer.helper"]
    assert Layer.__dict__["work"] is original_work and module.helper is original_helper

    with pytest.raises(RuntimeError), installed(tracer, targets):
        raise RuntimeError("restores on error too")
    assert Layer.__dict__["work"] is original_work and module.helper is original_helper


def test_layer_targets_exist_in_the_program_and_are_restored():
    targets = layer_targets()
    before = [target.owner.__dict__[target.attr] for target in targets]
    with installed(Tracer(), targets):
        for target, original in zip(targets, before):
            assert getattr(target.owner, target.attr).__wrapped__ is original
    assert [target.owner.__dict__[target.attr] for target in targets] == before
