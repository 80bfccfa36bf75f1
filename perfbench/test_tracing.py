"""Self-test of the tracing wrappers; runs in about a second.

    python3 -m pytest -q perfbench/test_tracing.py
"""

import itertools
import types

import pytest

from tracing import Tracer, has_ancestor, self_times


def _toy_modules():
    lib = types.ModuleType("toy_lib")

    def leaf(x):
        return x + 1

    def middle(x):
        return lib.leaf(x) + lib.leaf(x)

    def outer(x):
        return user.middle_alias(x) * 2

    lib.leaf, lib.middle, lib.outer = leaf, middle, outer

    class Box:
        def size(self, rows):
            return len(rows)

    lib.Box = Box
    user = types.ModuleType("toy_user")  # binds middle under another name
    user.middle_alias = middle
    return lib, user


def _fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def _traced(lib, user):
    tracer = Tracer(run_names=("lib.outer",), clock=_fake_clock())
    tracer.patch(lib, "leaf", "lib.leaf", aliases=[user])
    tracer.patch(lib, "middle", "lib.middle", aliases=[user])
    tracer.patch(lib, "outer", "lib.outer", aliases=[user])
    tracer.patch(lib.Box, "size", "lib.size", count=lambda a, out: out, aliases=[user])
    return tracer


def test_restore_puts_back_every_original():
    lib, user = _toy_modules()
    originals = (lib.leaf, lib.middle, lib.outer, user.middle_alias, vars(lib.Box)["size"])
    tracer = _traced(lib, user)
    assert user.middle_alias is lib.middle is not originals[1]
    assert lib.outer(1) == 8
    tracer.restore()
    restored = (lib.leaf, lib.middle, lib.outer, user.middle_alias, vars(lib.Box)["size"])
    assert all(a is b for a, b in zip(originals, restored))
    n = len(tracer.spans)
    lib.outer(1)
    assert len(tracer.spans) == n


def test_spans_nest_and_self_times_sum_to_parent():
    lib, user = _toy_modules()
    tracer = _traced(lib, user)
    try:
        with tracer.span("bench.root") as root:
            lib.outer(1)
            lib.outer(2)
            assert lib.Box().size([1, 2, 3]) == 3
    finally:
        tracer.restore()
    spans = tracer.spans
    names = [s.name for s in spans]
    assert names == [
        "bench.root",
        "lib.outer", "lib.middle", "lib.leaf", "lib.leaf",
        "lib.outer", "lib.middle", "lib.leaf", "lib.leaf",
        "lib.size",
    ]
    parents = [s.parent for s in spans]
    assert parents == [None, 0, 1, 2, 2, 0, 5, 6, 6, 0]
    assert all(spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end
               for s in spans if s.parent is not None)
    assert [s.run for s in spans] == [0, 1, 1, 1, 1, 2, 2, 2, 2, 0]
    assert spans[-1].count == 3
    assert has_ancestor(spans, 3, "lib.outer") and not has_ancestor(spans, 9, "lib.outer")

    own = self_times(spans)
    assert all(t >= 0 for t in own)
    for i, s in enumerate(spans):  # own time plus children's time is the span
        kids = sum(c.duration for c in spans if c.parent == i)
        assert own[i] + kids == pytest.approx(s.duration)
    assert sum(own) == pytest.approx(root.duration)


def test_exception_closes_span_and_propagates():
    lib, user = _toy_modules()
    tracer = Tracer(clock=_fake_clock())
    tracer.patch(lib, "leaf", "lib.leaf")
    try:
        with pytest.raises(TypeError):
            lib.leaf("x")
        with tracer.span("after"):
            pass
    finally:
        tracer.restore()
    assert [s.parent for s in tracer.spans] == [None, None]
    assert tracer.spans[0].end > tracer.spans[0].start
