"""Tests of the span tracer and the self-time fold.

Run with ``python -m pytest e2ebench -q`` (they need no repro sources).
"""

from __future__ import annotations

import sys
import threading
import types

import pytest

from tracer import Span, Target, Tracer, dump_spans, fold, load_spans, union_length


def _span(layer, start, end, parent=None, op="op"):
    return Span(layer, op, parent, start, end)


class TestUnionLength:
    def test_disjoint_nested_and_overlapping(self):
        assert union_length([]) == 0.0
        assert union_length([(0, 1), (2, 3)]) == 2.0
        assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0
        assert union_length([(0, 4), (2, 6), (5, 7)]) == 7.0

    def test_touching_unsorted_and_empty_intervals(self):
        assert union_length([(3, 4), (0, 1), (1, 3)]) == 4.0
        assert union_length([(1, 1), (2, 1.5)]) == 0.0


class TestFold:
    def test_self_time_subtracts_union_of_children(self):
        root = _span("a", 0.0, 10.0)
        # two children overlap (e.g. on two threads): covered once, 4 s
        kids = [_span("b", 1.0, 4.0, root), _span("b", 2.0, 5.0, root)]
        layers, attributed = fold([root, *kids])
        assert layers["a"].self_s == pytest.approx(6.0)
        assert layers["b"].self_s == pytest.approx(6.0)
        assert root.data["self_s"] == pytest.approx(6.0)
        assert attributed == pytest.approx(12.0)

    def test_children_are_clipped_to_the_parent(self):
        root = _span("a", 0.0, 2.0)
        late = _span("b", 1.0, 3.0, root)
        layers, _ = fold([root, late])
        assert layers["a"].self_s == pytest.approx(1.0)

    def test_recursion_counted_once(self):
        outer = _span("a", 0.0, 10.0)
        inner = _span("a", 1.0, 9.0, outer)
        innermost = _span("a", 2.0, 3.0, inner)
        other = _span("b", 4.0, 6.0, inner)
        deeper = _span("a", 4.5, 5.0, other)
        layers, attributed = fold([outer, inner, innermost, other, deeper])
        assert layers["a"].calls == 1
        assert layers["b"].calls == 1
        assert layers["a"].busy_s == pytest.approx(10.0)
        # nested spans of one timeline add up to the top-level span
        assert attributed == pytest.approx(10.0)
        assert layers["a"].self_s + layers["b"].self_s == pytest.approx(10.0)

    def test_dump_round_trip_keeps_parents(self):
        root = _span("a", 0.0, 4.0)
        kid = _span("b", 1.0, 2.0, root)
        kid.data["configs"] = 7
        loaded = load_spans(dump_spans([kid, root]))
        assert loaded[0].parent is loaded[1]
        assert loaded[0].data == {"configs": 7}
        assert fold(loaded)[1] == pytest.approx(4.0)


@pytest.fixture
def fake_modules():
    """A defining module, a module that imported its function by name,
    and a class with a method — all named like repro modules."""
    home = types.ModuleType("repro_e2e_home")
    user = types.ModuleType("repro_e2e_user")

    def work(n):
        return n + 1

    def recurse(n):
        return 0 if n == 0 else 1 + home.recurse(n - 1)

    class Engine:
        def run(self, n):
            return user.work(n) * 2

    home.work, home.recurse, home.Engine = work, recurse, Engine
    user.work = work
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    yield home, user
    del sys.modules[home.__name__], sys.modules[user.__name__]


class TestTracer:
    def test_wrappers_reach_aliases_and_restore_originals(self, fake_modules):
        home, user = fake_modules
        originals = (home.work, user.work, home.Engine.__dict__["run"])
        tracer = Tracer([
            Target(home, "work", "home"),
            Target(home.Engine, "run", "engine"),
        ])
        with tracer:
            assert home.work is not originals[0]
            assert user.work is not originals[1]
            assert home.Engine().run(1) == 4
        assert (home.work, user.work, home.Engine.__dict__["run"]) == originals
        assert home.work is originals[0] and user.work is originals[1]
        assert [s.layer for s in tracer.spans] == ["home", "engine"]
        assert tracer.spans[0].parent is tracer.spans[1]

    def test_restores_after_an_exception(self, fake_modules):
        home, _ = fake_modules
        original = home.work
        tracer = Tracer([Target(home, "work", "home")])
        with pytest.raises(TypeError):
            with tracer:
                home.work("not a number")
        assert home.work is original
        assert len(tracer.spans) == 1

    def test_recursive_calls_fold_to_one_call(self, fake_modules):
        home, _ = fake_modules
        tracer = Tracer([Target(home, "recurse", "home")])
        with tracer:
            assert home.recurse(5) == 5
        layers, attributed = fold(tracer.spans)
        outer = max(tracer.spans, key=lambda s: s.end - s.start)
        assert len(tracer.spans) == 6
        assert layers["home"].calls == 1
        assert attributed == pytest.approx(outer.end - outer.start)

    def test_parent_chain_is_per_thread_with_explicit_links(self, fake_modules):
        home, _ = fake_modules
        key = lambda args, kwargs: args[0]  # noqa: E731
        tracer = Tracer([
            Target(home, "recurse", "submit", link_to=key),
            Target(home, "work", "pool", link=key),
        ])
        with tracer:
            home.recurse(0)  # opens (and closes) a link_to span for key 0
            side = threading.Thread(target=home.work, args=(0,))
            side.start()
            side.join()
            other = threading.Thread(target=home.work, args=(99,))
            other.start()
            other.join()
        submit, linked, unlinked = tracer.spans
        assert linked.parent is submit
        assert unlinked.parent is None


class TestTimelineCheck:
    def _session(self):
        from session import Session

        session = Session(trace=False)
        session.windows = [(0.0, 10.0, 1), (20.0, 30.0, 2)]
        return session

    def test_spans_inside_windows_pass(self):
        session = self._session()
        session.check_timeline([_span("a", 1.0, 9.0), _span("a", 20.0, 30.0)], 0.0)
        assert (session.attempted, session.failed) == (2, 0)

    def test_span_outside_every_window_fails(self):
        session = self._session()
        # straddles the end of the first window
        session.check_timeline([_span("a", 9.0, 11.0)], 5.0)
        assert (session.attempted, session.failed) == (2, 1)

    def test_negative_remainder_fails(self):
        session = self._session()
        session.check_timeline([_span("a", 1.0, 2.0)], -0.5)
        assert (session.attempted, session.failed) == (2, 1)
