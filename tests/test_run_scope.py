"""Run-scoped settings: one ``run_scope`` for the degree cap, the abort hook
and the cache."""

from __future__ import annotations

import pytest

from torsionlab import cache
from torsionlab.errors import InputError, ResourceLimitError
from torsionlab.fields import GF
from torsionlab.groebner import Completion
from torsionlab.limits import DEFAULT_DEGREE_CAP, RunSettings, current, run_scope
from torsionlab.poly import polynomial_to_element
from torsionlab.syntax import parse_polynomial


def hook():
    return False


class TestRunScope:
    def test_defaults_outside_every_scope(self):
        assert current() == RunSettings()
        assert current().degree_cap == DEFAULT_DEGREE_CAP
        assert current().abort_hook is None and current().cache is None

    def test_settings_are_frozen(self):
        with pytest.raises(AttributeError):
            current().degree_cap = 3

    def test_unnamed_fields_are_inherited(self, tmp_path):
        store = cache.ComputationCache(str(tmp_path))
        with run_scope(abort_hook=hook, cache=store):
            with run_scope(degree_cap=5) as inner:
                assert inner is current()
                assert inner == RunSettings(5, hook, store)
            with run_scope(cache=None):
                assert current() == RunSettings(DEFAULT_DEGREE_CAP, hook, None)

    def test_nested_scopes_restore_the_outer_settings_on_exit(self):
        with run_scope(degree_cap=7, abort_hook=hook) as outer:
            with run_scope(degree_cap=3):
                with run_scope(abort_hook=None):
                    assert current() == RunSettings(3, None, None)
                assert current() == RunSettings(3, hook, None)
            assert current() is outer
        assert current() == RunSettings()

    def test_nested_scopes_restore_the_outer_settings_when_the_block_raises(self):
        with run_scope(degree_cap=7) as outer:
            with pytest.raises(ZeroDivisionError):
                with run_scope(degree_cap=3, abort_hook=hook):
                    with run_scope(degree_cap=2):
                        1 / 0
            assert current() is outer
        assert current() == RunSettings()

    def test_a_cap_below_one_is_refused_and_changes_nothing(self):
        with run_scope(degree_cap=9, abort_hook=hook) as outer:
            for cap in (0, -1):
                with pytest.raises(InputError, match="degree cap must be positive"):
                    with run_scope(degree_cap=cap, abort_hook=None):
                        pass  # pragma: no cover - never entered
                assert current() is outer
        assert current() == RunSettings()

    def test_an_unknown_setting_is_refused(self):
        with pytest.raises(TypeError):
            with run_scope(trace_file="out.jsonl"):
                pass  # pragma: no cover - never entered
        assert current() == RunSettings()


def completion_of(texts):
    """A ``Completion`` over GF(7)[x,y] with the given generators added;
    ``complete`` takes them in and queues their pairs."""
    state = Completion(GF(7), 2, 1, "completion test")
    for text in texts:
        poly = parse_polynomial(text, ("x", "y"), GF(7))
        state.add(polynomial_to_element(poly).terms)
    return state


class TestCompletionReadsTheCurrentScope:
    GENS = ("x^2*y + y^3", "x^3 + y^3")

    @pytest.mark.parametrize("made_under", [DEFAULT_DEGREE_CAP, 3])
    def test_complete_uses_the_cap_of_its_own_scope(self, made_under):
        # the S-polynomial x*y^3 - y^4 passes cap 3 at degree 4, wherever
        # the state was made
        with run_scope(degree_cap=made_under):
            state = completion_of(self.GENS)
        with run_scope(degree_cap=3):
            with pytest.raises(ResourceLimitError) as info:
                state.complete()
        assert str(info.value) == (
            "term degree 4 exceeds the degree cap 3 in the S-polynomials of "
            "completion test (2 variables, rank 1, generators: 2)"
        )
