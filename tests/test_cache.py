"""On-disk cache behaviour: exact round-trips, hits, and soundness."""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import tempfile

import pytest

from torsionlab import cache, limits
from torsionlab.engine import ExecConfig, run_source
from torsionlab.fields import GF, QQ
from torsionlab.groebner import groebner_basis, ideal_groebner_basis
from torsionlab.orders import MonomialOrder
from torsionlab.poly import FreeElement
from torsionlab.syntax import parse_polynomial


SCRIPT = (
    "ring R = GF(5)[x,y] / (x*y) with minimal_primes [(x),(y)] reduced ci;\n"
    "module M = coker [[x]] over R;\n"
    "assert torsion_free(tensor_power(M, 2));\n"
    "verify carrier M;\n"
)


@pytest.fixture(autouse=True)
def no_active_cache():
    """Every test starts and ends without an active cache."""
    cache.deactivate()
    yield
    cache.deactivate()


class TestElementCodec:
    def test_rational_round_trip(self):
        p = parse_polynomial("3*x^2*y - 1/2*y", ("x", "y"), QQ)
        from torsionlab.poly import polynomial_to_element

        element = polynomial_to_element(p)
        encoded = cache.encode_element(element)
        decoded = cache.decode_element(encoded, QQ, 2, 1)
        assert decoded == element

    def test_prime_field_round_trip(self):
        p = parse_polynomial("x^2 + 4*y", ("x", "y"), GF(5))
        from torsionlab.poly import polynomial_to_element

        element = polynomial_to_element(p)
        encoded = json.loads(json.dumps(cache.encode_element(element)))
        decoded = cache.decode_element(encoded, GF(5), 2, 1)
        assert decoded == element


class TestCacheStore:
    def test_groebner_result_identical_between_cold_and_warm(self, tmp_path):
        gens = [
            parse_polynomial("x^2", ("x", "y"), QQ),
            parse_polynomial("x*y + y^2", ("x", "y"), QQ),
        ]
        cache.activate(str(tmp_path))
        cold = ideal_groebner_basis(list(gens))
        warm = ideal_groebner_basis(list(gens))
        assert [g.terms for g in warm] == [g.terms for g in cold]
        active = cache.active_cache()
        assert active.hits >= 1

    def test_entries_are_content_addressed_files(self, tmp_path):
        cache.activate(str(tmp_path))
        ideal_groebner_basis([parse_polynomial("x", ("x", "y"), GF(5))])
        entries = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert entries
        body = json.loads((tmp_path / entries[0]).read_text())
        assert body["format"] == 1
        canonical = json.dumps(body["request"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == entries[0][:-5]

    @pytest.mark.parametrize("case", ["GF(7) ideal", "QQ rank 2"])
    def test_entries_match_the_payload_encoding_byte_for_byte(self, tmp_path, case):
        if case == "GF(7) ideal":
            field, rank, order = GF(7), 1, MonomialOrder()
            texts = [["x^3 - 2*y^2*z"], ["y*z + 3*x^2"], ["x*y - z^2"], ["3*y*z - x^2"]]
        else:
            field, rank, order = QQ, 2, MonomialOrder(module="position-over-term")
            texts = [["x^2 - 1/3*y*z", "0"], ["-5/2*z", "y - x"], ["0", "x*y + 7*z^2"]]
        names = ("x", "y", "z")
        gens = [
            FreeElement.from_components(
                [parse_polynomial(t, names, field) for t in row], rank=rank
            )
            for row in texts
        ]
        cache.activate(str(tmp_path))
        basis = groebner_basis(gens, order)
        # the entry as written by encoding the request payload with json.dumps
        payload = {
            "op": "groebner",
            "engine": cache.ENGINE_VERSION,
            "characteristic": field.characteristic,
            "nvars": 3,
            "rank": rank,
            "order": order.describe(),
            "generators": sorted((cache.encode_element(g) for g in gens), key=json.dumps),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        name = hashlib.sha256(canonical.encode("utf-8")).hexdigest() + ".json"
        body = json.dumps(
            {
                "format": cache.CACHE_FORMAT,
                "request": payload,
                "result": {"elements": [cache.encode_element(g) for g in basis]},
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        assert sorted(os.listdir(tmp_path)) == sorted([name, cache.LOCK_NAME])
        assert (tmp_path / name).read_text(encoding="utf-8") == body
        # and the entry is found again
        again = groebner_basis(list(reversed(gens)), order)
        assert cache.active_cache().hits == 1
        assert [g.terms for g in again] == [g.terms for g in basis]

    def test_one_lock_file_per_directory(self, tmp_path):
        cache.activate(str(tmp_path))
        ideals = [[parse_polynomial(f"x^{n} - y", ("x", "y"), QQ)] for n in range(1, 6)]
        for gens in ideals:
            ideal_groebner_basis(gens)
        names = sorted(os.listdir(tmp_path))
        assert [n for n in names if n.endswith(".lock")] == [cache.LOCK_NAME]
        assert len([n for n in names if n.endswith(".json")]) == len(ideals)
        assert len(names) == len(ideals) + 1
        active = cache.active_cache()
        hits = active.hits
        for gens in ideals:
            ideal_groebner_basis(gens)
        assert active.hits == hits + len(ideals)

    def test_corrupt_entry_is_ignored(self, tmp_path):
        cache.activate(str(tmp_path))
        gens = [parse_polynomial("x^2 - y", ("x", "y"), QQ)]
        first = ideal_groebner_basis(list(gens))
        for name in os.listdir(tmp_path):
            if name.endswith(".json"):
                (tmp_path / name).write_text("{ not json")
        again = ideal_groebner_basis(list(gens))
        assert [g.terms for g in again] == [g.terms for g in first]


class TestRunSoundness:
    def test_report_identical_with_and_without_cache(self, tmp_path):
        baseline = run_source(SCRIPT, ExecConfig()).to_json(include_timing=False)
        cached_cfg = ExecConfig(cache_dir=str(tmp_path / "cache"))
        cold = run_source(SCRIPT, cached_cfg)
        warm = run_source(SCRIPT, cached_cfg)
        assert cold.to_json(include_timing=False) == baseline
        assert warm.to_json(include_timing=False) == baseline
        assert warm.cache_hits > 0

    def test_deleting_the_cache_reproduces_certificates(self, tmp_path):
        cfg = ExecConfig(cache_dir=str(tmp_path / "cache"))
        first = run_source(SCRIPT, cfg).to_json(include_timing=False)
        for name in os.listdir(tmp_path / "cache"):
            os.unlink(tmp_path / "cache" / name)
        second = run_source(SCRIPT, cfg).to_json(include_timing=False)
        assert first == second

    def test_run_leaves_no_cache_active(self):
        with tempfile.TemporaryDirectory() as directory:
            run_source(SCRIPT, ExecConfig(cache_dir=directory))
        assert cache.active_cache() is None
        # the run's cache directory is gone: a later computation must not
        # try to write into it
        basis = ideal_groebner_basis([parse_polynomial("x^2 - y", ("x", "y"), QQ)])
        assert len(basis.elements) == 1

    def test_run_restores_the_caller_cache(self, tmp_path):
        cache.activate(str(tmp_path / "outer"))
        outer = cache.active_cache()
        run_source(SCRIPT, ExecConfig(cache_dir=str(tmp_path / "inner")))
        assert cache.active_cache() is outer

    def test_run_leaves_the_degree_cap_alone(self):
        run_source(SCRIPT, ExecConfig(degree_cap=3))
        assert limits.degree_cap() == limits.DEFAULT_DEGREE_CAP

    def test_env_var_activation(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "envcache"))
        run_source(SCRIPT, ExecConfig())
        assert os.path.isdir(tmp_path / "envcache")
        assert os.listdir(tmp_path / "envcache")


class TestCancellation:
    def test_abort_leaves_no_partial_cache_entries(self, tmp_path):
        from torsionlab.errors import AbortedError
        from torsionlab.limits import set_abort_hook

        cache.activate(str(tmp_path))
        counter = {"calls": 0}

        def hook():
            counter["calls"] += 1
            return counter["calls"] > 5

        set_abort_hook(hook)
        try:
            with pytest.raises(AbortedError):
                ideal_groebner_basis(
                    [
                        parse_polynomial("x^4 - y^3 + x*y", ("x", "y"), QQ),
                        parse_polynomial("x^2*y^2 - x - 1", ("x", "y"), QQ),
                        parse_polynomial("y^4 + x^3*y", ("x", "y"), QQ),
                    ]
                )
        finally:
            set_abort_hook(None)
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_abort_hook_is_scoped_to_its_context(self):
        consulted = []

        def run():
            limits.set_abort_hook(lambda: consulted.append(1) or False)
            run_source(SCRIPT, ExecConfig())

        contextvars.copy_context().run(run)
        # the run read the hook, and the hook did not outlive its context
        assert consulted
        assert limits.abort_hook() is None
        outer = limits.set_abort_hook(lambda: False)
        hook = limits.abort_hook()
        inner = limits.set_abort_hook(None)
        assert limits.abort_hook() is None
        limits.reset_abort_hook(inner)
        assert limits.abort_hook() is hook
        limits.reset_abort_hook(outer)
        assert limits.abort_hook() is None
