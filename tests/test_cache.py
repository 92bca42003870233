"""On-disk cache behaviour: exact round-trips, hits, and soundness."""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab import cache, limits
from torsionlab.engine import run_source
from torsionlab.errors import AbortedError, InputError
from torsionlab.fields import GF, QQ
from torsionlab.groebner import groebner_basis, ideal_groebner_basis, syzygy_generators
from torsionlab.limits import current, run_scope
from torsionlab.poly import FreeElement
from torsionlab.syntax import parse_polynomial


SCRIPT = (
    "ring R = GF(5)[x,y] / (x*y) with minimal_primes [(x),(y)] reduced ci;\n"
    "module M = coker [[x]] over R;\n"
    "assert torsion_free(tensor_power(M, 2));\n"
    "verify carrier M;\n"
)


def cache_in(directory):
    return run_scope(cache=cache.ComputationCache(str(directory)))


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


@st.composite
def elements_to_encode(draw):
    """A vector with unreduced coefficients, as the codec may meet them:
    over GF(p) negative and multi-digit ints, over QQ fractions with
    multi-digit numerators and denominators; ranks up to 12, so that
    positions 9 and 10 sort against each other."""
    field = draw(st.sampled_from([GF(7), GF(32003), QQ]))
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 12))
    if field.characteristic:
        coefficient = st.integers(-(10**6), 10**6).filter(bool)
    else:
        coefficient = st.builds(
            Fraction, st.integers(-(10**6), 10**6).filter(bool), st.integers(1, 10**4)
        )
    term = st.tuples(
        st.integers(0, rank - 1),
        st.tuples(*[st.integers(0, 12)] * nvars),
    )
    terms = draw(st.dictionaries(term, coefficient, max_size=8))
    return FreeElement(field, nvars, rank, terms, _normalized=True)


class TestElementText:
    @given(elements_to_encode())
    @settings(max_examples=200, deadline=None)
    def test_element_text_is_the_canonical_json_of_the_encoding(self, element):
        expected = cache._canonical(cache.encode_element(element))
        assert cache.element_text(element) == expected

    def test_generators_sort_by_text_with_positions_9_and_10(self, tmp_path):
        # "[10," sorts before "[9,": the request sorts texts, not numbers
        field = GF(7)
        gens = [
            FreeElement.unit(field, 1, 11, 9),
            FreeElement.unit(field, 1, 11, 10),
        ]
        with cache_in(tmp_path):
            request = cache.groebner_request(field, 1, 11, gens)
        entry = json.loads(request.head + "null}")
        assert entry["request"]["generators"] == [[[10, [0], 1]], [[9, [0], 1]]]


class TestCacheStore:
    def test_groebner_result_identical_between_cold_and_warm(self, tmp_path):
        gens = [
            parse_polynomial("x^2", ("x", "y"), QQ),
            parse_polynomial("x*y + y^2", ("x", "y"), QQ),
        ]
        with cache_in(tmp_path) as settings:
            cold = ideal_groebner_basis(list(gens))
            warm = ideal_groebner_basis(list(gens))
        assert [g.terms for g in warm] == [g.terms for g in cold]
        assert settings.cache.hits >= 1

    def test_entries_are_content_addressed_files(self, tmp_path):
        with cache_in(tmp_path):
            ideal_groebner_basis([parse_polynomial("x", ("x", "y"), GF(5))])
        entries = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert entries
        body = json.loads((tmp_path / entries[0]).read_text())
        assert body["format"] == 1
        canonical = json.dumps(body["request"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == entries[0][:-5]

    @pytest.mark.parametrize("case", ["GF(7) ideal", "QQ rank 2", "QQ syzygies"])
    def test_entries_match_the_payload_encoding_byte_for_byte(self, tmp_path, case):
        if case == "GF(7) ideal":
            field, rank = GF(7), 1
            texts = [["x^3 - 2*y^2*z"], ["y*z + 3*x^2"], ["x*y - z^2"], ["3*y*z - x^2"]]
        else:
            field, rank = QQ, 2
            texts = [["x^2 - 1/3*y*z", "0"], ["-5/2*z", "y - x"], ["0", "x*y + 7*z^2"]]
        names = ("x", "y", "z")
        gens = [
            FreeElement.from_components(
                [parse_polynomial(t, names, field) for t in row], rank=rank
            )
            for row in texts
        ]
        if case == "QQ syzygies":
            # the request names the graph gens[i] (+) e_i in rank 2 + 3, and
            # the result holds the syzygies in rank 3
            op, total = "syzygies", rank + len(gens)
            requested = [
                g.embedded(total) + FreeElement.unit(field, 3, total, rank + i)
                for i, g in enumerate(gens)
            ]
            compute = syzygy_generators
            with cache_in(tmp_path) as settings:
                result = syzygy_generators(gens)
                again = syzygy_generators(gens)
            assert result and all(g.rank == len(gens) for g in result)
        else:
            op, total, requested = "groebner", rank, gens
            compute = groebner_basis
            with cache_in(tmp_path) as settings:
                result = list(groebner_basis(gens))
                again = groebner_basis(list(reversed(gens)))
        # the entry as written by encoding the request payload with json.dumps
        payload = {
            "op": op,
            "engine": cache.ENGINE_VERSION,
            "characteristic": field.characteristic,
            "nvars": 3,
            "rank": total,
            # the one term order; changing this text orphans every cache
            "order": {"kind": "degrevlex", "module": "position-over-term"},
            "generators": sorted(
                (cache.encode_element(g) for g in requested), key=json.dumps
            ),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        name = hashlib.sha256(canonical.encode("utf-8")).hexdigest() + ".json"
        body = json.dumps(
            {
                "format": cache.CACHE_FORMAT,
                "request": payload,
                "result": {"elements": [cache.encode_element(g) for g in result]},
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        assert sorted(os.listdir(tmp_path)) == sorted([name, cache.LOCK_NAME])
        assert (tmp_path / name).read_text(encoding="utf-8") == body
        # and the entry is found again
        assert settings.cache.hits == 1
        assert [g.terms for g in again] == [g.terms for g in result]
        # an entry written by json.dumps alone, as entries once were, is a hit
        written_by_json = tmp_path / "json"
        written_by_json.mkdir()
        (written_by_json / name).write_text(body, encoding="utf-8")
        with cache_in(written_by_json) as settings:
            warm = compute(gens)
        assert (settings.cache.hits, settings.cache.misses) == (1, 0)
        assert [g.terms for g in warm] == [g.terms for g in result]

    def test_syzygy_and_graph_basis_entries_stay_apart(self, tmp_path):
        columns = [
            FreeElement.from_components([parse_polynomial(t, ("x", "y"), QQ)])
            for t in ("x", "y", "x + y")
        ]
        graph = [
            col.embedded(4) + FreeElement.unit(QQ, 2, 4, 1 + i)
            for i, col in enumerate(columns)
        ]
        with cache_in(tmp_path) as settings:
            cold = syzygy_generators(columns)
            basis = groebner_basis(graph)
            warm = syzygy_generators(columns)
        entries = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        ops = sorted(
            json.loads((tmp_path / f).read_text(encoding="utf-8"))["request"]["op"]
            for f in entries
        )
        # one request text apart from its op, so two entries, and neither is
        # read in place of the other
        assert ops == ["groebner", "syzygies"]
        assert (settings.cache.hits, settings.cache.misses) == (1, 2)
        assert [(g.rank, g.terms) for g in warm] == [(g.rank, g.terms) for g in cold]
        # the graph basis also holds the elements leading in the column block
        assert len(basis) > len(cold)

    def test_one_lock_file_per_directory(self, tmp_path):
        ideals = [[parse_polynomial(f"x^{n} - y", ("x", "y"), QQ)] for n in range(1, 6)]
        with cache_in(tmp_path) as settings:
            for gens in ideals:
                ideal_groebner_basis(gens)
            names = sorted(os.listdir(tmp_path))
            hits = settings.cache.hits
            for gens in ideals:
                ideal_groebner_basis(gens)
        assert [n for n in names if n.endswith(".lock")] == [cache.LOCK_NAME]
        assert len([n for n in names if n.endswith(".json")]) == len(ideals)
        assert len(names) == len(ideals) + 1
        assert settings.cache.hits == hits + len(ideals)

    def test_corrupt_entry_is_ignored(self, tmp_path):
        gens = [parse_polynomial("x^2 - y", ("x", "y"), QQ)]
        with cache_in(tmp_path):
            first = ideal_groebner_basis(list(gens))
            for name in os.listdir(tmp_path):
                if name.endswith(".json"):
                    (tmp_path / name).write_text("{ not json")
            again = ideal_groebner_basis(list(gens))
        assert [g.terms for g in again] == [g.terms for g in first]

    def test_a_failed_write_is_an_input_error_and_leaves_no_temp_file(
        self, tmp_path
    ):
        store = cache.ComputationCache(str(tmp_path))
        request = cache.Request(store, '{"op":"test"}')
        # a directory where the entry goes: the rename fails
        (tmp_path / f"{request.digest}.json").mkdir()
        message = re.escape(f"cannot use cache directory {tmp_path}: ")
        with pytest.raises(InputError, match=message):
            store.put(request, "{}")
        assert sorted(os.listdir(tmp_path)) == [
            cache.LOCK_NAME,
            f"{request.digest}.json",
        ]


class TestRunSoundness:
    @pytest.mark.parametrize(
        "result",
        [
            "[]",
            "null",
            '{"elements":5}',
            '{"elements":[[]]}',
            '{"elements":[[[0,[1],1]]]}',  # one exponent for two variables
            '{"elements":[[[99,[1,0],1]]]}',  # a position past the rank
            '{"elements":[[[0,[1,-1],1]]]}',  # a negative exponent
            '{"elements":[[[0,[1,0],0]]]}',  # a zero coefficient over GF(5)
            '{"elements":[[[0,[1,0],[1,2]]]]}',  # a QQ coefficient over GF(5)
            '{"elements":[[[0,[1,0],1],[0,[1,0],2]]]}',  # a repeated term
        ],
    )
    def test_an_entry_whose_result_has_the_wrong_shape_is_a_miss(
        self, tmp_path, result
    ):
        # each entry keeps its request, so only the shape of its result
        # can tell that it is not what this cache wrote
        with cache_in(tmp_path):
            cold = run_source(SCRIPT)
            for path in tmp_path.glob("*.json"):
                body = path.read_text(encoding="utf-8")
                head = body[: body.index('"result":') + len('"result":')]
                path.write_text(head + result + "}", encoding="utf-8")
            again = run_source(SCRIPT)
            # the misses stored their results again
            assert run_source(SCRIPT).cache_misses == 0
        assert again.to_json(include_timing=False) == cold.to_json(
            include_timing=False
        )
        assert (again.cache_hits, again.cache_misses) == (
            cold.cache_hits,
            cold.cache_misses,
        )

    def test_report_identical_with_and_without_cache(self, tmp_path):
        baseline = run_source(SCRIPT).to_json(include_timing=False)
        with cache_in(tmp_path / "cache"):
            cold = run_source(SCRIPT)
            warm = run_source(SCRIPT)
        assert cold.to_json(include_timing=False) == baseline
        assert warm.to_json(include_timing=False) == baseline
        assert warm.cache_hits > 0

    def test_deleting_the_cache_reproduces_certificates(self, tmp_path):
        with cache_in(tmp_path / "cache"):
            first = run_source(SCRIPT).to_json(include_timing=False)
            for name in os.listdir(tmp_path / "cache"):
                os.unlink(tmp_path / "cache" / name)
            second = run_source(SCRIPT).to_json(include_timing=False)
        assert first == second

    def test_a_cache_directory_removed_during_a_run_is_an_input_error(
        self, tmp_path
    ):
        # the store cannot reach the directory: the statement records the
        # error that opening an unusable directory gives, no raw OSError
        directory = tmp_path / "cache"
        with cache_in(directory):
            directory.rmdir()
            report = run_source(
                "ring R = GF(5)[x,y,z];\n"
                "module K = coker [[x],[y],[z]] over R;\n"
                "print nu(torsion(tensor_power(K, 2)));\n"
            )
        assert [r.status for r in report.results] == ["ok", "ok", "error"]
        assert report.results[-1].summary.startswith(
            f"InputError: cannot use cache directory {directory}: "
        )

    def test_run_leaves_no_cache_active(self):
        with tempfile.TemporaryDirectory() as directory, cache_in(directory):
            run_source(SCRIPT)
        assert current().cache is None
        # the run's cache directory is gone: a later computation must not
        # try to write into it
        basis = ideal_groebner_basis([parse_polynomial("x^2 - y", ("x", "y"), QQ)])
        assert len(basis.elements) == 1

    def test_run_restores_the_caller_cache(self, tmp_path):
        with cache_in(tmp_path / "outer") as settings:
            run_source(SCRIPT)
            assert current().cache is settings.cache

    def test_runs_use_the_cache_of_the_enclosing_scope(self, tmp_path):
        with cache_in(tmp_path / "shared") as settings:
            cold = run_source(SCRIPT)
            warm = run_source(SCRIPT)
        # each report counts its own run; the cache counts both
        assert cold.cache_misses > 0 and warm.cache_hits > 0
        assert (settings.cache.hits, settings.cache.misses) == (
            cold.cache_hits + warm.cache_hits,
            cold.cache_misses + warm.cache_misses,
        )
        # a warm rerun with a separately opened cache counts the same
        with cache_in(tmp_path / "separate"):
            run_source(SCRIPT)
        with cache_in(tmp_path / "separate"):
            rerun = run_source(SCRIPT)
        assert (warm.cache_hits, warm.cache_misses) == (
            rerun.cache_hits,
            rerun.cache_misses,
        )

    def test_a_run_sets_no_setting_of_its_own(self):
        seen = []
        hook = lambda: seen.append(current()) or False  # noqa: E731
        with run_scope(degree_cap=40, abort_hook=hook) as outer:
            run_source(SCRIPT)
        # every step of the run read the caller's settings themselves
        assert seen and all(settings is outer for settings in seen)
        assert current().degree_cap == limits.DEFAULT_DEGREE_CAP


class TestCancellation:
    def test_abort_leaves_no_partial_cache_entries(self, tmp_path):
        counter = {"calls": 0}

        def hook():
            counter["calls"] += 1
            return counter["calls"] > 5

        with cache_in(tmp_path), run_scope(abort_hook=hook):
            with pytest.raises(AbortedError):
                ideal_groebner_basis(
                    [
                        parse_polynomial("x^4 - y^3 + x*y", ("x", "y"), QQ),
                        parse_polynomial("x^2*y^2 - x - 1", ("x", "y"), QQ),
                        parse_polynomial("y^4 + x^3*y", ("x", "y"), QQ),
                    ]
                )
        assert current().abort_hook is None
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_abort_hook_is_scoped_to_its_context(self):
        consulted = []

        scope = run_scope(abort_hook=lambda: consulted.append(1) or False)
        context = contextvars.copy_context()

        def run():
            # the scope is entered in the copied context and left open
            scope.__enter__()
            run_source(SCRIPT)

        context.run(run)
        # the run read the hook, and the hook did not outlive its context
        assert consulted
        assert current().abort_hook is None
        context.run(scope.__exit__, None, None, None)
        with run_scope(abort_hook=lambda: False) as outer:
            with run_scope(abort_hook=None):
                assert current().abort_hook is None
            assert current().abort_hook is outer.abort_hook
        assert current().abort_hook is None
