"""torsionlab benchmark: time to a verified certificate through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``, so
nothing needs to be built or installed.  Workloads (closed loop, one client,
one op at a time, each op a fresh ``python -m torsionlab.cli`` process):

    panel         verify-suite paper --seed N --json F
    certify-cold  run SCRIPT --cache <fresh empty dir> --json F

SCRIPT is generated from the seed (see certify.py).  Every op is checked:
exit code 0, no traceback, every verdict a pass, and a report (timing block
removed) that matches the report pinned at the commit that added the
benchmark (``PINNED``) and, byte for byte, the first report of the run.
Traced runs of certify-cold also make one uncached run and take its report
as the run's reference, so cold, traced and uncached reports are compared.

With ``--trace 0`` the ops run untraced and the end-to-end metrics are
printed.  With ``--trace 1`` traced ops (tracer.py) alternate with
untraced ones and the per-layer metrics are printed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import certify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"

WORKLOADS = ("panel", "certify-cold")
PANEL_CRITERIA = 12
SETUP_REPEATS = 21

# sha256 of each workload's report, timing block removed, as the commit that
# added the benchmark wrote it.  The panel report is the same for every seed.
# The certify report is pinned with its seed-dependent text (the sequences
# and the script's hash) replaced by placeholders; see pinned_digest().
PINNED = {
    "panel": "34140a442b084a2a22d13855588d02b49fcb7c2a87f6990bc9219916526122c6",
    "certify-cold": "916cf4098331717d205cb96b796960ce4bdfc2afd5c8cf2935a2261dfdd10f8d",
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "groebner.groebner_basis.calls",
    "modules.dual_generators.gb_calls",
    "cache.hits",
    "cache.misses",
    "cache.dir_files",
)

SPAN_METRICS = (
    ("groebner.groebner_basis", ("calls", "self_s")),
    ("groebner.normal_form", ("calls", "self_s")),
    ("groebner.syzygy_generators", ("calls", "s")),
    ("modules.dual_generators", ("calls", "s", "self_s", "gb_calls")),
    ("modules.minimal", ("calls", "s", "self_s", "gb_calls")),
    ("modules.tensor", ("self_s",)),
    ("modules.kernel_of_map", ("s",)),
    ("modules.annihilator", ("s",)),
    ("rings.submodule_basis", ("calls", "s")),
    ("rings.syzygies", ("calls", "s")),
    ("torsion.torsion_split", ("calls", "s", "self_s")),
    ("torsion.alternating_tensor", ("calls", "s")),
    ("torsion.verify_koszul_tensor_powers", ("s",)),
    ("homology.free_resolution", ("calls", "s")),
    ("homology.tor", ("calls", "s")),
    ("homology.koszul_depth", ("s",)),
    ("frobenius.restrict_scalars", ("s",)),
    ("frobenius.tor_frobenius", ("s",)),
    ("frobenius.verify_frobenius_torsion_equivalence", ("s",)),
    ("cache.lookup_groebner", ("self_s",)),
    ("cache.store_groebner", ("self_s",)),
    ("script.parse_script", ("self_s",)),
    ("engine.execute", ("self_s",)),
)

CRITERIA = (
    "criterion-01-thm2.8-suite",
    "criterion-02-prop2.2-property",
    "criterion-03-node-regression",
    "criterion-04-thm2.10",
    "criterion-05-depth-tor",
    "criterion-06-carrier-panel",
    "criterion-07-twisted-flatness",
    "criterion-08-infinite-pd",
    "criterion-09-thm3.5",
    "criterion-10-cor3.7",
    "criterion-11-syzygy-oracle",
    "criterion-12-cli-determinism",
)

UNITS = {
    "calls": "count",
    "gb_calls": "count",
    "s": "s",
    "self_s": "s",
    "import_s": "s",
    "basis_elems": "count",
    "input_gens": "count",
    "hits": "count",
    "misses": "count",
    "hit_ratio": "ratio",
    "dir_bytes": "bytes",
    "dir_files": "count",
    "lock_files": "count",
    "coverage": "ratio",
    "overhead": "ratio",
}


# Stand-ins when no traced op succeeded; the run is then marked incorrect.
EMPTY_DIR = {"dir_bytes": 0, "dir_files": 0, "lock_files": 0}
EMPTY_STATS = {
    "spans": {},
    "groebner": {"calls": 0, "basis_elems": 0, "input_gens": 0, "buchberger_calls": 0},
    "import_s": 0.0,
}


class Failure(Exception):
    """An op whose output is wrong or whose process failed."""


class Op:
    def __init__(self, wall, rss_mb, exit_code, stderr):
        self.wall = wall
        self.rss_mb = rss_mb
        self.exit_code = exit_code
        self.stderr = stderr
        self.timing = None
        self.digest = None
        self.error = None
        self.stats = None
        self.cache_dir = dict(EMPTY_DIR)


class Bench:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("TORSIONLAB_CACHE", "PYTHONHASHSEED")
        }
        self.env["PYTHONPATH"] = str(SRC)
        self.script = workdir / "certify.tl"
        self.counter = 0

    def fresh_path(self, stem):
        self.counter += 1
        return self.workdir / f"{stem}-{self.counter}"

    # -- child processes -------------------------------------------------

    def spawn(self, argv):
        """Run one child to completion; wall time is spawn to exit."""
        err_path = self.fresh_path("stderr")
        with open(err_path, "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                cwd=self.workdir,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        err_path.unlink()
        return Op(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)

    def cli_args(self, json_path, cache_dir):
        if self.workload == "panel":
            return ["verify-suite", "paper", "--seed", str(self.seed), "--json", str(json_path)]
        args = ["run", str(self.script), "--json", str(json_path)]
        if cache_dir is not None:
            args += ["--cache", str(cache_dir)]
        return args

    def run_op(self, cache_dir, traced=False):
        """One op, checked on its own; the digest is compared later."""
        json_path = self.fresh_path("report").with_suffix(".json")
        args = self.cli_args(json_path, cache_dir)
        stats_path = self.fresh_path("stats").with_suffix(".json")
        if traced:
            argv = [sys.executable, str(TRACER), str(stats_path), *args]
        else:
            argv = [sys.executable, "-m", "torsionlab.cli", *args]
        op = self.spawn(argv)
        try:
            check_op(op, json_path, self.workload, self.seed)
            if traced:
                op.stats = json.loads(stats_path.read_text(encoding="utf-8"))
        except Failure as exc:
            op.error = str(exc)
        finally:
            for path in (json_path, stats_path):
                if path.exists():
                    path.unlink()
        if cache_dir is not None and cache_dir.is_dir():
            op.cache_dir = directory_stats(cache_dir)
        return op

    def cold_op(self, traced=False):
        cache_dir = self.fresh_path("cold-cache")
        cache_dir.mkdir()
        try:
            return self.run_op(cache_dir, traced)
        finally:
            shutil.rmtree(cache_dir)

    def timed_op(self, traced=False):
        if self.workload == "panel":
            return self.run_op(None, traced)
        return self.cold_op(traced)

    # -- set-up ----------------------------------------------------------

    def setup_once(self):
        """Generate the inputs and import the package once."""
        if self.workload != "panel":
            self.script.write_text(certify.certify_script(self.seed), encoding="utf-8")
        warm_up = self.spawn([sys.executable, "-c", "import torsionlab.cli, torsionlab.suite"])
        if warm_up.exit_code != 0:
            raise Failure(f"importing torsionlab failed: {warm_up.stderr.strip()[-300:]}")

    def setup(self):
        """Median wall time of SETUP_REPEATS set-ups."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def reference(self):
        """An uncached run, whose report every op of the workload must match.
        It costs as much as a cold op, so only traced runs make it."""
        if self.workload == "panel":
            return None
        return self.run_op(None)


def pinned_digest(report, workload, seed):
    """Digest of a report (timing removed) that is the same for every seed:
    the certify report has its sequences and input hash put back to
    placeholders.  Longer forms go first, so no form is cut out of another."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    if workload != "panel":
        text = text.replace(report["input_hash"], "<input_hash>")
        forms = sorted(enumerate(certify.sequence_forms(seed)), key=lambda f: -len(f[1]))
        for index, form in forms:
            text = text.replace(form.replace("*", " * "), f"<form {index}>")
            text = text.replace(form, f"<form {index}>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_op(op, json_path, workload, seed):
    if "Traceback (most recent call last)" in op.stderr:
        raise Failure("raw traceback: " + op.stderr.strip().splitlines()[-1])
    if op.exit_code != 0:
        raise Failure(f"exit code {op.exit_code}: {op.stderr.strip()[-300:]}")
    try:
        report = json.loads(json_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise Failure(f"no readable report: {exc}") from None
    timing = report.pop("timing", None) if isinstance(report, dict) else None
    if workload == "panel":
        passed = [entry.get("passed") for entry in report]
        if len(passed) != PANEL_CRITERIA or not all(passed):
            raise Failure(f"panel passed {sum(map(bool, passed))} of {len(passed)} criteria")
    else:
        bad = [s["summary"] for s in report["statements"] if s["status"] not in ("ok", "pass")]
        if report.get("exit_code") != 0 or bad:
            raise Failure(f"script statements failed: {bad}")
    if pinned_digest(report, workload, seed) != PINNED[workload]:
        raise Failure("report differs from the pinned report (timing stripped)")
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    op.digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    op.timing = timing


def directory_stats(path):
    files = [p for p in path.iterdir() if p.is_file()]
    return {
        "dir_bytes": sum(p.stat().st_size for p in files),
        "dir_files": len(files),
        "lock_files": sum(p.name.endswith(".lock") for p in files),
    }


def cache_counts(op):
    """Cache hits and misses from the report's timing block (none for panel)."""
    cache = (op.timing or {}).get("cache", {})
    return cache.get("hits", 0), cache.get("misses", 0)


def layer_metrics(traced, untraced):
    """Per-layer metrics of the traced ops: counts from the first, times
    as medians over all of them."""
    traced = [op for op in traced if op.stats is not None]
    untraced = [op for op in untraced if op.error is None]

    def span_value(stats, name, stat):
        return stats["spans"].get(name, {}).get(stat, 0)

    def timed(fn):
        return statistics.median(fn(op) for op in traced) if traced else 0.0

    first = traced[0].stats if traced else EMPTY_STATS
    values = {}
    for name, stats in SPAN_METRICS:
        for stat in stats:
            if stat in ("calls", "gb_calls"):
                values[f"{name}.{stat}"] = span_value(first, name, stat)
            else:
                values[f"{name}.{stat}"] = timed(lambda op: span_value(op.stats, name, stat))
    for ident in CRITERIA:
        values[f"suite.{ident}.s"] = timed(
            lambda op: span_value(op.stats, f"suite.{ident}", "s")
        )
    values["groebner.basis_elems"] = first["groebner"]["basis_elems"]
    values["groebner.input_gens"] = first["groebner"]["input_gens"]
    values["groebner.buchberger.calls"] = first["groebner"]["buchberger_calls"]
    hits, misses = cache_counts(traced[0]) if traced else (0, 0)
    values["cache.hits"] = hits
    values["cache.misses"] = misses
    values["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for key, count in (traced[0].cache_dir if traced else EMPTY_DIR).items():
        values[f"cache.{key}"] = count
    values["process.import_s"] = timed(lambda op: op.stats["import_s"])
    values["trace.coverage"] = timed(
        lambda op: (op.stats["import_s"] + sum(s["self_s"] for s in op.stats["spans"].values()))
        / op.wall
    )
    values["trace.overhead"] = (
        statistics.median(op.wall for op in traced)
        / statistics.median(op.wall for op in untraced)
        - 1.0
        if traced and untraced
        else 0.0
    )
    return values


def exact_count_mismatches(traced):
    def counts(op):
        values = {
            "groebner.groebner_basis.calls": op.stats["groebner"]["calls"],
            "modules.dual_generators.gb_calls": op.stats["spans"]
            .get("modules.dual_generators", {})
            .get("gb_calls", 0),
            "cache.dir_files": op.cache_dir["dir_files"],
        }
        values["cache.hits"], values["cache.misses"] = cache_counts(op)
        return values

    first = counts(traced[0])
    return [
        f"{key}: {first[key]} != {other[key]}"
        for op in traced[1:]
        for other in [counts(op)]
        for key in EXACT_COUNTS
        if first[key] != other[key]
    ]


def unit_of(name):
    return UNITS[name.rsplit(".", 1)[1]]


def environment(bench):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        source.update(path.read_bytes())
    info = {
        "workload": bench.workload,
        "seed": bench.seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cpu": cpu,
        "source_sha256": source.hexdigest(),
        "loop": "closed, 1 client, 1 op at a time, fresh process per op",
    }
    if bench.workload == "panel":
        info["input"] = f"verify-suite paper --seed {bench.seed}"
    else:
        info["script_sha256"] = hashlib.sha256(bench.script.read_bytes()).hexdigest()
    return info


class Outcome:
    def __init__(self, setup_s):
        self.setup_s = setup_s
        self.ops, self.traced, self.untraced = [], [], []
        self.expected = None  # reference digest
        self.failed = 0
        self.problems = []


def measure(bench, seconds, trace):
    """Set up, run the closed loop for ``seconds``, check every op."""
    out = Outcome(bench.setup())
    ops, traced, untraced = out.ops, out.traced, out.untraced
    deadline = time.perf_counter() + seconds
    while True:
        if trace:
            needed = len(traced) < 2 or not untraced
            if not needed and time.perf_counter() >= deadline:
                break
            is_traced = len(traced) <= len(untraced)
            op = bench.timed_op(traced=is_traced)
            (traced if is_traced else untraced).append(op)
        else:
            if ops and time.perf_counter() >= deadline:
                break
            op = bench.timed_op()
        ops.append(op)
    reference = bench.reference() if trace else None
    if reference is not None and reference.error:
        out.problems.append(f"uncached reference run: {reference.error}")
    out.expected = (reference or ops[0]).digest
    for op in ops:
        if op.error is None and op.digest != out.expected:
            op.error = "report differs from the reference run (timing stripped)"
        if op.error:
            out.failed += 1
            out.problems.append(op.error)
    if trace and not any(op.error for op in traced):
        out.problems += exact_count_mismatches(traced)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torsionlab" / "cli.py").is_file():
        print(f"error: no torsionlab sources under {SRC}", file=sys.stderr)
        return 2
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        try:
            out = measure(bench, args.seconds, args.trace)
        except Failure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        context = environment(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    walls = [op.wall for op in out.ops]
    context["reference_digest"] = out.expected
    context["op_walls_s"] = [round(w, 4) for w in walls]
    context["fail_frac"] = out.failed / len(out.ops)
    if args.trace:
        metrics = layer_metrics(out.traced, out.untraced)
        values = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}
    else:
        values = {
            "op_s.p50": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(op.rss_mb for op in out.ops), "unit": "MB"},
            "setup_s": {"value": out.setup_s, "unit": "s"},
        }
    for problem in out.problems:
        print(f"FAIL: {problem}")
    print(json.dumps({"context": context}, sort_keys=True))
    result = {
        "correct": not out.problems,
        "attempted": len(out.ops),
        "failed": out.failed,
        "metrics": values,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
