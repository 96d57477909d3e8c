"""inframono benchmark: one closed-loop caller in one fresh process.

    python3 perfbench/run.py --workload fischer|check|sample --seed N \
        --seconds S --trace 0|1 [--small]

Run from the root of a source checkout; the library is imported from
``src/``.  Each run

1. generates the workload's corpus (one *pass*) from ``--seed``;
2. sets up cold: imports the library and runs the first operation on
   every distinct cache key of the corpus.  With ``--trace 0`` this is
   timed here and in two fresh child processes, and ``setup_s`` is the
   median of the three;
3. runs whole passes, one operation at a time, until ``--seconds`` have
   passed and at least four passes are done.  With ``--trace 0`` the two
   set-up probes run after the first and second passes, inside that
   time.  With ``--trace 1`` untraced and traced passes alternate, so the
   per-layer numbers and the tracing overhead come from the same run;
4. checks every output outside the timed spans: built-in check flags,
   independent checks, every pass and the cold set-up rendering the same
   text as the first pass, and the first pass's digest against
   ``digests.json`` when the seed is recorded there.

It prints every metric with its unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The exit code is 0 when every check passed, 1 when one
failed, and 2 when the checkout has no ``src/inframono``.

``--record-digests FIRST-LAST`` runs and checks one pass per seed and
rewrites the recorded digests of the given workload.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 2
# At least four passes.  The tail percentile is chosen from this minimum,
# not from the samples a run happens to get, so it is the same in every
# run of a workload (p95 on every full corpus).
MIN_PASSES = 4
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# Per-layer metrics of the traced run, in the order printed.  Span
# metrics (.calls, .total_s, .self_s) are per corpus pass; names starting
# with "setup." cover the one cold set-up.
PER_LAYER = {
    "grammar.parse_polynomial.calls": "count",
    "grammar.parse_polynomial.self_s": "s",
    "operators.sandwich.calls": "count",
    "operators.sandwich.total_s": "s",
    "operators.dirac_left.self_s": "s",
    "operators.dirac_right.self_s": "s",
    "operators.laplacian.self_s": "s",
    "operators.predicate_report.calls": "count",
    "operators.predicate_report.total_s": "s",
    "polynomials.mul_by_x_left.self_s": "s",
    "polynomials.mul_by_x_right.self_s": "s",
    "polynomials.CliffordPolynomial.__add__.calls": "count",
    "polynomials.CliffordPolynomial.__add__.self_s": "s",
    "polynomials.CliffordPolynomial.__mul__.self_s": "s",
    "fischer.wrap_x.calls": "count",
    "fischer.wrap_x.total_s": "s",
    "fischer.fischer_decompose.calls": "count",
    "fischer.fischer_decompose.total_s": "s",
    "fischer.fischer_decompose.self_s": "s",
    "fischer.fischer_tower.calls": "count",
    "fischer.fischer_tower.total_s": "s",
    "fischer.fischer_tower.self_s": "s",
    "fischer.fischer_inner.calls": "count",
    "fischer.fischer_inner.self_s": "s",
    "fischer.fischer_inner.calls_per_decompose_m4_k6": "count",
    "fischer.coords.self_s": "s",
    "fischer.from_coords.self_s": "s",
    "linalg.mat_vec.calls": "count",
    "linalg.mat_vec.self_s": "s",
    "fischer.KernelSampler.draw.calls": "count",
    "fischer.KernelSampler.draw.self_s": "s",
    "fischer.kernel_basis.cache_hits": "count",
    "fischer.kernel_basis.cache_misses": "count",
    "fischer.poly_basis.cache_hits": "count",
    "fischer.poly_basis.cache_misses": "count",
    "numeric.sandwich_scan.calls": "count",
    "numeric.sandwich_scan.self_s": "s",
    "numeric.family_harmonicity_scan.self_s": "s",
    "cli.render.calls": "count",
    "cli.render.self_s": "s",
    "setup.linalg.invert.calls": "count",
    "setup.linalg.invert.self_s": "s",
    "setup.linalg.rref.pivots": "count",
    "setup.linalg.max_entry_bits": "bits",
    "setup.linalg.nullspace.calls": "count",
    "setup.linalg.nullspace.self_s": "s",
    "setup.operators.sandwich.total_s": "s",
    "setup.fischer.wrap_x.total_s": "s",
    "setup.self_s": "s",
    "trace.coverage": "ratio",
    "trace.coverage.fischer_decompose": "ratio",
    "trace.coverage.fischer_tower": "ratio",
    "trace.overhead_ratio": "ratio",
}

# -- tracing targets ---------------------------------------------------------------


def _count_pivots(tracer: spans.Tracer, result) -> None:
    tracer.add("linalg.rref.pivots", len(result[1]))


def _entry_bits(tracer: spans.Tracer, rows) -> None:
    bits = max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for row in rows for v in row), default=0)
    tracer.raise_to("linalg.max_entry_bits", bits)


def _count_inner_at_4_6(tracer: spans.Tracer, decompose):
    """Count the orthogonality check's ``fischer_inner`` calls of (4, 6) decompositions."""

    @functools.wraps(decompose)
    def counted(p):
        if p.dim != 4 or p.degree() != 6:
            return decompose(p)
        before = tracer.calls("fischer.fischer_inner")
        try:
            return decompose(p)
        finally:
            tracer.add("fischer.fischer_inner.calls_in_decompose_m4_k6",
                       tracer.calls("fischer.fischer_inner") - before)
            tracer.add("fischer.fischer_decompose.calls_m4_k6", 1)

    return counted


# algebra is left out on purpose: a span around one blade product would
# cost more than the product, so algebra shows up in its callers' self time.
TARGETS = [
    spans.Target("inframono.grammar", "parse_polynomial", "grammar.parse_polynomial"),
    *(spans.Target("inframono.operators", f, f"operators.{f}")
      for f in ("sandwich", "dirac_left", "dirac_right", "laplacian", "predicate_report")),
    *(spans.Target("inframono.polynomials", f, f"polynomials.{f}")
      for f in ("mul_by_x_left", "mul_by_x_right", "CliffordPolynomial.__add__",
                "CliffordPolynomial.__mul__")),
    spans.Target("inframono.fischer", "fischer_decompose", "fischer.fischer_decompose",
                 decorate=_count_inner_at_4_6),
    *(spans.Target("inframono.fischer", f, f"fischer.{f}")
      for f in ("fischer_tower", "wrap_x", "fischer_inner", "coords", "from_coords", "kernel_basis")),
    *(spans.Target("inframono.fischer", f"KernelSampler.{kind}", "fischer.KernelSampler.draw")
      for kind in workloads.Sample.KINDS),
    spans.Target("inframono.linalg", "mat_vec", "linalg.mat_vec"),
    spans.Target("inframono.linalg", "invert", "linalg.invert", on_result=_entry_bits),
    spans.Target("inframono.linalg", "nullspace", "linalg.nullspace", on_result=_entry_bits),
    # counted, not timed: as a span it would leave invert and nullspace no self time
    spans.Target("inframono.linalg", "rref", None, on_result=_count_pivots),
    *(spans.Target("inframono.numeric", f, f"numeric.{f}")
      for f in ("sandwich_scan", "family_harmonicity_scan", "ode_system_residual")),
    spans.Target("workloads", "render", "cli.render"),
]


# Entry points the workloads call.  The traced set-up leaves them unwrapped,
# so ``setup.self_s`` is the set-up time outside the inner layers' spans:
# the block build's own loops, parsing, rendering and the rest.
ENTRY_SPANS = {"grammar.parse_polynomial", "operators.predicate_report",
               "fischer.fischer_decompose", "fischer.fischer_tower", "fischer.kernel_basis",
               "fischer.KernelSampler.draw", "numeric.sandwich_scan",
               "numeric.family_harmonicity_scan", "numeric.ode_system_residual", "cli.render"}


def install(tracer: spans.Tracer, entries: bool = True) -> spans.Installation:
    loaded = [t for t in TARGETS
              if t.module in sys.modules and (entries or t.span not in ENTRY_SPANS)]
    return spans.Installation(tracer, loaded, extra_modules=[workloads])


def cache_counts() -> dict[str, tuple[int, int]]:
    fischer = sys.modules["inframono.fischer"]
    return {name: (info.hits, info.misses)
            for name in ("kernel_basis", "poly_basis")
            for info in [getattr(fischer, name).cache_info()]}


# -- phases ------------------------------------------------------------------------


def load(workload) -> SimpleNamespace:
    mods = {name.rpartition(".")[2]: importlib.import_module(name) for name in workload.modules}
    return SimpleNamespace(**mods)


def cold_setup(workload, corpus: list[dict], lib=None):
    """Import (unless ``lib`` is given), then the first operation on every cache key.

    Returns (seconds, lib, {corpus index: rendered output or None}).
    """
    start = perf_counter()
    if lib is None:
        lib = load(workload)
    state = workload.start_pass(lib, corpus)
    seen = set()
    outputs: dict[int, str | None] = {}
    for i, item in enumerate(corpus):
        key = workload.key(item)
        if key in seen:
            continue
        seen.add(key)
        try:
            outputs[i] = workload.run(lib, item, state)[1]
        except Exception:
            traceback.print_exc()
            outputs[i] = None
    return perf_counter() - start, lib, outputs


class Pass:
    """One timed pass over the corpus."""

    def __init__(self, workload, lib, corpus: list[dict]):
        self.latencies: list[float] = []
        self.results: list = []
        self.rendered: list[str | None] = []
        self.failed = 0
        self.mismatched = 0
        start = perf_counter()
        state = workload.start_pass(lib, corpus)
        for item in corpus:
            t0 = perf_counter()
            try:
                result, text = workload.run(lib, item, state)
            except Exception:
                traceback.print_exc()
                self.failed += 1
                self.results.append(None)
                self.rendered.append(None)
                continue
            self.latencies.append(perf_counter() - t0)
            self.results.append(result)
            self.rendered.append(text)
        self.wall = perf_counter() - start

    def release(self, first: "Pass") -> None:
        """Count renderings that differ from the first pass, then drop the outputs.

        Keeping only the first pass's outputs keeps ``peak_rss_mb`` independent
        of how many passes a run makes.
        """
        self.mismatched = sum(1 for a, b in zip(first.rendered, self.rendered)
                              if a is not None and b is not None and a != b)
        self.results = self.rendered = None


def verify(workload, lib, corpus: list[dict], passes: list[Pass], cold: dict) -> tuple[int, int]:
    """(failed, attempted) over the cold set-up and every pass; run outside timed spans.

    An operation fails when it raised, when its first-pass result fails the
    workload's check, or when its rendering differs from the first pass
    (later passes must have been released against the first).
    """
    first = passes[0]
    failed = sum(p.failed + p.mismatched for p in passes)
    failed += sum(1 for text in cold.values() if text is None)
    for item, result in zip(corpus, first.results):
        if result is not None and not workload.check(lib, item, result):
            failed += 1
    failed += sum(1 for i, text in cold.items()
                  if text is not None and first.rendered[i] is not None and text != first.rendered[i])
    return failed, len(corpus) * len(passes) + len(cold)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples beyond it."""
    return next((p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10), 50.0)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(round(p / 100 * len(ordered), 9)), 1) - 1]


def digest(rendered: list[str | None]) -> str:
    text = "\n".join("<failed>" if r is None else r for r in rendered)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def recorded_digest(name: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


def setup_probe(name: str, seed: int, small: bool) -> float:
    """Cold set-up time measured in a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--setup-probe"] + (["--small"] if small else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
        probes: int = SETUP_PROBES, expected_digest: str | None = None) -> dict:
    """One benchmark run; returns the result object plus a ``record`` of details."""
    workload = WORKLOADS[name]
    corpus = workload.corpus(seed, small)
    tracer = spans.Tracer()
    passes: list[Pass] = []
    traced_walls: list[float] = []
    if trace:
        lib = load(workload)
        installed = install(tracer, entries=False)
        with tracer.root("setup"):  # recorded as "setup", its children as "setup.*"
            tracer.prefix = "setup."
            cold = cold_setup(workload, corpus, lib)[2]
            tracer.prefix = ""
        installed.remove()
        after_setup = cache_counts()
        start = perf_counter()
        while not traced_walls or perf_counter() - start < seconds:
            passes.append(Pass(workload, lib, corpus))
            installed = install(tracer)
            try:
                passes.append(Pass(workload, lib, corpus))
            finally:
                installed.remove()
            traced_walls.append(passes[-1].wall)
            for later in passes[-2:]:
                if later is not passes[0]:
                    later.release(passes[0])
        caches = cache_counts()
    else:
        setup_s, lib, cold = cold_setup(workload, corpus)
        setup_samples = [setup_s]
        # The set-up probes run after the first and second passes, inside the
        # --seconds window, so the passes sample the whole window: this
        # machine's speed drifts over tens of seconds.
        start = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
            passes.append(Pass(workload, lib, corpus))
            if len(passes) > 1:
                passes[-1].release(passes[0])
            if len(setup_samples) <= probes:
                setup_samples.append(setup_probe(name, seed, small))

    failed, attempted = verify(workload, lib, corpus, passes, cold)
    first = passes[0]
    got = digest(first.rendered)
    digest_ok = expected_digest is None or expected_digest == got

    record = {"workload": name, "seed": seed, "passes": len(passes), "ops_per_pass": len(corpus),
              "digest": got, "digest_recorded": expected_digest, "digest_ok": digest_ok,
              "failed_ratio": failed / attempted}
    if trace:
        untraced = [p.wall for p in passes[0::2]]
        metrics = layer_metrics(tracer, workload, len(traced_walls), len(passes), after_setup, caches,
                                sum(traced_walls) / sum(untraced) - 1)
        units = PER_LAYER
    else:
        latencies = [x for p in passes for x in p.latencies]
        pct = tail_percentile(len(corpus) * MIN_PASSES)
        metrics = {
            "throughput_ops_s": len(latencies) / sum(p.wall for p in passes),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": percentile(latencies, pct) * 1e3,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"throughput_ops_s": "ops/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        record.update(tail_percentile=pct, latency_samples=len(latencies), setup_samples=setup_samples)
    return {
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "record": record,
    }


def layer_metrics(tracer: spans.Tracer, workload, traced: int, total: int,
                  after_setup: dict, caches: dict, overhead: float) -> dict:
    """Per-layer values: span and count metrics per traced pass, set-up ones as measured."""
    decomposes = tracer.counts.get("fischer.fischer_decompose.calls_m4_k6", 0)
    extra = {
        "fischer.fischer_inner.calls_per_decompose_m4_k6":
            tracer.counts.get("fischer.fischer_inner.calls_in_decompose_m4_k6", 0) / decomposes
            if decomposes else 0,
        "trace.coverage": spans.coverage(tracer, list(workload.entry_spans)),
        "trace.coverage.fischer_decompose": spans.coverage(tracer, ["fischer.fischer_decompose"]),
        "trace.coverage.fischer_tower": spans.coverage(tracer, ["fischer.fischer_tower"]),
        "trace.overhead_ratio": overhead,
    }
    # cache_info after set-up plus one pass's worth of warm lookups
    for name, (hits, misses) in caches.items():
        setup_hits, setup_misses = after_setup[name]
        extra[f"fischer.{name}.cache_hits"] = setup_hits + (hits - setup_hits) / total
        extra[f"fischer.{name}.cache_misses"] = setup_misses + (misses - setup_misses) / total
    out = {}
    for metric in PER_LAYER:
        if metric in extra:
            out[metric] = extra[metric]
            continue
        per = 1 if metric.startswith("setup.") else traced
        base, _, field = metric.rpartition(".")
        if field in ("calls", "total_s", "self_s"):
            stats = tracer.spans.get(base)
            value = getattr(stats, field) if stats else 0
        else:
            value = tracer.counts.get(metric, 0)
        out[metric] = value / per
    return {k: int(v) if float(v).is_integer() else v for k, v in out.items()}


# -- command line -------------------------------------------------------------------


def print_report(result: dict) -> None:
    rec = result["record"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  passes {rec['passes']}  "
          f"operations per pass {rec['ops_per_pass']}")
    for name, metric in result["metrics"].items():
        line = f"  {name:<48} {metric['value']:.6g} {metric['unit']}"
        if name == "latency_tail_ms":
            line += f"  (p{rec['tail_percentile']:g} of {rec['latency_samples']} samples)"
        if name == "setup_s":
            line += "  (median of " + ", ".join(f"{s:.4g}" for s in rec["setup_samples"]) + ")"
        print(line)
    print(f"  {'failed_ratio':<48} {rec['failed_ratio']:.6g} failed/attempted"
          f"  ({result['failed']} of {result['attempted']})")
    status = ("matches the recorded digest" if rec["digest_recorded"] and rec["digest_ok"]
              else "not recorded for this seed" if rec["digest_recorded"] is None
              else f"MISMATCH, recorded {rec['digest_recorded']}")
    print(f"  digest {rec['digest']}: {status}")


def record_digests(name: str, seeds: range) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    workload = WORKLOADS[name]
    lib = load(workload)
    entries = {}
    for seed in seeds:
        corpus = workload.corpus(seed, False)
        one = Pass(workload, lib, corpus)
        failed = verify(workload, lib, corpus, [one], {})[0]
        if failed:
            raise SystemExit(f"{name} seed {seed}: {failed} failed operations; not recording")
        entries[str(seed)] = digest(one.rendered)
        print(f"{name} seed {seed}: {entries[str(seed)]}", flush=True)
    table[name] = entries
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="a corpus that runs in seconds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", metavar="FIRST-LAST", default=None)
    args = parser.parse_args(argv)

    if not (SRC / "inframono" / "__init__.py").is_file():
        print(f"error: no inframono sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        setup_s = cold_setup(workload, workload.corpus(args.seed, args.small))[0]
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.record_digests:
        first, _, last = args.record_digests.partition("-")
        record_digests(args.workload, range(int(first), int(last or first) + 1))
        return 0

    expected = None if args.small else recorded_digest(args.workload, args.seed)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small,
                 expected_digest=expected)
    print_report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
