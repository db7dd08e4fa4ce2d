"""Stage-by-stage benchmark for cqlnet.

    python3 bench/run.py --workload chain --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Workloads are ``chain``, ``swap_tree`` and ``random`` (see ``jobs.py`` and
``README.md``).  One closed-loop client in this process sends a job only after
the previous one finished.  Every job is checked against its reference and a
wrong answer or an exception counts as a failed job.

``--trace 0`` times whole jobs for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` runs each job of a fixed list untraced and traced,
then the first block again with ``tracemalloc`` around ``eval_net``, and
prints the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and per-job
counts are written under ``.bench_out/``; two runs of the same code and seed
must produce the same counts, or the run exits 3 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import probes
import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
CLI_REPEATS = 3

LAYERS = (
    "net.parse", "net.print", "rewrite.normalize", "rewrite.to_net",
    "freecat.denote", "freecat.complete", "freecat.text",
    "model.eval_net", "model.eval_free",
)


class Nondeterminism(Exception):
    pass


def code_hash():
    """Hash of the library and benchmark sources: counts compare within it."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def attempt(wl, env, job, call=spans.untraced, span=nullcontext()):
    """Run one job inside ``span``, then check it outside the timing.

    Returns (out or None, seconds the job took, problems).
    """
    start = perf_counter()
    try:
        with span:
            out = wl.run(env, job, call)
    except Exception as exc:  # a failed job, counted; the client keeps going
        return None, perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    took = perf_counter() - start
    return out, took, wl.check(env, job, out)


def self_check(wl, env, job):
    """Warm up on one job and show that a wrong reference is reported."""
    out, _, problems = attempt(wl, env, job)
    if out is None or problems:
        return  # the measured run reports this job as failed
    bad_job, bad_out = wl.wrong(env, job, out)
    if not wl.check(env, bad_job, bad_out):
        raise SystemExit("self-check: a deliberately wrong reference was accepted")


class Counts:
    """Exact per-job counts, compared across repeats of a job in this run."""

    def __init__(self, counts_of):
        self.counts_of = counts_of
        self.by_job = {}

    def record(self, index, out):
        if out is None:
            return
        c = list(self.counts_of(out))
        seen = self.by_job.setdefault(str(index), c)
        if seen != c:
            raise Nondeterminism(f"job {index}: counts {c}, earlier {seen}")

    def compare_saved(self, path):
        """Compare with, and add to, the counts earlier runs of this code saved."""
        saved = json.loads(path.read_text()) if path.exists() else {}
        for k, c in self.by_job.items():
            if saved.setdefault(k, c) != c:
                raise Nondeterminism(f"job {k}: counts {c}, a saved run had {saved[k]}")
        path.write_text(json.dumps(saved))


def slope(xs, ys):
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def timed_run(wl, env, jobs, seconds, counts):
    """Closed loop over the job list for ``seconds``; end-to-end metrics.

    Each job is followed by a timing of the reference work, and its wall time
    is rescaled to nominal speed (see ``speed.py``).  Returns the metrics,
    jobs attempted, jobs failed, and the wall-clock figures for the report.
    """
    walls, refs, links, ok = [], [], [], []
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        job = jobs[i % len(jobs)]
        out, took, problems = attempt(wl, env, job)
        walls.append(took)
        refs.append(speed.time_reference())
        counts.record(i % len(jobs), out)
        if problems:
            print(f"job {i}: {'; '.join(problems)}", file=sys.stderr)
        ok.append(not problems)
        links.append(out["links"] if out is not None else 0)
        i += 1
    scaled = [t for t, good in zip(speed.rescale(walls, refs), ok) if good]
    links = [x for x, good in zip(links, ok) if good]
    wall_ok = [t for t, good in zip(walls, ok) if good]
    metrics, wall = {}, {}
    if len(scaled) >= 2:
        n = len(scaled)
        metrics = {
            "job_ms_p50": (statistics.median(scaled) * 1e3, "ms", n),
            "job_ms_p90": (statistics.quantiles(scaled, n=10)[8] * 1e3, "ms", n),
            "jobs_per_s": (n / sum(scaled), "1/s", n),
            "growth": (slope([math.log(x) for x in links],
                             [math.log(t) for t in scaled]), "slope", n),
        }
        wall = {
            "wall_job_ms_p50": statistics.median(wall_ok) * 1e3,
            "wall_job_ms_p90": statistics.quantiles(wall_ok, n=10)[8] * 1e3,
            "wall_jobs_per_s": n / sum(wall_ok),
            "reference_ms_median": statistics.median(refs) * 1e3,
        }
    return metrics, i, i - len(scaled), wall


def measure_setup(probe, repeats):
    """Medians over fresh processes: set-up at nominal speed, its wall time,
    and the category and model load times seen inside the process."""
    rows = [probe.setup() for _ in range(repeats)]
    wall, _, category_s, model_s, _ = (statistics.median(col) for col in zip(*rows))
    scaled = statistics.median(r[0] * speed.NOMINAL_S / r[4] for r in rows)
    return scaled, wall, category_s, model_s


def traced_run(wl, env, jobs, counts):
    """The fixed job list untraced and traced, then with tracemalloc on eval_net.

    Each job runs untraced and traced back to back, so that drifts in machine
    speed cancel out of the tracing overhead.  The second run of a job is a
    little faster, so the order flips with the job's position in its block and
    again from block to block; with an even number of blocks every position
    runs in both orders equally often.
    """
    failed = 0
    untraced_s = 0.0
    outs = []
    tracer = spans.Tracer()
    for k, job in enumerate(jobs):
        first = (k % wl.block + k // wl.block) % 2
        for traced in (first, not first):
            if traced:
                span = tracer.job(f"job{k} {job.size}")
                out, _, problems = attempt(wl, env, job, tracer.call, span)
            else:
                out, took, problems = attempt(wl, env, job)
                untraced_s += took
            counts.record(k, out)
            failed += bool(problems)
        outs.append(out)

    peak = 0

    def peak_call(name, fn, *args, **kwargs):
        nonlocal peak
        if name != "model.eval_net":
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    for k, job in enumerate(jobs[: wl.block]):
        out, _, problems = attempt(wl, env, job, peak_call)
        counts.record(k, out)
        failed += bool(problems)

    self_s = tracer.self_times()
    job_s = tracer.job_time()
    done = [o for o in outs if o is not None]
    steps = sum(len(o["steps"]) for o in done)
    n = len(jobs)
    metrics = {f"{name}_s": (self_s.get(name, 0.0), "s", n) for name in LAYERS}
    metrics.update({
        "rewrite.steps": (steps, "count", n),
        "rewrite.us_per_step": (
            self_s.get("rewrite.normalize", 0.0) / steps * 1e6 if steps else 0.0, "us", n),
        "rewrite.nf_slices": (sum(o["nf_slices"] for o in done), "count", n),
        "net.links": (sum(o["links"] for o in done), "count", n),
        "freecat.wirings": (sum(o.get("wirings", 0) for o in done), "count", n),
        "model.eval_net_peak_kb": (peak / 1024, "KiB", min(n, wl.block)),
        "bench.self_s": (self_s.get("job", 0.0), "s", n),
        "bench.job_s": (job_s, "s", n),
        "bench.trace_overhead_s": (job_s - untraced_s, "s", n),
    })
    attempted = n * 2 + min(n, wl.block)
    return metrics, attempted, failed, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cqlnet
        import jobs as jobmod
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(cqlnet.__file__).resolve().parent != ROOT / "src" / "cqlnet":
        print(f"cqlnet was imported from {cqlnet.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in jobmod.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(jobmod.WORKLOADS)}")
    wl = jobmod.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    probe = probes.Probes(ROOT, OUT / "examples")
    try:
        probe.write_examples()
        setup_s, setup_wall_s, category_load_s, model_load_s = measure_setup(
            probe, SETUP_REPEATS)
    except probes.ProbeError as exc:
        print(exc, file=sys.stderr)
        return 2

    cat = cqlnet.load_category((OUT / "examples" / "pauli8.cat").read_text())
    model = cqlnet.load_model((OUT / "examples" / "pauli8.mod").read_text(), cat)
    env = jobmod.Env(cat, model, tuple(sorted(cat.arrows)))
    rng = random.Random(args.seed)
    job_list = wl.make(env, rng, wl.trace_blocks if args.trace else wl.blocks)
    self_check(wl, env, job_list[0])

    counts = Counts(jobmod.counts)
    try:
        if args.trace:
            metrics, attempted, failed, tracer = traced_run(wl, env, job_list, counts)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            try:
                import_s = probe.bare_import(SETUP_REPEATS)
                spawn_s, cli_calls, cli_wrong = probe.cli(CLI_REPEATS)
            except probes.ProbeError as exc:
                print(exc, file=sys.stderr)
                return 2
            attempted += cli_calls
            failed += cli_wrong
            metrics.update({
                "category.load_s": (category_load_s, "s", SETUP_REPEATS),
                "model.load_s": (model_load_s, "s", SETUP_REPEATS),
                "cli.import_s": (import_s, "s", SETUP_REPEATS),
                "cli.spawn_s": (spawn_s, "s", cli_calls),
            })
        else:
            metrics, attempted, failed, wall = timed_run(
                wl, env, job_list, args.seconds, counts)
            wall["wall_setup_s"] = setup_wall_s
            metrics["setup_s"] = (setup_s, "s", SETUP_REPEATS)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kib / 1024, "MB", 1)
        key = f"{args.workload}-{args.seed}-trace{args.trace}-{code_hash()}"
        counts.compare_saved(OUT / f"counts-{key}.json")
    except Nondeterminism as exc:
        print(f"NONDETERMINISTIC exact counts: {exc}", file=sys.stderr)
        return 3

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted}  failed {failed}  failed_frac {failed / attempted} "
          f"(n={attempted})")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<6} (n={n})")
    if not args.trace:
        print("  wall clock, not rescaled: " + "  ".join(
            f"{k} {v:.6g}" for k, v in wall.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
