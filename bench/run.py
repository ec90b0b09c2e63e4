"""gbzeta benchmark: one closed-loop client calling the library's public API.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The client sends the next operation only after the previous one returns
(one process, one client; cli-cold adds one child process at a time).
With --trace 0 it runs whole operation groups until S seconds of operation
time at reference speed have passed and reports the end-to-end metrics of
BENCHMARK.json.
With --trace 1 it runs a fixed number of groups with spans around every
public gbzeta function and reports the per-layer metrics; their counts
repeat exactly for a given seed. Every output is checked against an
independent reference outside the timing.

Times are reported at reference speed (see speed.py): each operation's
time is scaled by a CPU probe taken next to it. The raw values are kept in
the result file.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
The full result (environment stamp, operation list and its hash, failing
operations) goes to bench/out/, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import workloads  # noqa: E402
from speed import REFERENCE_PROBE_S, SpeedMeter, setup_probe  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPS = 3  # in-process set-up, plus fresh interpreters for the rest
CLI_SETUP_REPS = 5  # bare `import gbzeta` processes


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    import mpmath

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "gbzeta").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# set-up

def setup(wl) -> tuple[object, list[tuple[float, float]]]:
    """Import gbzeta and fill caches; return the module and (seconds, probe) per set-up."""
    samples = []
    if not wl.in_process:
        for _ in range(CLI_SETUP_REPS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import gbzeta"], cwd=ROOT,
                           env=wl.env({"env": None}), capture_output=True, check=True,
                           timeout=120)
            samples.append((time.perf_counter() - t0, setup_probe()))
        return None, samples
    t0 = time.perf_counter()
    import gbzeta

    wl.warm(gbzeta)
    samples.append((time.perf_counter() - t0, setup_probe()))
    for _ in range(SETUP_REPS - 1):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), wl.name], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=170)
        seconds, probe = proc.stdout.split()[-2:]
        samples.append((float(seconds), float(probe)))
    return gbzeta, samples


# ---------------------------------------------------------------------------
# the closed loop

def run_ops(wl, lib, gen, keep_going, tracer=None):
    """Run whole groups from `gen` while keep_going(groups_done, op_seconds) holds.

    The measured window is the sum of op latencies; checks stay out of it.
    `op_seconds` is at reference speed (each latency scaled by the latest
    probe), so the number of operations in a run does not follow the
    machine's drift, and neither do the percentiles taken over them.
    In-process outputs are checked as soon as their op returns and then
    dropped, so memory does not grow with the number of ops. CLI outputs
    are small and are checked after the last op: a child's peak RSS counts
    the pages of the parent that forks it, so the parent must not load the
    references while children run.
    """
    records = []
    meter = SpeedMeter()
    done = 0
    busy = 0.0
    while keep_going(done, busy):
        for op in next(gen):
            args = wl.prepare(op)
            if tracer is not None:
                tracer.op_id = len(records)
            t0 = time.perf_counter()
            try:
                out, err = wl.execute(lib, args, tracer), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            busy += latency * REFERENCE_PROBE_S / meter.probes[-1]
            rec = {"op": op, "error": err, "latency": latency, "out": out,
                   "probe": meter.after_op(latency)}
            if wl.in_process:
                _check(wl, rec)
            records.append(rec)
        done += 1
    meter.close()
    for rec in records:
        rec["scale"] = meter.scale(rec.pop("probe"))
    return records, meter


def _check(wl, rec) -> None:
    out = rec.pop("out")
    rec["outcome"] = (workloads.Outcome(False, "exception") if rec["error"]
                      else wl.check(rec["op"], out))


def run_known_defects(wl, lib) -> list[dict]:
    """Run and check the workload's known-defect cases, untimed and untraced.

    They fail at this commit because of library defects, so they are kept
    out of the timed operations (and out of `attempted` and `failed`) and
    reported on their own: a fix shows as these cases passing.
    """
    records = []
    for op in wl.known_defects:
        try:
            out, err = wl.execute(lib, wl.prepare(op)), None
        except Exception as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        rec = {"op": op, "error": err, "out": out}
        _check(wl, rec)
        records.append(rec)
    return records


def _peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _scales(records, scaled: bool) -> list[float]:
    return [r["scale"] if scaled else 1.0 for r in records]


def end_to_end(records, setup_samples, rss_mb, scaled: bool) -> dict:
    """{name: (value, unit)}; times at reference speed when `scaled`."""
    lat = sorted(r["latency"] * s for r, s in zip(records, _scales(records, scaled)))
    busy = sum(lat)
    q = workloads.percentile_rank(len(lat))
    # with 20 ops or fewer no percentile above the median keeps ten beyond it
    tail = workloads.nearest_rank(lat, q) if q > 0.5 else statistics.median(lat)
    setup = [t * REFERENCE_PROBE_S / p if scaled else t for t, p in setup_samples]
    digits = [r["outcome"].digits for r in records
              if r["outcome"].ok and r["outcome"].digits is not None]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (tail, "s"),
        "certified_digits_per_s": (sum(digits) / busy, "digits/s"),
        "certified_digits_p50": (statistics.median(digits) if digits else 0.0, "digits"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run

def _is_series_op(op) -> bool:
    return "s" in op or op.get("argv", [None])[0] == "zeta-odd"


def per_layer(tracer, records, defects, overhead_s, scaled: bool) -> dict:
    """{name: (value, unit)}: times per op (at reference speed when `scaled`), counts in total.

    Only `series.bound_violations` also counts the known-defect cases.
    """
    scale = _scales(records, scaled)
    agg = tracer.aggregate(scale)
    n = len(records)
    counts = tracer.counts

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2] / n

    def total_s(name):
        return agg.get(name, (0, 0.0, 0.0))[1] / n

    def layer(prefix):
        rows = [v for k, v in agg.items() if k.startswith(prefix + ".")]
        return sum(r[0] for r in rows), sum(r[2] for r in rows) / n

    def child_mean(value):
        kids = tracer.children
        return statistics.fmean(value(records[i], kids[i]) * scale[i] for i in kids) if kids else 0.0

    sup_calls = calls("quadrature.sup_norm")
    covered = tracer.covered_time()
    return {
        "series.remainder_R.self_s": (self_s("series.remainder_R"), "s"),
        "series.remainder_R.cells": (counts["series.remainder_R.cells"], "count"),
        "quadrature.gauss_legendre_01.self_s": (self_s("quadrature.gauss_legendre_01"), "s"),
        "series.power_tail_sum.calls": (calls("series.power_tail_sum"), "count"),
        "series.power_tail_sum.self_s": (self_s("series.power_tail_sum"), "s"),
        "series.sigma_tilde.calls": (calls("series.sigma_tilde"), "count"),
        "series.sigma_tilde.terms": (counts["series.sigma_tilde.terms"], "count"),
        "series.sigma_tilde.self_s": (self_s("series.sigma_tilde"), "s"),
        "series.rho_tail.self_s": (self_s("series.rho_tail"), "s"),
        "series.delta_tail.self_s": (self_s("series.delta_tail"), "s"),
        "series.partial_sum.self_s": (self_s("series.partial_sum"), "s"),
        "series.bound_violations": (sum(1 for r in records + defects if _is_series_op(r["op"])
                                        and r["outcome"].reason == "bound_violation"), "count"),
        "series.tol_missed": (sum(1 for r in records if r["outcome"].tol_missed), "count"),
        "quadrature.sup_norm.calls": (sup_calls, "count"),
        "quadrature.sup_norm.self_s": (self_s("quadrature.sup_norm"), "s"),
        "quadrature.sup_norm.total_s": (total_s("quadrature.sup_norm"), "s"),
        "quadrature.sup_norm.repeat_frac": (
            counts["quadrature.sup_norm.repeats"] / sup_calls if sup_calls else 0.0, "ratio"),
        "quadrature.em_composite.self_s": (self_s("quadrature.em_composite"), "s"),
        "quadrature.cells": (counts["quadrature.cells"], "count"),
        "periodic.fourier_coeffs.self_s": (self_s("periodic.fourier_coeffs"), "s"),
        "periodic.fourier_partial_sum.self_s": (self_s("periodic.fourier_partial_sum"), "s"),
        "periodic.coeffs_computed": (counts["periodic.coeffs_computed"], "count"),
        "bigfloat.to_mpf.calls": (calls("bigfloat.to_mpf"), "count"),
        "bigfloat.to_mpf.self_s": (self_s("bigfloat.to_mpf"), "s"),
        "bernoulli.calls": (layer("bernoulli")[0], "count"),
        "bernoulli.self_s": (layer("bernoulli")[1], "s"),
        "bernoulli.max_index": (counts["bernoulli.max_index"], "count"),
        "polyrat.self_s": (layer("polyrat")[1], "s"),
        "polyrat.eval_mpf.calls": (calls("polyrat.Poly.eval_mpf"), "count"),
        "zeta_even.self_s": (layer("zeta_even")[1], "s"),
        "zeta_even.delta_term.calls": (calls("zeta_even.delta_term"), "count"),
        "cli.import_s": (child_mean(lambda r, k: k["import_s"]), "s"),
        "cli.main_s": (child_mean(lambda r, k: k["main_s"]), "s"),
        "cli.process_overhead_s": (
            child_mean(lambda r, k: r["latency"] - k["import_s"] - k["main_s"]), "s"),
        "trace.untraced_s": (statistics.fmean((r["latency"] - covered[i]) * scale[i]
                                              for i, r in enumerate(records)), "s"),
        "trace.overhead_s": (overhead_s[scaled], "s"),
        "trace.ops": (n, "count"),
    }


def calibrate(wl, lib, records) -> tuple[float, float]:
    """Traced minus untraced time per op, raw and scaled, re-running every op untraced."""
    ops = iter([[r["op"] for r in records]])
    untraced, _ = run_ops(wl, lib, ops, lambda done, _: done < 1)
    diffs = [(r["latency"] - u["latency"], r["latency"] * r["scale"] - u["latency"] * u["scale"])
             for r, u in zip(records, untraced)]
    return statistics.fmean(d[0] for d in diffs), statistics.fmean(d[1] for d in diffs)


# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gbzeta" / "__init__.py").is_file():
        print(f"error: no gbzeta sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))

    lib, setup_samples = setup(wl)
    gen = wl.groups(random.Random(args.seed))
    tracer = None
    if args.trace:
        tracer = Tracer(scratch_dir=OUT)
        if wl.in_process:
            tracer.install()
        records, meter = run_ops(wl, lib, gen, lambda done, _: done < wl.trace_groups, tracer)
        tracer.uninstall()
    else:
        records, meter = run_ops(wl, lib, gen, lambda _, busy: busy < args.seconds)
    rss_mb = _peak_rss_mb(wl)
    for rec in records:
        if "out" in rec:
            _check(wl, rec)
    wl.finish()
    defects = run_known_defects(wl, lib)

    failed = sum(not r["outcome"].ok for r in records)
    n = len(records)
    if tracer:
        overhead = calibrate(wl, lib, records)
        metrics, raw = (per_layer(tracer, records, defects, overhead, s) for s in (True, False))
        notes = {}
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics, raw = (end_to_end(records, setup_samples, rss_mb, s) for s in (True, False))
        digits = sum(1 for r in records if r["outcome"].ok and r["outcome"].digits is not None)
        notes = {"latency_p90_s": f"p{100 * workloads.percentile_rank(n):.1f} of {n} samples",
                 "setup_s": f"median of {len(setup_samples)} set-ups",
                 "certified_digits_p50": f"median over {digits} passing ops with a bound"}
        names = [m["name"] for m in spec["end_to_end"]]
    missing = [name for name in names if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics missing from this run: {missing}")

    ops = [r["op"] for r in records]
    ops_hash = hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
    env = environment()
    reasons = Counter(r["outcome"].reason for r in records if not r["outcome"].ok)
    failing = [dict(r["op"], reason=r["outcome"].reason, error=r["error"])
               for r in records if not r["outcome"].ok]
    known = [dict(r["op"], ok=r["outcome"].ok, reason=r["outcome"].reason, error=r["error"])
             for r in defects]
    probe_median = statistics.median(meter.probes)
    busy = sum(r["latency"] for r in records)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "busy_s": busy,
        "setup_samples_s": [t for t, _ in setup_samples],
        "attempted": n, "failed": failed,
        "failed_frac": failed / n, "failures_by_reason": dict(reasons),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "speed": {"reference_probe_s": REFERENCE_PROBE_S, "probe_median_s": probe_median,
                  "probes": len(meter.probes), "probes_s": meter.probes},
        "notes": notes, "ops_sha256": ops_hash, "ops": ops,
        "latencies_s": [r["latency"] for r in records],
        "scales": [r["scale"] for r in records], "failing_ops": failing,
        "known_defects": known,
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    if tracer:
        tracer.dump(OUT / f"spans-{tag}.jsonl.gz")

    print(f"gbzeta benchmark: workload {wl.name}, seed {args.seed}, trace {args.trace}, "
          f"commit {env['commit']}, python {env['python']}, mpmath {env['mpmath']} "
          f"({env['mpmath_backend']} backend), nproc {env['nproc']}")
    print(f"ops {n} in {busy:.2f} s of op time (sha256 {ops_hash[:16]}), failed {failed} "
          f"(failed_frac {failed / n:.4f}"
          + (": " + ", ".join(f"{k} {v}" for k, v in sorted(reasons.items())) if failed else "")
          + ")")
    print(f"times at reference speed: {len(meter.probes)} probes, median "
          f"{1e3 * probe_median:.3f} ms against the reference {1e3 * REFERENCE_PROBE_S:g} ms")
    for op in failing[:3]:
        print(f"  failing op: {json.dumps(op)}")
    if known:
        print(f"known-defect cases (untimed, not counted in ops or failed): "
              f"{sum(not k['ok'] for k in known)} of {len(known)} fail")
        for k in known:
            print(f"  {'pass' if k['ok'] else 'FAIL'} {json.dumps(k)}")
    for name in names:
        v, unit = metrics[name]
        note = notes.get(name)
        if raw[name][0] != v:
            note = f"raw {_fmt(raw[name][0])}" + (f"; {note}" if note else "")
        print(f"  {name:38s} {_fmt(v):>14s} {unit}" + (f"  ({note})" if note else ""))
    print(f"  result file: {(OUT / (tag + '.json')).relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
