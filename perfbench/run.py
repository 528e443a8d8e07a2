#!/usr/bin/env python3
"""End-to-end benchmark of the PPATuner library.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/ (which compiles the library from ../src) into
.bench_build/perfbench, runs the workload in its own process, checks the
outputs and prints every metric with its unit and sample count. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json. With
--trace 1 the workload runs twice, untraced and then traced; the metrics are
the per-layer ones, and the traced run must reproduce the untraced fronts
and run counts. `--workload all` runs every workload, each in its own
process, and keys the metrics `<workload>/<metric>`. The exit code is 0
only if every check passed. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write nothing into the source tree

import metrics as m  # noqa: E402

WORKLOADS = ("replay-target2", "pool-cold", "live-target2", "fleet-hls")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build
PINS = HERE / "pins.json"
# A workload must end within 180 s; its processes get what is left of this.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("evals_per_s", "1/s"),
    ("round_mean_ms", "ms"),
    ("round_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

JOBS = ("tcad19", "mlcad19", "dac19", "aspdac20", "ppatuner")

PER_LAYER = (
    [(f"pdsim.{d}.{k}", u) for d in ("small", "large")
     for k, u in (("evals", "count"), ("busy_s", "s"), ("eval_p50_ms", "ms"),
                  ("eval_tail_ms", "ms"), ("setup_s", "s"))]
    + [("flow.build_s", "s"), ("flow.build_self_s", "s")]
    + [("eval.batches", "count"), ("eval.batch_p50_ms", "ms"),
       ("eval.batch_tail_ms", "ms"), ("eval.busy_s", "s"),
       ("eval.attempts", "count"), ("eval.retries", "count"),
       ("eval.failed", "count"), ("eval.license_util", "ratio"),
       ("eval.tools_idle_s", "s")]
    + [("surrogate.fit_s", "s"), ("surrogate.fits", "count"),
       ("surrogate.append_s", "s"), ("surrogate.appends", "count"),
       ("surrogate.refit_s", "s"), ("surrogate.refits", "count"),
       ("surrogate.predict_s", "s"), ("surrogate.predicted_points", "count")]
    + [("tuner.rounds", "count"), ("tuner.round_p50_ms", "ms"),
       ("tuner.self_s", "s"), ("tuner.dropped", "count"),
       ("tuner.classified_pareto", "count"),
       ("tuner.useful_run_ratio", "ratio"),
       ("tuner.revealed_on_front", "count"), ("tuner.revealed", "count")]
    + [(f"job.{j}_s", "s") for j in JOBS] + [("pareto.score_s", "s")]
    + [("journal.bytes", "bytes"), ("journal.records", "count"),
       ("ledger.bytes", "bytes"), ("ledger.records", "count"),
       ("dist.spawn_s", "s"), ("dist.worker_deaths", "count"),
       ("dist.heartbeats", "count")]
    + [("proc.cpu_user_s", "s"), ("proc.cpu_sys_s", "s"),
       ("proc.ctx_switches", "count"), ("proc.cores_busy", "cores")]
    + [("result.hv_error", "ratio"), ("result.adrs", "ratio"),
       ("result.tool_runs", "count"), ("result.fail_ratio", "ratio")]
    + [("trace.overhead_s", "s"), ("trace.coverage", "ratio")]
)


def fail(msg, code=2):
    """Ends the run without a result line."""
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(code)


# ---- build -----------------------------------------------------------------

def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not (build_dir / "CMakeCache.txt").exists():
                steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
            steps.append(["cmake", "--build", str(build_dir), "-j",
                          str(os.cpu_count() or 1)])
            for cmd in steps:
                if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   stdin=subprocess.DEVNULL) != 0:
                    tail = log_path.read_text(errors="replace")[-3000:]
                    fail(f"build failed ({' '.join(cmd)}):\n{tail}")


# ---- provenance ------------------------------------------------------------

def revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def tree_digest():
    """sha256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    files = [p for d in ("src", "perfbench", "tools") for p in
             sorted((ROOT / d).rglob("*")) if p.is_file()]
    files += [ROOT / "data" / "source2.csv", ROOT / "data" / "target2.csv"]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# ---- one workload process --------------------------------------------------

def run_child(build_dir, tmp_rel, workload, args, trace, deadline):
    out_rel = f"{tmp_rel}/raw{trace}.json"
    cmd = [str(build_dir / "perfbench_e2e"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--data", "data", "--tmp", tmp_rel,
           "--worker", str(build_dir / "perfbench_worker"), "--out", out_rel]
    t0 = time.monotonic()
    try:
        rc = subprocess.call(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                             stdout=sys.stderr,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within the run budget", 1)
    wall = time.monotonic() - t0
    if rc != 0:
        fail(f"{workload} exited with code {rc}", 1)
    with open(ROOT / out_rel) as f:
        raw = json.load(f)
    raw["process_wall_s"] = wall
    return raw


# ---- metrics ---------------------------------------------------------------

def pass_walls(raw):
    return [p["t1"] - p["t0"] for p in raw["passes"]]


def intervals(raw):
    return [x for p in raw["passes"] for x in p["update_ms"]]


def end_to_end(raw):
    """{name: (value, samples note)} for the untraced run."""
    walls = pass_walls(raw)
    rates = [p["evals"] / w for p, w in zip(raw["passes"], walls)]
    ups = intervals(raw)
    p_tail, v_tail = m.tail(ups)
    n = len(walls)
    return {
        "setup_s": (m.median(raw["setup_s"]),
                    f"median of {len(raw['setup_s'])} set-ups"),
        "wall_s": (m.median(walls), f"median of {n} instances"),
        "evals_per_s": (m.median(rates),
                        f"median of {n} instances, "
                        f"{sum(p['evals'] for p in raw['passes'])} evaluations"),
        "round_mean_ms": (m.mean(ups), f"mean of {len(ups)} updates"),
        "round_tail_ms": (v_tail, f"p{p_tail:g} of {len(ups)} updates"),
        "peak_rss_mb": (raw["rusage"]["maxrss_kb"] / 1024.0, "process peak"),
    }


def quality(raw):
    """Result quality, averaged over the run's instances."""
    ps = raw["passes"]
    attempted = sum(p["attempted"] for p in ps)
    failed = sum(p["failed"] for p in ps)
    return {"result.hv_error": m.mean(p["hv_error"] for p in ps),
            "result.adrs": m.mean(p["adrs"] for p in ps),
            "result.tool_runs": m.mean(p["tool_runs"] for p in ps),
            "result.fail_ratio": failed / attempted if attempted else 0.0}


def per_pass_layers(raw, p):
    """Layer metrics of one instance of a traced run."""
    spans = raw["spans"]
    lo, hi = p["t0"], p["t1"]
    wall = hi - lo
    out = {}

    def durations(prefix):
        return [b - a for a, b in m.spans_in(spans, lo, hi, prefix)]

    pdsim_busy = 0.0
    for d in ("small", "large"):
        ds = durations(f"pdsim.{d}.eval")
        out[f"pdsim.{d}.evals"] = len(ds)
        out[f"pdsim.{d}.busy_s"] = sum(ds)
        out[f"pdsim.{d}.eval_p50_ms"] = 1e3 * m.percentile(ds, 50) if ds else 0
        out[f"pdsim.{d}.eval_tail_ms"] = 1e3 * m.tail(ds)[1] if ds else 0
        pdsim_busy += sum(ds)

    builds = m.spans_in(spans, lo, hi, "flow.build")
    out["flow.build_s"] = sum(b - a for a, b in builds)
    out["flow.build_self_s"] = sum(
        m.self_time(a, b, m.spans_in(spans, a, b, "pdsim.")) for a, b in builds)

    batches = m.spans_in(spans, lo, hi, "eval.batch")
    bd = [b - a for a, b in batches]
    eval_busy = m.union_length(batches, lo, hi)
    licenses = raw["config"].get("licenses", 0)
    out["eval.batch_p50_ms"] = 1e3 * m.percentile(bd, 50) if bd else 0
    out["eval.batch_tail_ms"] = 1e3 * m.tail(bd)[1] if bd else 0
    out["eval.busy_s"] = eval_busy
    out["eval.license_util"] = (pdsim_busy / (licenses * eval_busy)
                                if licenses and eval_busy else 0)
    out["eval.tools_idle_s"] = wall - eval_busy if batches else 0
    for k in ("eval.batches", "eval.attempts", "eval.retries", "eval.failed",
              "journal.bytes", "journal.records", "ledger.bytes",
              "ledger.records", "dist.spawn_s", "dist.worker_deaths",
              "dist.heartbeats"):
        out[k] = p["stats"].get(k, 0)

    for k in ("fit", "append", "refit", "predict"):
        out[f"surrogate.{k}_s"] = sum(durations(f"surrogate.{k}"))
    surrogate = m.spans_in(spans, lo, hi, "surrogate.")

    out["tuner.rounds"] = p["rounds"]
    out["tuner.dropped"] = p["dropped"]
    out["tuner.classified_pareto"] = p["classified_pareto"]
    out["tuner.revealed_on_front"] = p["revealed_on_front"]
    out["tuner.revealed"] = p["revealed"]
    out["tuner.useful_run_ratio"] = (p["revealed_on_front"] / p["revealed"]
                                     if p["revealed"] else 0)

    jobs = {j: m.spans_in(spans, lo, hi, f"job.{j}") for j in JOBS}
    for j in JOBS:
        out[f"job.{j}_s"] = sum(b - a for a, b in jobs[j])
    scores = m.spans_in(spans, lo, hi, "pareto.score")
    out["pareto.score_s"] = sum(b - a for a, b in scores)

    if jobs["ppatuner"]:
        # Replay: the tuner runs inside each PPATuner job; reveals are
        # lookups, so its only timed child layer is the surrogate.
        out["tuner.self_s"] = sum(m.self_time(a, b, surrogate)
                                  for a, b in jobs["ppatuner"])
        covered = sum(out[f"job.{j}_s"] for j in JOBS) + out["pareto.score_s"]
    elif builds:
        out["tuner.self_s"] = 0
        covered = out["flow.build_s"]
    else:
        layers = m.union_length(surrogate + batches, lo, hi)
        out["tuner.self_s"] = wall - layers
        covered = layers + out["tuner.self_s"]
    out["trace.coverage"] = covered / wall if wall > 0 else 0
    return out


def per_layer(plain, traced):
    passes = [per_pass_layers(traced, p) for p in traced["passes"]]
    out = {k: m.median(x[k] for x in passes) for k in passes[0]}
    n = len(traced["passes"])
    counters = traced["counters"]
    for k in ("fits", "appends", "refits", "predicted_points"):
        out[f"surrogate.{k}"] = counters.get(f"surrogate.{k}", 0) / n
    for d in ("small", "large"):
        setups = [b - a for a, b in
                  m.spans_in(traced["spans"], 0, float("inf"),
                             f"pdsim.{d}.setup")]
        out[f"pdsim.{d}.setup_s"] = m.median(setups)
    ru = plain["rusage"]
    out["proc.cpu_user_s"] = ru["user_s"]
    out["proc.cpu_sys_s"] = ru["sys_s"]
    out["proc.ctx_switches"] = ru["ctx_switches"]
    out["proc.cores_busy"] = (ru["user_s"] + ru["sys_s"]) / plain["process_wall_s"]
    out["tuner.round_p50_ms"] = m.percentile(intervals(plain), 50)
    out.update(quality(plain))
    out["trace.overhead_s"] = (m.median(pass_walls(traced))
                               - m.median(pass_walls(plain)))
    return out


# ---- checks ----------------------------------------------------------------

def check(raw, workload, seed, problems):
    """Appends every failed output check of one workload process."""
    problems.extend(raw["failures"])
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pin = pins.get(workload)
    if pin is None:
        return
    got = [p["digest"] for p in raw["passes"]]
    if pin["seed"] == "any":
        # The instance replays a fixed protocol; only its order varies.
        want = pin["digests"] * len(got)
    elif pin["seed"] == seed:
        want = pin["digests"]
    else:
        return
    for k, (g, w) in enumerate(zip(got, want)):
        if g != w:
            problems.append(f"instance {k} digest {g} differs from the "
                            f"pinned {w}")


def record_pin(raw, workload, seed):
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    digests = [p["digest"] for p in raw["passes"]]
    any_seed = workload == "replay-target2"
    pins[workload] = {"seed": "any" if any_seed else seed,
                      "digests": digests[:1] if any_seed else digests}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


# ---- one workload ----------------------------------------------------------

def measure(workload, args, build_dir):
    """Runs one workload, prints its report and returns
    (correct, attempted, failed, metrics)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    tmp_rel = f".bench_build/tmp/p{os.getpid()}"
    shutil.rmtree(ROOT / tmp_rel, ignore_errors=True)
    try:
        plain = run_child(build_dir, tmp_rel, workload, args, 0, deadline)
        traced = (run_child(build_dir, tmp_rel, workload, args, 1, deadline)
                  if args.trace else None)
    finally:
        shutil.rmtree(ROOT / tmp_rel, ignore_errors=True)

    problems = []
    check(plain, workload, args.seed, problems)
    if traced is not None:
        check(traced, workload, args.seed, problems)
        for a, b in zip(plain["passes"], traced["passes"]):
            if (a["digest"], a["tool_runs"]) != (b["digest"], b["tool_runs"]):
                problems.append("traced run differs from the untraced run: "
                                f"{b['digest']} vs {a['digest']}")
                break
    if args.pin and not problems:
        record_pin(plain, workload, args.seed)

    cfg = plain["config"]
    print(f"# perfbench {workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# nproc={plain['nproc']} "
          + " ".join(f"{k}={v:g}" for k, v in sorted(cfg.items()))
          + f" compiler=gcc-{plain['compiler']} build={plain['build_type']}"
          f" flags='{plain['cxx_flags'].strip()}'"
          f" rev={revision() or 'none'} tree={tree_digest()}")

    e2e = end_to_end(plain)
    for name, unit in END_TO_END:
        value, note = e2e[name]
        print(f"{name:<16} {value:14.6f} {unit:<5} ({note})")
    n = len(plain["passes"])
    attempted = sum(p["attempted"] for p in plain["passes"])
    failed = sum(p["failed"] for p in plain["passes"])
    q = quality(plain)
    print(f"{'hv_error':<16} {q['result.hv_error']:14.6f} -     "
          f"(Eq. 2, mean of {n} instances)")
    print(f"{'adrs':<16} {q['result.adrs']:14.6f} -     "
          f"(Eq. 3, mean of {n} instances)")
    print(f"{'tool_runs':<16} {q['result.tool_runs']:14.2f} count "
          f"(mean of {n} instances)")
    print(f"{'fail_ratio':<16} {q['result.fail_ratio']:14.6f} -     "
          f"({failed} of {attempted} evaluations)")

    if traced is None:
        metrics_out = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END}
    else:
        layers = per_layer(plain, traced)
        for name, unit in PER_LAYER:
            print(f"{name:<28} {layers[name]:16.6f} {unit}")
        print(f"# tracing overhead {layers['trace.overhead_s']:+.4f} s on "
              f"wall_s {e2e['wall_s'][0]:.4f} s; named layers + tuner.self_s "
              f"cover {100 * layers['trace.coverage']:.1f}% of wall_s; "
              f"useful runs {layers['tuner.revealed_on_front']:g} of "
              f"{layers['tuner.revealed']:g}")
        metrics_out = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER}

    for p in problems:
        print(f"CHECK FAILED: {workload}: {p}")
    return not problems, attempted, failed, metrics_out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="record this seed's digests in perfbench/pins.json")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail("library sources (src/) not found next to perfbench/")
    build_dir = ROOT / ".bench_build" / "perfbench"
    build(build_dir)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [measure(w, args, build_dir) for w in names]
    if len(results) == 1:
        correct, attempted, failed, metrics_out = results[0]
    else:
        correct = all(r[0] for r in results)
        attempted = sum(r[1] for r in results)
        failed = sum(r[2] for r in results)
        metrics_out = {f"{w}/{k}": v for w, r in zip(names, results)
                       for k, v in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
