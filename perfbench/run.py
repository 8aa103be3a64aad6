#!/usr/bin/env python3
"""End-to-end benchmark of the GlueFL simulator, split by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. The script builds perfbench/CMakeLists.txt
(the simulator library, the `gluefl` CLI and perfbench_harness) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
workload at --threads 1 with the run seed N. Each repetition is a separate
harness process, so peak RSS belongs to one run. Repetitions continue
until the workload's minimum is met and about S seconds have passed. `all`
runs every workload in both modes.

--trace 0 prints the end-to-end metrics, measured with the span tracer off
and counters on, exactly as an untraced `gluefl run`. --trace 1
alternates untraced and traced repetitions and prints the per-layer
metrics. Per-layer times are self times of the tracer's existing pid-1
spans, plus the harness's own timers around set-up and checkpoint saves.
Named layers + strategies.round_self_ms + fl.unattributed_ms add up to the
traced run's total time.

Output check: every repetition's per-round records must be identical
(traced and untraced alike), and its totals, trajectory, best accuracy and
sim-class counters must equal what `gluefl run --json` prints for the same
flags and seed. A repetition that exits non-zero or fails the check counts
in `failed`. The last stdout line is the JSON result.

Which end-to-end metric each layer should move:
  data.synth_ms, fl.engine_init_ms          -> setup_s
  fl.local_train_ms, nn.gflops              -> round_ms_p50, client_updates_per_s
  strategies.round_self_ms                  -> round_ms_p50 on oi-gluefl
  wire.*, agg.aggregate_ms, sampling.sample_ms,
    net.transfer_price_ms                   -> round_ms_p50 (each < 1%)
  fl.eval_ms                                -> round_ms_p50, round_ms_tail
  ckpt.*                                    -> total_s, round_ms_tail on
                                               femnist-gluefl-ckpt
  fl.useful_update_frac                     -> client_updates_per_s on
                                               femnist-async-hostile
Known span gaps show as remainders, not as dropped time: sync top-k, error
feedback and mask build land in strategies.round_self_ms. The async engine
trains, samples and prices at dispatch, outside the `round` span; training
keeps its own local_train span, but dispatch sampling and transfer pricing
have none, so on the async workload they land in fl.unattributed_ms and
sampling.sample_ms and net.transfer_price_ms read 0.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Flags passed to both `gluefl run` and the harness; the benchmark adds
# --seed, --threads 1 and, when checkpointing, a fresh --checkpoint-dir.
# min_reps keeps at least 20 rounds per end-to-end measurement. The async
# workload runs FEMNIST at scale 1.0 (N=2800) instead of the CLI's 0.25:
# with N=700 its simulated time and throughput vary far more from seed to
# seed. Its clients ship dense deltas, so it is also the workload a change
# to sync compression (top-k, error feedback, masks) should not move.
WORKLOADS = {
    "oi-gluefl": {
        "flags": ["--dataset", "openimage", "--scale", "1.0",
                  "--rounds", "10"],
        "min_reps": 2,
    },
    "femnist-gluefl-ckpt": {
        "flags": ["--rounds", "20", "--checkpoint-every", "1"],
        "min_reps": 1,
    },
    "femnist-async-hostile": {
        "flags": ["--exec", "async", "--scenario", "hostile",
                  "--scale", "1.0", "--rounds", "20"],
        "min_reps": 1,
    },
}

TAIL_BEYOND = 10    # round_ms_tail needs this many rounds above it
CHILD_TIMEOUT_S = 120
MAX_MEASURE_S = 60  # no repetition starts later than this
# Slack between the harness's clock origin and the tracer's.
WINDOW_EPS_US = 100.0

# Trace span name -> per-layer metric. Spans with other names count toward
# their nearest named ancestor (or, at top level, fl.unattributed_ms).
SPAN_METRICS = {
    "local_train": "fl.local_train_ms",
    "round": "strategies.round_self_ms",
    "eval": "fl.eval_ms",
    "wire.encode": "wire.encode_ms",
    "wire.decode": "wire.decode_ms",
    "aggregate": "agg.aggregate_ms",
    "sample": "sampling.sample_ms",
    "transfer_price": "net.transfer_price_ms",
    # Saves are timed by the harness around the whole checkpoint hook.
    "ckpt.save": None,
}

END_TO_END_UNITS = {
    "setup_s": "s", "total_s": "s", "round_ms_p50": "ms",
    "round_ms_tail": "ms", "client_updates_per_s": "1/s",
    "peak_rss_mb": "MB", "down_gb": "GB", "sim_wall_h": "h",
    "best_accuracy": "frac",
}

PER_LAYER_UNITS = {
    "data.synth_ms": "ms", "fl.engine_init_ms": "ms",
    "fl.local_train_ms": "ms", "fl.local_train_calls": "count",
    "nn.gflops": "GFLOP/s", "strategies.round_self_ms": "ms",
    "wire.encode_ms": "ms", "wire.decode_ms": "ms", "wire.frames": "count",
    "wire.bytes": "B", "wire.accept_frac": "frac",
    "agg.aggregate_ms": "ms", "sampling.sample_ms": "ms",
    "net.transfer_price_ms": "ms", "fl.eval_ms": "ms",
    "ckpt.save_ms": "ms", "ckpt.saves": "count", "ckpt.bytes_written": "B",
    "fl.useful_update_frac": "frac", "fl.unattributed_ms": "ms",
    "telemetry.trace_overhead_pct": "%",
}

# Compared between every repetition and `gluefl run --json`.
SUMMARY_KEYS = ("best_accuracy", "totals", "trajectory")
TELEMETRY_KEYS = ("counters", "digests")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the build directory."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "perfbench_harness", "gluefl"],
                   stdout=sys.stderr, check=True)
    return build_dir


def run_child(cmd, log_path):
    """Runs `cmd` to completion; returns (exit code, peak RSS in MB)."""
    with open(log_path, "w") as errf:
        p = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=errf)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid != 0:
            break
        if time.monotonic() > deadline:
            p.kill()
            _, status, ru = os.wait4(p.pid, 0)
            break
        time.sleep(0.005)
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        with open(log_path) as f:
            log(f"{cmd[0]} exited {p.returncode}: {f.read().strip()}")
    return p.returncode, ru.ru_maxrss / 1024.0


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


class Workload:
    def __init__(self, name, seed, build_dir, tmp):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.build_dir = build_dir
        self.tmp = tmp
        self.ckpt = "--checkpoint-every" in self.spec["flags"]
        self.count = 0

    def flags(self, ckpt_dir):
        f = self.spec["flags"] + ["--seed", str(self.seed), "--threads", "1"]
        return f + ["--checkpoint-dir", ckpt_dir] if self.ckpt else f

    def _workdir(self, tag):
        self.count += 1
        base = os.path.join(self.tmp, f"{tag}{self.count}")
        os.makedirs(base + ".ckpt")
        return base

    def _ckpt_bytes_and_clean(self, base):
        written = dir_bytes(base + ".ckpt")
        shutil.rmtree(base + ".ckpt")
        return written

    def rep(self, traced):
        """One harness run; returns its parsed result or None on failure."""
        base = self._workdir("rep")
        cmd = [os.path.join(self.build_dir, "perfbench_harness"),
               "--out", base + ".json"]
        if traced:
            cmd += ["--trace", base + ".trace.json"]
        cmd += ["--"] + self.flags(base + ".ckpt")
        code, rss = run_child(cmd, base + ".log")
        written = self._ckpt_bytes_and_clean(base)
        if code != 0:
            return None
        with open(base + ".json") as f:
            r = json.load(f)
        r["peak_rss_mb"] = rss
        r["ckpt_bytes"] = written
        r["traced"] = traced
        if traced:
            with open(base + ".trace.json") as f:
                r["trace"] = json.load(f)["traceEvents"]
            os.remove(base + ".trace.json")
        return r

    def reference(self):
        """`gluefl run --json` with the same flags; None on failure."""
        base = self._workdir("ref")
        cmd = [os.path.join(self.build_dir, "gluefl"), "run",
               "--json", base + ".json"] + self.flags(base + ".ckpt")
        code, _ = run_child(cmd, base + ".log")
        self._ckpt_bytes_and_clean(base)
        if code != 0:
            return None
        with open(base + ".json") as f:
            return json.load(f)


def check(rep, first, ref, rounds):
    """Returns the reasons `rep` fails the output check (empty = passes)."""
    errors = []
    if rep["records"] != first["records"]:
        errors.append("per-round records differ from the first repetition")
    if len(rep["round_ms"]) != rounds:
        errors.append(f"{len(rep['round_ms'])} round boundaries, want {rounds}")
    if ref is not None:
        for k in SUMMARY_KEYS:
            if rep["summary"][k] != ref[k]:
                errors.append(f"{k} differs from gluefl run --json")
        for k in TELEMETRY_KEYS:
            if rep["summary"][k] != ref["telemetry"][k]:
                errors.append(f"telemetry {k} differ from gluefl run --json")
    return errors


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise BenchError(f"round_ms_tail refused: {n} rounds, need at least "
                         f"{TAIL_BEYOND + 1}")
    i = n - TAIL_BEYOND - 1
    return sorted(samples)[i], 100.0 * (i + 1) / n


def end_to_end(reps):
    rounds = [ms for r in reps for ms in r["round_ms"]]
    tail_ms, tail_pct = tail(rounds)
    setups = [s + i for r in reps for s, i in zip(r["synth_ms"], r["init_ms"])]
    trained = sum(r["clients_trained"] for r in reps)
    s = reps[0]["summary"]
    print(f"round_ms_tail is p{tail_pct:.1f} of {len(rounds)} rounds from "
        f"{len(reps)} runs; setup_s is the median of {len(setups)} set-ups")
    return {
        "setup_s": statistics.median(setups) / 1e3,
        "total_s": statistics.median(r["total_ms"] for r in reps) / 1e3,
        "round_ms_p50": statistics.median(rounds),
        "round_ms_tail": tail_ms,
        "client_updates_per_s": trained / (sum(rounds) / 1e3),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "down_gb": s["totals"]["down_gb"],
        "sim_wall_h": s["totals"]["wall_hours"],
        "best_accuracy": s["best_accuracy"],
    }


def span_self_times(events, t0_us, t1_us):
    """Sums pid-1 span self time inside [t0_us, t1_us] by metric name.
    Returns (ms by metric, local_train span count, unknown span names)."""
    eps = 0.5  # trace timestamps carry 10 significant digits
    spans = sorted(((e["ts"], e["dur"], e["name"]) for e in events
                    if e.get("pid") == 1 and e.get("ph") == "X"),
                   key=lambda s: (s[0], -s[1]))
    selfs = []     # [self µs, owner metric or None]
    stack = []     # (end µs, index into selfs, owner metric)
    calls = 0
    unknown = set()
    for ts, dur, name in spans:
        if ts < t0_us - WINDOW_EPS_US or ts + dur > t1_us + WINDOW_EPS_US:
            raise BenchError(f"span {name} lies outside the timed run")
        while stack and stack[-1][0] <= ts + eps:
            stack.pop()
        if stack and ts + dur > stack[-1][0] + eps:
            raise BenchError(f"span {name} overlaps its parent")
        if name == "local_train":
            calls += 1
        if name in SPAN_METRICS:
            owner = SPAN_METRICS[name] or "ckpt"
        else:
            unknown.add(name)
            owner = stack[-1][2] if stack else None
        if stack:
            selfs[stack[-1][1]][0] -= dur
        selfs.append([dur, owner])
        stack.append((ts + dur, len(selfs) - 1, owner))
    out = {m: 0.0 for m in SPAN_METRICS.values() if m}
    for us, owner in selfs:
        if owner in out:
            out[owner] += us / 1e3
    return out, calls, sorted(unknown)


def per_layer(traced, plain):
    m = {}
    for r in traced:
        layers, calls, unknown = span_self_times(
            r["trace"], r["run_start_us"], r["run_end_us"])
        if unknown:
            log(f"spans without a layer metric (counted in their parent): "
                f"{', '.join(unknown)}")
        layers["data.synth_ms"] = r["synth_ms"][0]
        layers["fl.engine_init_ms"] = r["init_ms"][0]
        layers["ckpt.save_ms"] = sum(r["ckpt_ms"])
        attributed = sum(layers.values())
        layers["fl.unattributed_ms"] = r["total_ms"] - attributed
        if layers["fl.unattributed_ms"] < -1.0:
            raise BenchError("layer self times exceed the traced total")
        print(f"attribution: {len(layers)} layer times incl. "
              f"fl.unattributed_ms sum to {sum(layers.values()):.3f} ms; "
              f"traced total_s is {r['total_ms'] / 1e3:.6f} s")
        layers["fl.local_train_calls"] = calls
        layers["nn.gflops"] = (r["train_flops"] / 1e9 /
                               (layers["fl.local_train_ms"] / 1e3))
        layers["wire.frames"] = r["wire_encode_frames"]
        layers["wire.bytes"] = r["wire_encode_bytes"]
        layers["wire.accept_frac"] = (
            1.0 - r["frames_rejected"] / r["updates_included"])
        layers["ckpt.saves"] = r["ckpt_saves"]
        layers["ckpt.bytes_written"] = r["ckpt_bytes"]
        layers["fl.useful_update_frac"] = (
            (r["updates_included"] - r["frames_rejected"]) /
            r["clients_trained"])
        for k, v in layers.items():
            m.setdefault(k, []).append(v)
    m = {k: statistics.median(v) for k, v in m.items()}
    traced_s = statistics.median(r["total_ms"] for r in traced)
    plain_s = statistics.median(r["total_ms"] for r in plain)
    m["telemetry.trace_overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload, untraced then traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build_dir = build()
    tmp = os.path.join(build_dir, "tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds,
                             args.trace, build_dir, tmp)
        else:
            result = {name: {section: measure(name, args.seed, args.seconds,
                                              trace, build_dir, tmp)
                             for section, trace in (("end_to_end", 0),
                                                    ("per_layer", 1))}
                      for name in WORKLOADS}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))


def measure(name, seed, seconds, trace, build_dir, tmp):
    wl = Workload(name, seed, build_dir, tmp)
    rounds = int(wl.spec["flags"][wl.spec["flags"].index("--rounds") + 1])
    min_reps = wl.spec["min_reps"]
    reps, attempted, failed = [], 0, 0
    start = time.monotonic()
    # --trace 1 alternates untraced and traced runs, one pair at least.
    order = [False, True] if trace else [False]
    wanted = len(order) if trace else min_reps
    # Once the minimum is met, another pass starts only if at least half
    # of it (at the mean pass length so far) fits before --seconds, so a
    # run measures about --seconds whatever the repetition length.
    passes = 0
    while time.monotonic() - start < MAX_MEASURE_S:
        elapsed = time.monotonic() - start
        if (len(reps) >= wanted and
                elapsed + 0.5 * elapsed / passes >= seconds):
            break
        passes += 1
        for traced in order:
            attempted += 1
            r = wl.rep(traced)
            if r is None:
                failed += 1
            else:
                reps.append(r)
    attempted += 1
    ref = wl.reference()
    if ref is None:
        failed += 1

    good = []
    for r in reps:
        errors = check(r, reps[0], ref, rounds)
        for e in errors:
            log(f"output check: {e}")
        if errors:
            failed += 1
        else:
            good.append(r)
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if trace:
        metrics, units = per_layer(traced, plain), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(plain), END_TO_END_UNITS
    print(f"{name} seed {seed}: {len(reps)} runs + 1 "
          f"reference, failed_frac {failed / attempted:.3f}")
    for k in units:
        print(f"  {k:30s} {metrics[k]:16.6g} {units[k]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
