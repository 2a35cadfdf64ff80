#!/usr/bin/env python3
"""The repository benchmark.

  python3 benchmark/run.py --workload figure_suite --seed 1 --seconds 40 --trace 0
  python3 benchmark/run.py --workload all          # every workload, untraced
  python3 benchmark/run.py --self-test             # the benchmark's own tests

Builds fpbench and fprakerd from this checkout (Release, into a
subdirectory of $CARGO_TARGET_DIR, else of .bench_build), runs one
workload for --seconds (default: run_seconds in BENCHMARK.json), checks
the fingerprint of every document it produced, and prints as its last
line of standard output

  {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json,
--trace 1 the per-layer metrics of the traced run. README.md in this
directory defines every metric and workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import benchlib as bl  # noqa: E402

WORKLOADS = ("figure_suite", "fig17_train")
EXPECTED = os.path.join(HERE, "expected_fingerprints.json")
SETUP_PROBES = 80      # set-up-only processes before each measured one
TRAIN_ROUNDS = 4       # fig17_train processes per run
TRAIN_EPOCHS = 1       # epochs per fig17_train sample
SERVE_ROUND = 1000     # requests per serve round (obs.trace_overhead)
DAEMON_ARGS = ["--threads=2", "--workers=2"]
SOCKET = "d.sock"      # relative to the run directory (sun_path limit)


class Failure(Exception):
    """The benchmark cannot produce a result (exit 1, no result line)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------ building

def build():
    """Configure and build the harness; returns the build dir.

    The build dir is a subdirectory of $CARGO_TARGET_DIR (else
    .bench_build) named after this checkout's location, so checkouts
    that share a target dir never build or run each other's sources.
    """
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise Failure("no repository sources next to the benchmark")
    top = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                       ".bench_build")
    bdir = os.path.join(top, "fpbench-" +
                        hashlib.sha256(HERE.encode()).hexdigest()[:12])
    try:
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", bdir, "-j",
                        str(os.cpu_count() or 2), "--target",
                        "fpbench", "fprakerd", "test_closed_loop"],
                       check=True, stdout=sys.stderr)
    except (subprocess.CalledProcessError, OSError) as e:
        raise Failure("build failed: %s" % e)
    return bdir


def source_digest():
    """sha256 over the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "benchmark"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


# ------------------------------------------------------------- context

class Ctx:
    """One benchmark invocation: binaries, run directory, tallies."""

    def __init__(self, args, bdir):
        self.seed = args.seed
        self.seconds = args.seconds
        self.update = args.update_fingerprints
        self.fpbench = os.path.join(bdir, "fpbench")
        self.fprakerd = os.path.join(bdir, "fpraker", "fprakerd")
        # Hermetic children: no FPRAKER_* knob from the caller's shell.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("FPRAKER_")}
        self.run_dir = os.path.join(ROOT, ".bench_run",
                                    "%s-%d" % (args.workload, os.getpid()))
        os.makedirs(self.run_dir, exist_ok=True)
        # The daemon socket is addressed relative to the run directory.
        os.chdir(self.run_dir)
        with open(EXPECTED) as f:
            self.expected = json.load(f)
        self.host = self.child([self.fpbench, "host"])[0]
        self.nproc = self.host["nproc"]
        self.attempted = 0
        self.failed = 0

    # -- correctness ----------------------------------------------------
    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("FAILED:", what)

    def check_fp(self, group, key, fingerprint, ok=True):
        """A document's fingerprint against the committed one."""
        want = self.expected.setdefault(group, {})
        if self.update:
            want[key] = fingerprint
        self.check(ok and want.get(key) == fingerprint,
                   "%s %s fingerprint %s, expected %s"
                   % (group, key, fingerprint, want.get(key)))

    def check_suite(self, out):
        got = {e["id"]: e for e in out["experiments"]}
        for key in sorted(set(got) | set(self.expected.get("suite", {}))):
            e = got.get(key)
            self.check_fp("suite", key, e["fingerprint"] if e else None,
                          bool(e and e["ok"]))

    # -- processes ------------------------------------------------------
    def child(self, argv):
        """Run a harness process; (its JSON line, spawn ns, peak MiB)."""
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                cwd=self.run_dir, env=self.env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise Failure("%s exited with %d"
                          % (" ".join(argv[:2]), proc.returncode))
        lines = out.decode().strip().splitlines()
        return json.loads(lines[-1]), t0, usage.ru_maxrss / 1024.0

    def repeat(self, argv):
        """Fresh processes for --seconds (at least two), each after a
        batch of set-up probes; (their outputs, set-up seconds)."""
        runs, setups = [], []
        start = time.monotonic()
        while True:
            setups += self.setup_probes(argv)
            runs.append(self.child(argv))
            elapsed = time.monotonic() - start
            if len(runs) >= 2 and \
                    elapsed * (len(runs) + 1) / len(runs) > self.seconds:
                return runs, setups

    def setup_probes(self, argv):
        """Set-up seconds of processes that stop at the first call."""
        samples = []
        for _ in range(SETUP_PROBES):
            out, t0, _ = self.child(argv + ["--setup-only"])
            samples.append((out["first_call_ns"] - t0) * 1e-9)
        return samples

    def path(self, name):
        return os.path.join(self.run_dir, name)


# ------------------------------------------------------------- daemon

def ping(path):
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(5)
            s.connect(path)
            s.sendall(b'{"op":"ping"}\n')
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(4096)
                if not chunk:
                    return False
                buf += chunk
        return json.loads(buf).get("ok") is True
    except (OSError, ValueError):
        return False


class Daemon:
    """A fprakerd on the run directory's socket."""

    def __init__(self, ctx, trace_out=None):
        argv = [ctx.fprakerd, "--socket=" + SOCKET] + DAEMON_ARGS
        if trace_out:
            argv.append("--trace-out=" + trace_out)
        sock = ctx.path(SOCKET)
        if os.path.exists(sock):
            os.unlink(sock)
        self.proc = subprocess.Popen(argv, cwd=ctx.run_dir, env=ctx.env,
                                     stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while not ping(SOCKET):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise Failure("fprakerd did not come up")
            time.sleep(0.01)

    def stop(self):
        """Shut the daemon down and reap it."""
        if self.proc.poll() is not None:
            return
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(5)
                s.connect(SOCKET)
                s.sendall(b'{"op":"shutdown"}\n')
                s.recv(4096)
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------- workloads

def batch_metrics(setups, parts, rss):
    """parts: per unit of work, its (seconds, seconds / reference) samples.

    The workload's time is composed from each unit's median over the
    run: a slow spell of the host then costs one sample of one unit, not
    a whole workload sample."""
    wall = sum(bl.median([t for t, _ in v]) for v in parts.values())
    print("  wall time %.4f s (not gated: it follows the host's speed)"
          % wall)
    return {
        "setup_s": bl.median(setups),
        "wall_per_ref": sum(bl.median([r for _, r in v])
                            for v in parts.values()),
        "peak_rss_mb": bl.median(rss),
    }


def figure_suite(ctx):
    argv = [ctx.fpbench, "suite", "--threads=%d" % ctx.nproc]
    runs, setups = ctx.repeat(argv)
    rss, per_exp = [], {}
    for out, _, mb in runs:
        ctx.check_suite(out)
        rss.append(mb)
        ref = sum(out["ref_ns"]) / len(out["ref_ns"])
        for e in out["experiments"]:
            ns = e["produce_ns"] + e["render_ns"]
            per_exp.setdefault(e["id"], []).append((ns * 1e-9, ns / ref))
    return batch_metrics(setups, per_exp, rss)


def fig17_train(ctx):
    """TRAIN_ROUNDS processes that each repeat one epoch of fig17's
    training under every MAC mode, each after a batch of set-up probes."""
    argv = [ctx.fpbench, "train", "--epochs=%d" % TRAIN_EPOCHS]
    setups, rss, per_mode = [], [], {}
    start = time.monotonic()
    for r in range(TRAIN_ROUNDS):
        setups += ctx.setup_probes(argv)
        left = ctx.seconds - (time.monotonic() - start)
        millis = max(1, int(left * 1000 / (TRAIN_ROUNDS - r)))
        out, _, mb = ctx.child(argv + ["--millis=%d" % millis])
        rss.append(mb)
        ctx.check(out["consistent"], "train repeats disagree")
        for label, fp in out["fingerprints"].items():
            ctx.check_fp("train", label, fp)
        # The first repeat of each process is its warm-up.
        for label, ns in out["samples_ns"].items():
            per_mode.setdefault(label, []).extend(
                (v * 1e-9, v / ref)
                for v, ref in zip(ns[1:], out["ref_ns"][label][1:]))
    return batch_metrics(setups, per_mode, rss)


def serve_run(ctx, loop_s, trace=False):
    """Start a daemon and drive the serve mix against it."""
    daemon = Daemon(ctx, "daemon_trace.json" if trace else None)
    try:
        argv = [ctx.fpbench, "serve-load", "--socket=" + SOCKET,
                "--seed=%d" % ctx.seed, "--millis=%d" % (loop_s * 1000)]
        if trace:
            argv.append("--trace-out=client_trace.json")
        out = ctx.child(argv)[0]
    finally:
        daemon.stop()

    for label, fp in out["direct"].items():
        ctx.check_fp("serve", label, fp)
    ctx.check(out["prewarm_bad"] == 0, "pre-warm submits failed")
    t = out["tally"]
    ctx.attempted += t["attempted"]
    ctx.failed += t["attempted"] - t["ok"]
    if t["attempted"] != t["ok"]:
        log("FAILED: %d of %d served requests (refused %d, failed %d, "
            "wrong document %d)" % (t["attempted"] - t["ok"],
                                    t["attempted"], t["refused"],
                                    t["failed"], t["mismatched"]))

    ceiling = out["loop_ns"]
    lat = {k: bl.with_misses(out[k + "_ns"], ceiling)
           for k in ("hot", "cold")}
    loop = out["loop_ns"] * 1e-9
    hot_ok = sum(1 for v in out["hot_ns"] if v >= 0)
    _, hot_tail, hot_beyond = bl.tail(lat["hot"])
    serve = {
        "rounds": bl.round_walls(out["end_ns"], SERVE_ROUND),
        "hot_rps": hot_ok / loop,
        "hot_p50_us": bl.percentile(lat["hot"], 0.5) * 1e-3,
        "hot_p99_us": (hot_tail or max(lat["hot"])) * 1e-3,
        "cold_p50_ms": bl.percentile(lat["cold"], 0.5) * 1e-6,
        "daemon_metrics": out.get("daemon_metrics", {}),
    }
    log("serve: %d requests in %.1f s; hot_rps %.1f 1/s; hot_p50_us "
        "%.2f us, hot_p99_us %.2f us (%d hot samples, %d beyond); "
        "cold_p50_ms %.3f ms (%d cold samples); error_rate %.6f"
        % (t["attempted"], loop,
           serve["hot_rps"], serve["hot_p50_us"], serve["hot_p99_us"],
           len(lat["hot"]), hot_beyond, serve["cold_p50_ms"],
           len(lat["cold"]),
           (t["attempted"] - t["ok"]) / max(1, t["attempted"])))
    return serve


# --------------------------------------------------------- traced run

def registry_counter(reg, name):
    return reg.get("counters", {}).get(name, 0)


def traced(ctx):
    """Every per-layer metric: one traced pass over all three workloads,
    with untraced passes alongside for the tracing overhead."""
    m = {}
    n = ctx.nproc

    probes = ctx.child([ctx.fpbench, "probes", "--seed=%d" % ctx.seed,
                        "--millis=600"])[0]
    ctx.check(probes["tile_cycles"] and probes["dot_sink"], "probe output")
    m["tile.sets_per_s"] = probes["tile_sets_per_s"]
    m["trace.fill_values_per_s"] = probes["fill_values_per_s"]
    m["pe.dot_ns.fpraker"] = probes["dot_ns_fpraker"]
    m["pe.dot_ns.bf16"] = probes["dot_ns_bf16"]

    # figure_suite: traced at nproc, untraced at nproc and at 1 thread.
    suite = [ctx.fpbench, "suite"]
    tr = ctx.child(suite + ["--threads=%d" % n,
                            "--trace-out=suite_trace.json"])[0]
    un = ctx.child(suite + ["--threads=%d" % n])[0]
    one = ctx.child(suite + ["--threads=1"])[0]
    for out in (tr, un, one):
        ctx.check_suite(out)
    with open(ctx.path("suite_trace.json")) as f:
        events = json.load(f)["traceEvents"]
    by_id = {e["id"]: e for e in tr["experiments"]}
    for key in ("fig11", "ablation_window", "ext_progressive", "fig19",
                "intro"):
        m["api.experiment_s." + key] = by_id[key]["produce_ns"] * 1e-9
    m["api.render_s"] = sum(e["render_ns"] for e in tr["experiments"]) * 1e-9
    cats = bl.self_by_category(events)
    m["sim.sweep_self_s"] = cats.get("sweep", 0.0)
    reg = tr["registry"]
    units = registry_counter(reg, "sim.parallel_for.units")
    m["sim.steal_ratio"] = registry_counter(
        reg, "sim.parallel_for.units_stolen") / max(1, units)
    m["sim.scaling"] = one["suite_ns"] / un["suite_ns"]
    hits = registry_counter(reg, "memo.hits")
    m["sim.memo.hit_ratio"] = hits / max(
        1, hits + registry_counter(reg, "memo.misses"))
    m["sim.memo.evictions"] = registry_counter(reg, "memo.evictions")
    m["sim.memo.bytes"] = reg.get("gauges", {}).get("memo.bytes", 0)
    bursts = [ev["dur"] for ev in events
              if ev.get("ph") == "X" and ev.get("cat") == "burst"]
    m["accel.phase_self_s"] = cats.get("phase", 0.0)
    m["accel.burst_s"] = sum(bursts) * 1e-6
    m["accel.burst_p50_us"] = bl.percentile(bursts, 0.5)
    m["accel.ns_per_step"] = m["accel.burst_s"] * 1e9 / max(
        1, registry_counter(reg, "phase.steps"))
    m["obs.trace_overhead.figure_suite"] = tr["suite_ns"] / un["suite_ns"]

    print("top (experiment, layer:op) phases of figure_suite by self time:")
    for owner, name, secs in bl.top_phases(events):
        print("  %-22s %-28s %8.3f s" % (owner, name, secs))

    # fig17_train: traced with each training mode timed on its own.
    tr17 = ctx.child([ctx.fpbench, "fig17", "--threads=%d" % n, "--modes",
                      "--trace-out=fig17_trace.json"])[0]
    un17 = ctx.child([ctx.fpbench, "fig17", "--threads=%d" % n])[0]
    for out in (tr17, un17):
        e = out["experiment"]
        ctx.check_fp("fig17", "fig17", e["fingerprint"], e["ok"])
    labels = {"fpraker": "FPRaker_BF16", "bf16": "Baseline_BF16",
              "fp32": "Native_FP32"}
    total = sum(tr17["modes"][v]["ns"] for v in labels.values())
    print("fig17_train per-mode split (each MlpTrainer::run alone):")
    for key, label in labels.items():
        mode = tr17["modes"][label]
        ctx.check(mode["final_accuracy"] == tr17["fig17_final"][label],
                  "fig17 %s accuracy" % label)
        m["train.mode_s." + key] = mode["ns"] * 1e-9
        print("  %-14s %8.3f s  %5.1f%%"
              % (label, mode["ns"] * 1e-9, 100.0 * mode["ns"] / total))
    m["obs.trace_overhead.fig17_train"] = (
        tr17["experiment"]["produce_ns"] / un17["experiment"]["produce_ns"])

    # serve_mix: a traced daemon + client, then an untraced one.
    loop_s = 5.0
    st = serve_run(ctx, loop_s, trace=True)
    su = serve_run(ctx, loop_s)
    for key in ("hot_rps", "hot_p50_us", "hot_p99_us", "cold_p50_ms"):
        m["serve." + key] = su[key]
    dm = su["daemon_metrics"]
    hist = dm.get("histograms", {})
    server = bl.hist_quantile(hist.get("serve.request_seconds.submit", {}),
                              0.5)
    m["serve.server_p50_us"] = (server or 0.0) * 1e6
    m["serve.wire_overhead_us"] = su["hot_p50_us"] - m["serve.server_p50_us"]
    hits = registry_counter(dm, "cache.hits")
    m["serve.cache.hit_ratio"] = hits / max(
        1, hits + registry_counter(dm, "cache.misses"))
    for key, name in (("queue", "sched.queue_seconds"),
                      ("run", "sched.run_seconds")):
        v = bl.hist_quantile(hist.get(name, {}), 0.5)
        m["serve.sched.%s_p50_ms" % key] = (v or 0.0) * 1e3
    m["serve.shed"] = (registry_counter(dm, "sched.shed_overload") +
                       registry_counter(dm, "sched.shed_deadline"))
    m["obs.trace_overhead.serve_mix"] = (bl.median(st["rounds"]) /
                                         bl.median(su["rounds"]))
    return m


# -------------------------------------------------------------- output

def definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        if not bl.valid_name(entry["name"]):
            raise Failure("invalid name in BENCHMARK.json: %r"
                          % entry["name"])
        if "unit" in entry and not bl.valid_unit(entry["unit"]):
            raise Failure("invalid unit in BENCHMARK.json: %r"
                          % entry["unit"])
    return spec


def render(spec, key, values):
    units = {e["name"]: e["unit"] for e in spec[key]}
    if set(values) != set(units):
        raise Failure("metrics %s do not match BENCHMARK.json %s"
                      % (sorted(set(values) ^ set(units)), key))
    metrics = {}
    for e in spec[key]:
        v = values[e["name"]]
        metrics[e["name"]] = {"value": v, "unit": e["unit"]}
        print("  %-34s %16.6g %s" % (e["name"], v, e["unit"]))
    return metrics


def run_workload(ctx, spec, workload):
    attempted, failed = ctx.attempted, ctx.failed
    print("%s:" % workload)
    values = {"figure_suite": figure_suite,
              "fig17_train": fig17_train}[workload](ctx)
    attempted = ctx.attempted - attempted
    values["success_rate"] = (
        attempted - (ctx.failed - failed)) / max(1, attempted)
    return render(spec, "end_to_end", values)


def main(argv):
    spec = definitions()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", help="|".join(WORKLOADS + ("all",)))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-fingerprints", action="store_true",
                    help="record this run's fingerprints as expected")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if args.self_test:
        bdir = build()
        subprocess.run([os.path.join(bdir, "test_closed_loop")], check=True)
        return subprocess.run([sys.executable, "-B", "-m", "unittest", "-v",
                               "test_benchlib"], cwd=HERE).returncode
    if args.workload not in WORKLOADS + ("all",):
        ap.error("--workload must be one of " + ", ".join(WORKLOADS + ("all",)))
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    ctx = Ctx(args, build())
    try:
        if ctx.host["build_type"] != "Release":
            raise Failure("refusing a %s build" % ctx.host["build_type"])
        stamp = dict(ctx.host, commit=commit(), source=source_digest(),
                     seed=args.seed, workload=args.workload,
                     seconds=args.seconds, trace=args.trace)
        print("host: " + json.dumps(stamp, sort_keys=True))
        if args.trace:
            # One traced run covers every workload (see README.md).
            print("traced run:")
            metrics = render(spec, "per_layer", traced(ctx))
        elif args.workload == "all":
            metrics = {w: run_workload(ctx, spec, w) for w in WORKLOADS}
        else:
            metrics = run_workload(ctx, spec, args.workload)
        if ctx.update:
            with open(EXPECTED, "w") as f:
                json.dump(ctx.expected, f, indent=2, sort_keys=True)
                f.write("\n")
        result = {
            "correct": ctx.failed == 0,
            "attempted": ctx.attempted,
            "failed": ctx.failed,
            "metrics": metrics,
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.run_dir))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    # A terminated run still stops its daemon (the finally clauses run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main(sys.argv[1:]))
    except Failure as e:
        log("benchmark:", e)
        sys.exit(1)
