#!/usr/bin/env python3
"""The sbx benchmark: three workloads against the real programs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload classify_read --seed 1 --seconds 8 --trace 0

Workloads (see perfbench/README.md for why each exists):
  classify_read  sbx_serve, 3 closed-loop connections classifying fresh
                 8-message batches for users who never trained
  feedback_wal   the same mix with every 5th request a train request,
                 against a durable daemon (--data-dir, --fsync=batch)
  fig1_sweep     the paper's Figure 1 at Table 1 scale through
                 `sbx_experiments sweep dictionary`

The script builds the daemon, the experiment CLI and its own client
(perfbench/src) into .bench_build (or $CARGO_TARGET_DIR), generates the
workload's inputs from --seed before any clock starts (cached per seed in
.bench_cache), runs the workload, checks every output, and prints one JSON
line last: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones from a traced run.

--seconds sets the size of each serve window, as a fixed request count
(requests per connection = rate x seconds); a window is never cut by the
clock, so two commits always do the same work. The Figure-1 sweep has a
fixed size. `--selftest` runs every workload at a tiny size and checks
that each metric prints with its unit and that a flipped mirror score and
a wrong digest are reported as failures.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = ".bench_runs"
CACHE = ".bench_cache"
CACHE_KEEP = 4  # stream caches kept (they are ~12 KB per request)

USERS, SHARDS = 64, 4  # the daemon's topology; sbx_perfbench mirrors it
STREAM_FORMAT = 2  # bump when generate_streams changes (invalidates caches)

# Host interference on a shared VM comes in episodes of seconds to minutes.
# Wall-clock time follows it, so the gated times are CPU times, which leave
# out the time the hypervisor stole. CPU time still rises with steal (a
# vCPU that was taken away comes back to cold caches), by STEAL_SLOWDOWN
# per unit of the stolen share of busy time; every CPU time is scaled back
# by (1 - STEAL_SLOWDOWN * steal) of its own section. An untraced run
# measures WINDOWS windows (sweeps on fig1_sweep), each on fresh state,
# and reports medians. Host speed also drifts within seconds, so set-up
# time is sampled SETUPS_PER_WINDOW times before each window (each sweep)
# and reported as the median of all samples.
STEAL_SLOWDOWN = 0.55
WINDOWS = 5
SETUPS_PER_WINDOW = 2

SERVE = {
    # Requests per connection per nominal second of --seconds. At 8 s both
    # leave the daemon's token interner between 700k and 850k tokens, away
    # from the doublings of its hash table (at 524k and 1,049k), so a seed
    # with a few more tokens cannot double the table and jump peak RSS.
    "classify_read": {"rate": 400, "train_every": 0, "durable": False},
    "feedback_wal": {"rate": 375, "train_every": 5, "durable": True},
}
FIG1 = {
    "attacks": ["optimal", "usenet", "aspell"],
    "training_set_size": 10000,
    "folds": 10,
}
TINY = {"serve_requests": 40, "training_set_size": 300, "folds": 3}
REFERENCE = os.path.join(HERE, "fig1_reference.json")

END_TO_END = [
    ("setup_s", "s"),
    ("msgs_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("email.parse_us", "us"),
    ("spambayes.tokenize_us", "us"),
    ("spambayes.interner_tokens", "count"),
    ("spambayes.score_base_us", "us"),
    ("spambayes.score_overlay_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.frame_bytes", "bytes"),
    ("serve.frontend.classify_us", "us"),
    ("serve.frontend.train_us", "us"),
    ("serve.frontend.budget_share", "share"),
    ("serve.shard.apply_us", "us"),
    ("serve.wal.append_us", "us"),
    ("serve.wal.commit_wait_us", "us"),
    ("serve.wal.records_per_window", "count"),
    ("serve.transport_us", "us"),
    ("serve.client.retries", "count"),
    ("serve.errors", "count"),
    ("msgs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("train_latency_p50_ms", "ms"),
    ("setup_wall_s", "s"),
    ("corpus.sample_s", "s"),
    ("corpus.tokenize_dataset_s", "s"),
    ("core.craft_poison_s", "s"),
    ("eval.fold_train_s", "s"),
    ("eval.fold_classify_s", "s"),
    ("util.thread_pool.busy_share", "share"),
    ("trace.msgs_per_s_untraced", "1/s"),
    ("trace.msgs_per_s_traced", "1/s"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
]


class BenchError(Exception):
    """An operational failure: nothing trustworthy was measured."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def tool(name):
    b = build_dir()
    return {
        "perfbench": os.path.join(b, "sbx_perfbench"),
        "serve": os.path.join(b, "sbx", "tools", "sbx_serve"),
        "experiments": os.path.join(b, "sbx", "tools", "sbx_experiments"),
    }[name]


def child_env():
    env = dict(os.environ)
    tmp = os.path.abspath(os.path.join(build_dir(), "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["CCACHE_DISABLE"] = "1"
    env.pop("SBX_FAULT", None)
    return env


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("no sbx sources here: run from the checkout root")
    b = build_dir()
    os.makedirs(b, exist_ok=True)
    logf = os.path.join(b, "build.log")
    with open(logf, "a") as out:
        if not os.path.isfile(os.path.join(b, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", b, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_logged(cmd, out, 300)
        jobs = str(min(4, os.cpu_count() or 1))
        run_logged(["cmake", "--build", b, "-j", jobs,
                    "--target", "sbx_perfbench", "sbx_serve_tool",
                    "sbx_experiments"], out, 840)


def run_logged(cmd, out, timeout):
    r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                       env=child_env(), timeout=timeout)
    if r.returncode != 0:
        raise BenchError("build step failed (%s); see %s/build.log"
                         % (" ".join(cmd[:3]), build_dir()))


# --- host noise ----------------------------------------------------------


def cpu_ticks():
    """user, nice, system, idle, iowait, irq, softirq, steal (clock ticks)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def loadavg():
    with open("/proc/loadavg") as f:
        return float(f.readline().split()[0])


class HostNoise:
    """Steal and load average over a measured section. `steal_share` is the
    stolen share of busy time (all ticks but idle and iowait): how much of
    the time the VM wanted to run it did not."""

    def __init__(self):
        self.ticks = cpu_ticks()
        self.load_start = loadavg()

    def record(self):
        delta = [b - a for a, b in zip(self.ticks, cpu_ticks())]
        busy = sum(delta) - delta[3] - delta[4]
        return {"steal_share": delta[7] / busy if busy > 0 else 0.0,
                "loadavg_start": self.load_start, "loadavg_end": loadavg()}


def steal_adjusted(cpu_s, steal_share):
    """CPU time with the slowdown of a steal episode taken out."""
    return cpu_s * (1 - STEAL_SLOWDOWN * steal_share)


# --- serve workloads -------------------------------------------------------


def streams_file(workload, seed, requests):
    os.makedirs(CACHE, exist_ok=True)
    path = os.path.join(CACHE, "%s-v%d-s%d-r%d.bin"
                        % (workload, STREAM_FORMAT, seed, requests))
    if not os.path.isfile(path):
        spec = SERVE[workload]
        run_tool([tool("perfbench"), "gen", "--requests=%d" % requests,
                  "--train-every=%d" % spec["train_every"], "--seed=%d" % seed,
                  "--out=" + path], 300)
        caches = sorted((os.path.join(CACHE, f) for f in os.listdir(CACHE)),
                        key=os.path.getmtime)
        for old in caches[:-CACHE_KEEP]:
            os.unlink(old)
    os.utime(path)
    return path


def run_tool(cmd, timeout):
    r = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                       timeout=timeout)
    if r.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (os.path.basename(cmd[0]),
                                                 r.returncode,
                                                 r.stderr.strip()[-500:]))
    return r.stdout


def process_cpu_s(pid):
    """CPU seconds used so far by every thread of a live process, from the
    per-thread schedstat run times (ns resolution, excludes host steal)."""
    total = 0
    for tid in os.listdir("/proc/%d/task" % pid):
        with open("/proc/%d/task/%s/schedstat" % (pid, tid)) as f:
            total += int(f.read().split()[0])
    return total / 1e9


class Daemon:
    """One sbx_serve process with a fresh socket and (optionally) a fresh
    data dir. `setup_wall_s` is spawn-to-`listening on`; `setup_cpu_s` the
    CPU time the daemon spent until then, `setup_steal` the host's steal
    share meanwhile."""

    def __init__(self, run_dir, durable):
        os.makedirs(run_dir)
        self.endpoint = "unix:" + os.path.join(run_dir, "d.sock")
        cmd = [tool("serve"), "--listen=" + self.endpoint,
               "--users=%d" % USERS, "--shards=%d" % SHARDS]
        if durable:
            cmd += ["--data-dir=" + os.path.join(run_dir, "data"),
                    "--fsync=batch"]
        noise = HostNoise()
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, env=child_env())
        try:
            self.setup_wall_s = self._await_listening(start)
            self.setup_cpu_s = process_cpu_s(self.proc.pid)
            self.setup_steal = noise.record()["steal_share"]
        except BaseException:
            self.kill()
            raise

    def _await_listening(self, start):
        buf = b""
        fd = self.proc.stdout.fileno()
        while b"listening on" not in buf:
            ready, _, _ = select.select([fd], [], [], 60)
            if not ready:
                raise BenchError("sbx_serve did not start within 60 s")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError("sbx_serve exited: " +
                                 self.proc.stderr.read().decode()[-300:])
            buf += chunk
        return time.perf_counter() - start

    def stop(self):
        """Shut down with a request, then confirm the process exited 0."""
        if self.proc.poll() is None:
            run_tool([tool("perfbench"), "shutdown",
                      "--endpoint=" + self.endpoint], 30)
        return self.wait_exit()

    def wait_exit(self):
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        return self.proc.returncode == 0

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def serve_pass(workload, seed, requests, run_dir, setups, trace_csv=None,
               mirror=True, flip_mirror=False):
    """One fresh-daemon pass: `setups` daemon starts (the last one serves),
    the closed-loop window, stats, shutdown and the mirror check."""
    spec = SERVE[workload]
    inputs = streams_file(workload, seed, requests)
    daemons = []
    clean_exits = 0
    for i in range(setups - 1):
        daemons.append(Daemon(os.path.join(run_dir, "setup%d" % i),
                              spec["durable"]))
        clean_exits += daemons[-1].stop()
    daemon = Daemon(os.path.join(run_dir, "serve"), spec["durable"])
    daemons.append(daemon)
    try:
        cmd = [tool("perfbench"), "serve", "--endpoint=" + daemon.endpoint,
               "--inputs=" + inputs, "--daemon-pid=%d" % daemon.proc.pid,
               "--users=%d" % USERS, "--shards=%d" % SHARDS]
        if spec["durable"]:
            cmd.append("--durable")
        if trace_csv:
            cmd += ["--trace=" + trace_csv,
                    "--replay-dir=" + os.path.join(run_dir, "replay")]
        if not mirror:
            cmd.append("--no-mirror")
        elif flip_mirror:
            cmd.append("--flip-mirror")
        noise = HostNoise()
        out = json.loads(run_tool(cmd, 170).strip().splitlines()[-1])
        out["host"] = noise.record()
        clean_exits += daemon.wait_exit()  # sbx_perfbench sent the shutdown
    finally:
        daemon.kill()
    out["setup_cpu_s"] = [d.setup_cpu_s for d in daemons]
    out["setup_steal"] = [d.setup_steal for d in daemons]
    out["setup_s"] = [steal_adjusted(d.setup_cpu_s, d.setup_steal)
                      for d in daemons]
    out["setup_wall_s"] = [d.setup_wall_s for d in daemons]
    cpu = steal_adjusted(out["daemon_cpu_s"], out["window_steal_share"])
    out["msgs_per_cpu_s"] = (out["client_classified_messages"] / cpu
                             if cpu else 0)
    # A daemon that did not exit cleanly after its shutdown request is a
    # failed operation: state could carry into the next run.
    out["failed"] += setups - clean_exits
    return out


def run_serve(workload, seed, requests, trace, flip_mirror):
    run_dir = fresh_run_dir(workload, seed)
    try:
        # Only the first window runs the (slow) mirror; the others must then
        # return bit-identical replies.
        count = 1 if trace else WINDOWS
        windows = [serve_pass(workload, seed, requests,
                              os.path.join(run_dir, "untraced%d" % i),
                              SETUPS_PER_WINDOW,
                              mirror=i == 0, flip_mirror=flip_mirror)
                   for i in range(count)]
        first = windows[0]
        failed = sum(w["failed"] for w in windows) + sum(
            w["reply_digest"] != first["reply_digest"] for w in windows)
        result = {"attempted": sum(w["attempted"] for w in windows),
                  "failed": failed, "host": first["host"],
                  "detail": {"windows": [
                      {k: w[k] for k in (
                          "msgs_per_cpu_s", "msgs_per_s", "daemon_cpu_s",
                          "client_classified_messages", "window_steal_share",
                          "host", "setup_cpu_s", "setup_steal",
                          "latency_p50_ms", "peak_rss_mb")}
                      for w in windows]}}

        def median(key):
            return statistics.median(w[key] for w in windows)

        wall = {"msgs_per_s": median("msgs_per_s"),
                "latency_p50_ms": median("latency_p50_ms"),
                "latency_p99_ms": median("latency_p99_ms"),
                "train_latency_p50_ms": median("train_latency_p50_ms"),
                "setup_wall_s": statistics.median(
                    x for w in windows for x in w["setup_wall_s"])}
        if not trace:
            result["metrics"] = {
                "setup_s": statistics.median(
                    x for w in windows for x in w["setup_s"]),
                "msgs_per_cpu_s": median("msgs_per_cpu_s"),
                "peak_rss_mb": median("peak_rss_mb")}
            result["wall"] = wall
            return result
        csv = os.path.join(RUNS, "trace-%s.csv" % workload)
        traced = serve_pass(workload, seed, requests,
                            os.path.join(run_dir, "traced"), 1,
                            trace_csv=csv)
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"] + (
            traced["reply_digest"] != first["reply_digest"])
        layers = dict(traced["layers"])
        layers.update(wall)
        layers.update(overhead(first["msgs_per_s"], traced["msgs_per_s"]))
        layers["trace_file"] = csv
        result["metrics"] = layers
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def overhead(untraced, traced):
    return {"trace.msgs_per_s_untraced": untraced,
            "trace.msgs_per_s_traced": traced,
            "trace.overhead_share": 1 - traced / untraced if untraced else 0}


def fresh_run_dir(workload, seed):
    path = os.path.join(RUNS, "%s-s%d-p%d" % (workload, seed, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --- fig1_sweep ------------------------------------------------------------


def sweep(args_list, out_dir):
    """Runs sbx_experiments; returns its wall time, the times of its
    `config i/N done` lines (ms), its CPU time and its peak RSS (MB)."""
    os.makedirs(out_dir)
    cmd = [tool("experiments")] + args_list + ["--out-dir=" + out_dir]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env())
    done_ms = []
    try:
        for line in proc.stdout:
            if b"done" in line and line.startswith(b"config "):
                done_ms.append((time.perf_counter() - start) * 1e3)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError("sbx_experiments failed: " + err[-500:])
    return {"wall": wall, "done_ms": done_ms,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss": usage.ru_maxrss / 1024.0}


def sweep_args(tss, folds, seed):
    return ["sweep", "dictionary", "--axis",
            "attack=" + ",".join(FIG1["attacks"]),
            "training_set_size=%d" % tss, "folds=%d" % folds,
            "--seed=%d" % seed, "--threads=%d" % sweep_threads()]


def reference_digest(out_dir, tss, folds, seed):
    sweep(sweep_args(tss, folds, seed), out_dir)
    h = hashlib.sha256()
    for i in range(len(FIG1["attacks"])):
        with open(os.path.join(out_dir, "dictionary_%d.json" % i), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def same_docs(a, b):
    for i in range(len(FIG1["attacks"])):
        name = "dictionary_%d.json" % i
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def sweep_threads():
    return min(4, os.cpu_count() or 1)


def compare_docs(rerun, docs_dir):
    """Confusion-matrix rows and exact rates of the in-process re-run
    against the sweep's ResultDocs; returns the number of mismatching
    configurations."""
    bad = 0
    for i, cfg in enumerate(rerun["configs"]):
        with open(os.path.join(docs_dir, "dictionary_%d.json" % i)) as f:
            doc = json.load(f)
        rows = [[r[4], r[5], r[6], r[7], r[8]]
                for r in doc["tables"]["curve"]["rows"]]
        exact = doc["series"][0]["y"]
        ok = (doc["attack"]["name"] == cfg["attack"] and rows == cfg["rows"]
              and exact == cfg["ham_misclassified_pct"])
        if not ok:
            log("fig1: configuration %d (%s) differs from its ResultDoc"
                % (i, cfg["attack"]))
            bad += 1
    return bad


def run_fig1(seed, trace, tiny, expect_digest):
    tss = TINY["training_set_size"] if tiny else FIG1["training_set_size"]
    folds = TINY["folds"] if tiny else FIG1["folds"]
    threads = sweep_threads()
    run_dir = fresh_run_dir("fig1_sweep", seed)
    try:
        rerun_cmd = [tool("perfbench"), "fig1", "--seed=%d" % seed,
                     "--attacks=" + ",".join(FIG1["attacks"]),
                     "--training-set-size=%d" % tss, "--folds=%d" % folds,
                     "--threads=%d" % threads]

        def one_sweep(i):
            # The set-up phase of every configuration, sampled right before
            # the sweep (sbx_experiments does not report its own).
            noise = HostNoise()
            setup = json.loads(run_tool(rerun_cmd + ["--setup-only"],
                                        170).strip().splitlines()[-1])
            steal = noise.record()["steal_share"]
            noise = HostNoise()
            docs = os.path.join(run_dir, "docs%d" % i)
            out = sweep(sweep_args(tss, folds, seed), docs)
            out.update(docs=docs, host=noise.record(), setups=[
                {"cpu_s": c["setup_cpu_s"], "wall_s": c["setup_s"],
                 "steal": steal} for c in setup["configs"]])
            return out

        sweeps = [one_sweep(i) for i in range(1 if trace else WINDOWS)]
        setups = [c for t in sweeps for c in t["setups"]]
        docs = sweeps[0]["docs"]
        pool = tss * folds // (folds - 1)
        fractions = 7  # control + the six default attack fractions
        classified = pool * fractions * len(FIG1["attacks"])
        rerun = json.loads(run_tool(rerun_cmd, 170).strip().splitlines()[-1])
        failed = compare_docs(rerun, docs)
        # Every sweep's ResultDocs must be byte-identical to the first's.
        for i, other in enumerate(sweeps[1:], 1):
            if not same_docs(other["docs"], docs):
                log("fig1: sweep %d wrote different ResultDocs" % i)
                failed += 1

        with open(REFERENCE) as f:
            ref = json.load(f)
        want = expect_digest or ref["sha256"]
        got = reference_digest(os.path.join(run_dir, "ref"),
                               ref["training_set_size"], ref["folds"],
                               ref["seed"])
        if got != want:
            log("fig1: reference sweep digest %s != recorded %s" % (got, want))
            failed += 1

        for t in sweeps:
            t["msgs_per_cpu_s"] = classified / steal_adjusted(
                t["cpu_s"], t["host"]["steal_share"])
        # Operations: the sweeps, the configurations compared and the
        # reference digest.
        result = {"attempted": len(sweeps) + len(FIG1["attacks"]) + 1,
                  "failed": failed, "host": sweeps[0]["host"],
                  "detail": {"classified": classified,
                             "sweeps": [{k: t[k] for k in (
                                 "wall", "cpu_s", "msgs_per_cpu_s", "rss",
                                 "done_ms", "host", "setups")}
                                 for t in sweeps]}}

        def median(key):
            return statistics.median(t[key] for t in sweeps)

        wall_metrics = {
            "msgs_per_s": classified / median("wall"),
            "latency_p50_ms": statistics.median(
                statistics.median(t["done_ms"]) for t in sweeps),
            "setup_wall_s": statistics.median(c["wall_s"] for c in setups)}
        e2e = {"setup_s": statistics.median(
                   steal_adjusted(c["cpu_s"], c["steal"]) for c in setups),
               "msgs_per_cpu_s": median("msgs_per_cpu_s"),
               "peak_rss_mb": median("rss")}
        if not trace:
            result["metrics"] = e2e
            result["wall"] = wall_metrics
            return result
        csv = os.path.join(RUNS, "trace-fig1_sweep.csv")
        traced = json.loads(run_tool(rerun_cmd + ["--trace=" + csv],
                                     170).strip().splitlines()[-1])
        result["failed"] += compare_docs(traced, docs)
        result["attempted"] += len(FIG1["attacks"])
        layers = dict(traced["layers"])
        layers.update(wall_metrics)
        layers.update(overhead(classified / rerun["wall_s"],
                               classified / traced["wall_s"]))
        layers["trace_file"] = csv
        result["metrics"] = layers
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# --- output ----------------------------------------------------------------


def finish(args, result):
    names = PER_LAYER if args.trace else END_TO_END
    got = result["metrics"]
    metrics = {n: {"value": got.get(n, 0), "unit": u} for n, u in names}
    for n, u in names:
        print("%-32s %16.6g %s" % (n, metrics[n]["value"], u))
    for n, v in result.get("wall", {}).items():
        print("%-32s %16.6g (wall clock, not gated)" % (n, v))
    if "trace_file" in got:
        print("spans written to %s" % got["trace_file"])
    host = result["host"]
    print("host: steal_share=%.4f loadavg=%.2f->%.2f" % (
        host["steal_share"], host["loadavg_start"], host["loadavg_end"]))
    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(RUNS, "history.jsonl"), "a") as f:
        f.write(json.dumps({"time": time.time(), "workload": args.workload,
                            "seed": args.seed, "trace": args.trace,
                            "attempted": result["attempted"],
                            "failed": result["failed"], "host": host,
                            "metrics": {n: m["value"]
                                        for n, m in metrics.items()},
                            "wall": result.get("wall"),
                            "detail": result.get("detail")}) + "\n")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload",
                   choices=sorted(list(SERVE) + ["fig1_sweep"]))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=8)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    # Self-test hooks: a tiny size, a corrupted mirror score, a wrong digest.
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--flip-mirror", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--expect-digest", default="", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        build()
        if args.selftest:
            return selftest()
        if not args.workload:
            p.error("--workload is required")
        if args.workload in SERVE:
            requests = (TINY["serve_requests"] if args.tiny
                        else SERVE[args.workload]["rate"] * args.seconds)
            result = run_serve(args.workload, args.seed, requests, args.trace,
                               args.flip_mirror)
        else:
            result = run_fig1(args.seed, args.trace, args.tiny,
                              args.expect_digest)
        finish(args, result)
        return 0
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        log("perfbench: %s" % e)
        return 1


# --- self-test -------------------------------------------------------------


def selftest():
    """Tiny runs of every workload and mode, plus two injected faults."""
    bench = os.path.join(os.getcwd(), "BENCHMARK.json")
    declared = None
    if os.path.isfile(bench):
        with open(bench) as f:
            spec = json.load(f)
        declared = {
            0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
        }
        if declared[0] != END_TO_END or declared[1] != PER_LAYER:
            raise BenchError("BENCHMARK.json metrics differ from run.py")
    problems = []

    def run(extra):
        cmd = [sys.executable, os.path.abspath(__file__), "--tiny"] + extra
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        if r.returncode != 0:
            problems.append("%s exited %d: %s" % (" ".join(extra),
                                                   r.returncode,
                                                   r.stderr[-300:]))
            return None
        return json.loads(r.stdout.strip().splitlines()[-1])

    for workload in sorted(list(SERVE) + ["fig1_sweep"]):
        for trace in (0, 1):
            out = run(["--workload", workload, "--seed", "7",
                       "--trace", str(trace)])
            if out is None:
                continue
            want = END_TO_END if trace == 0 else PER_LAYER
            got = [(n, m["unit"]) for n, m in out["metrics"].items()]
            if got != want:
                problems.append("%s trace %d: metrics %s" % (workload, trace,
                                                             got))
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append("%s trace %d: not correct" % (workload, trace))
            if trace == 0 and any(m["value"] <= 0
                                  for m in out["metrics"].values()):
                problems.append("%s: an end-to-end metric is 0" % workload)
            print("selftest: %s trace %d ok" % (workload, trace), flush=True)
    out = run(["--workload", "classify_read", "--seed", "7", "--flip-mirror"])
    if out is None or out["correct"] or out["failed"] < 1:
        problems.append("a flipped mirror score was not reported")
    else:
        print("selftest: flipped mirror score reported", flush=True)
    out = run(["--workload", "fig1_sweep", "--seed", "7",
               "--expect-digest", "0" * 64])
    if out is None or out["correct"] or out["failed"] < 1:
        problems.append("a wrong digest was not reported")
    else:
        print("selftest: wrong digest reported", flush=True)
    for prob in problems:
        log("selftest: FAIL " + prob)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main(sys.argv[1:]))
