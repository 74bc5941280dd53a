#!/usr/bin/env python3
"""dyndist benchmark: build, run one workload, report.

Run from the root of a checkout:

  python3 perfbench/run.py --workload e1-grid --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke             # reduced pass + self-test
  python3 perfbench/run.py --counts --seed 1   # simulated counts per seed

The first call builds perfbench/ (and the library sources under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. A measured run
prints a report (host, revision, build, per-metric median and quartiles)
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["e1-grid", "echo-100k", "kernel-gossip-churn", "register-stress"]
SIM_WORKLOADS = ["e1-grid", "echo-100k", "kernel-gossip-churn"]
COUNT_KEYS = ["events", "messages_sent", "messages_delivered",
              "messages_dropped", "payload_units", "timers_fired",
              "diameter_samples", "archive_events"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    return os.path.join(base, "perfbench")


def build(root):
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no dyndist sources (src/CMakeLists.txt) in " + root)
    out = build_dir(root)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                shutil.rmtree(out, ignore_errors=True)
                fail("cmake configure failed (see the log above)")
        cmd = ["cmake", "--build", out, "--target", "dyndist-perfbench",
               "-j", str(nproc())]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("build failed; log in " + log_path)
    return os.path.join(out, "dyndist-perfbench")


def run_binary(binary, args, workdir, timeout):
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run([binary] + args + ["--workdir", workdir],
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(args), timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def host_fingerprint():
    model = "unknown"
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            level, kind, size = (read_text(os.path.join(d, n))
                                 for n in ("level", "type", "size"))
            if level and size:
                tag = {"Data": "d", "Instruction": "i"}.get(kind, "")
                caches.append("L%s%s %s" % (level, tag, size))
    mem = ""
    for line in read_text("/proc/meminfo").splitlines():
        if line.startswith("MemTotal"):
            mem = line.split(":", 1)[1].strip()
    return "%s; nproc %d; caches %s; memory %s" % (
        model, nproc(), ", ".join(caches) or "unknown", mem or "unknown")


def git_rev(root):
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel",
                              "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown (not a git checkout)"
    return lines[1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def optimised(result):
    flags = result.get("cxx_flags", "").split()
    return any(f.startswith("-O") and f not in ("-O0", "-Og") for f in flags)


def report(args, root, spec, result):
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    out = {}
    lines = [
        "workload   : %s (seed %d, %s s, trace %d)" % (
            args.workload, args.seed, args.seconds, args.trace),
        "host       : " + host_fingerprint(),
        "git rev    : " + git_rev(root),
        "build      : %s, flags '%s'%s" % (
            result.get("build_type", "?"), result.get("cxx_flags", "").strip(),
            "" if optimised(result) else "  ** UNOPTIMISED BUILD **"),
        "operations : %d attempted, %d failed, checks %s" % (
            result["attempted"], result["failed"],
            "passed" if result["correct"] else "FAILED"),
    ]
    for note in result.get("notes", [])[:5]:
        lines.append("note       : " + note)
    lines.append("%-36s %-9s %5s %14s %14s %14s" % (
        "metric", "unit", "reps", "median", "q1", "q3"))
    for m in names:
        name, unit = m["name"], m["unit"]
        samples = [v for v in metrics.get(name, {}).get("samples", [])
                   if v is not None]
        if not samples:
            if not args.trace:
                fail("workload reported no %s" % name)
            samples = [0.0]  # The workload does not exercise this layer.
        med = statistics.median(samples)
        q1, q3 = quartiles(samples)
        lines.append("%-36s %-9s %5d %14.6g %14.6g %14.6g" % (
            name, unit, len(samples), med, q1, q3))
        out[name] = {"value": med, "unit": unit}
    if args.trace and "bench.traced_wall_s" in metrics:
        lines.append("tracing overhead (traced minus untraced round wall): "
                     "median %.4g s" % out["bench.trace_overhead_s"]["value"])
    print("\n".join(lines))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": out}))


def smoke(binary, workdir):
    ok = True
    print("self-test:")
    proc = subprocess.run([binary, "selftest"], cwd=workdir)
    ok &= proc.returncode == 0
    for w in WORKLOADS:
        for trace in ("0", "1"):
            r = run_binary(binary, [w, "--seed", "1", "--trace", trace,
                                    "--smoke"], workdir, 180)
            print("%-20s trace %s: correct %s, %d attempted, %d failed%s" % (
                w, trace, r["correct"], r["attempted"], r["failed"],
                "".join("\n    " + n for n in r["notes"][:3])))
            ok &= bool(r["correct"])
    print("smoke pass " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def counts(binary, workdir, seeds):
    print("# deterministic simulated counts, one round per workload and seed")
    print("\t".join(["workload", "seed"] + COUNT_KEYS))
    ok = True
    for w in SIM_WORKLOADS:
        for seed in seeds:
            r = run_binary(binary, [w, "--seed", str(seed), "--counts"],
                           workdir, 600)
            ok &= bool(r["correct"])
            print("\t".join([w, str(seed)] +
                            [str(r["counts"].get(k, 0)) for k in COUNT_KEYS]))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, action="append")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced pass of every workload plus the self-test")
    p.add_argument("--counts", action="store_true",
                   help="print each simulator workload's counts per seed")
    args = p.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("run from the root of a checkout (no BENCHMARK.json here)")
    with open(spec_path) as f:
        spec = json.load(f)
    binary = build(root)
    workdir = os.path.join(build_dir(root), "work")
    os.makedirs(workdir, exist_ok=True)

    if args.smoke:
        return smoke(binary, workdir)
    seeds = args.seed or [1]
    if args.counts:
        return counts(binary, workdir, seeds)
    if not args.workload:
        fail("--workload is required")
    args.seed = seeds[0]
    cmd = [args.workload, "--seed", str(args.seed), "--seconds",
           repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            workdir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    result = run_binary(binary, cmd, workdir, 3 * args.seconds + 120)
    report(args, root, spec, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
