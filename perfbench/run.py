#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload {sim_fig4a,native_kv,native_dir}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The benchmark executable is
built from source with dune into .bench_build/ and measures one workload
for --seconds; the last line of standard output is the JSON result
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
With --trace 0 the seconds are split over five fresh processes of the
executable, and each metric is the median of theirs. Traced runs
are one process and also write their spans to .bench_traces/. See
perfbench/README.md for what each workload and metric measures.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["sim_fig4a", "native_kv", "native_dir"]
RUN_TIMEOUT_S = 175
REPEATS = 5
# Info lines that carry the simulated Figure 4(a) values.
MODELLED = ("  info sim_kres_", "  info sim_ct_speedup_")
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_child(argv, timeout, **kw):
    """Run a child to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(argv, cwd=ROOT, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s did not finish within %d s" % (os.path.basename(argv[0]), timeout), 3)
    return proc.returncode, out, err


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s at %s: run from the root of a full source checkout" % (need, ROOT))
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _, _ = run_child(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % code, 3)


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over the sources the benchmark builds from, so a record
    names its code even where the checkout carries no commit."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(obj, dict) or set(obj) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return obj


def run_bench(extra, timeout=RUN_TIMEOUT_S):
    return run_child([EXE] + extra, timeout, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE, text=True)


def self_test():
    """Every workload at a tiny size in both modes prints exactly the
    metrics BENCHMARK.json names, with their units; a corrupted expected
    result counts as a failed op; the simulated Figure 4(a) values match
    the committed quick-horizon rows; oversubscription is refused."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in WORKLOADS:
        for trace in ("0", "1"):
            code, out, err = run_bench(["--workload", w, "--seed", "7", "--seconds", "0.5",
                                        "--trace", trace, "--tiny"])
            res = last_json(out)
            tag = "%s trace %s" % (w, trace)
            if code != 0 or res is None:
                problems.append("%s: exit %d, result %r\n%s" % (tag, code, res, err))
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])
                problems.append("%s: missing %s, unexpected %s, wrong unit %s"
                                % (tag, missing, extra, wrong))
            for k, v in res["metrics"].items():
                if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
                    problems.append("%s: %s is not a finite number" % (tag, k))
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: correct=%s failed=%s attempted=%s"
                                % (tag, res["correct"], res["failed"], res["attempted"]))
            print("self-test: %-22s %d metrics ok" % (tag, len(got)))
    code, out, _ = run_bench(["--workload", "native_kv", "--seed", "7", "--seconds", "0.5",
                              "--trace", "0", "--tiny", "--corrupt-one"])
    res = last_json(out)
    if code != 1 or res is None or res["correct"] or res["failed"] < 1:
        problems.append("corrupted result not counted: exit %d, result %r" % (code, res))
    else:
        print("self-test: corrupted result counted (%d failed of %d)"
              % (res["failed"], res["attempted"]))
    code, out, _ = run_bench(["--pin-check"])
    print(out, end="")
    if code != 0:
        problems.append("simulated Figure 4(a) values moved from the pinned rows")
    cores = os.cpu_count() or 1
    code, out, err = run_bench(["--workload", "native_kv", "--seed", "7", "--seconds", "0.5",
                                "--trace", "0", "--domains", str(cores + 1)])
    if code != 2 or "Oversubscribed" not in err or last_json(out) is not None:
        problems.append("oversubscription not refused: exit %d, stderr %r" % (code, err))
    else:
        print("self-test: %d domains on %d cores refused" % (cores + 1, cores))
    for p in problems:
        print("self-test FAILED: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--domains", type=int, default=2)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None):
        fail("--workload and --seed are required")
    build()
    if args.self_test:
        sys.exit(self_test())
    repeats = 1 if args.trace == "1" else REPEATS
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / repeats), "--trace", args.trace,
            "--domains", str(args.domains), "--commit", commit(),
            "--source-digest", source_digest()]
    results, modelled, worst = [], [], 0
    for i in range(repeats):
        code, out, err = run_bench(argv, RUN_TIMEOUT_S - 10 * repeats)
        sys.stderr.write(err)
        if code == 2:
            sys.exit(2)
        res = last_json(out)
        if res is None:
            sys.stdout.write(out)
            fail("the benchmark printed no result line", 4)
        lines = out.rstrip("\n").splitlines()
        if repeats == 1:
            print("\n".join(lines[:-1]))
        else:
            print("repeat %d of %d:" % (i + 1, repeats))
            print("\n".join("  " + l for l in lines[:-1]))
        # The simulated Figure 4(a) values are the same for every process
        # of one seed; a difference is a failed check.
        modelled.append(sorted(l.split()[1:3] for l in lines if l.startswith(MODELLED)))
        results.append(res)
        worst = max(worst, code)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    if any(m != modelled[0] for m in modelled):
        print("repeats disagree on the simulated Figure 4(a) values")
        correct, failed = False, failed + 1
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
        if repeats > 1:
            print("median of %d: %-28s %.6g %s" % (repeats, name, metrics[name]["value"],
                                                   first["unit"]))
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(worst if correct else max(worst, 1))


if __name__ == "__main__":
    main()
