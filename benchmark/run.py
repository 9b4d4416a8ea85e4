#!/usr/bin/env python3
"""The repository benchmark: builds tfa_bench from source and runs one workload.

Measured run (one workload, one process):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the full record of the run as one JSON line, then, as the last line,
the summary {"correct", "attempted", "failed", "metrics"}: every end-to-end
metric of BENCHMARK.json with --trace 0, every per-layer metric with
--trace 1.  It exits non-zero when a correctness check fails.

Other modes (see benchmark/README.md):

    python3 benchmark/run.py selftest
    python3 benchmark/run.py series --seeds 1-10 [--workloads a,b] --out F.jsonl
    python3 benchmark/run.py compare --parent-records P.jsonl --change-records C.jsonl
    python3 benchmark/run.py compare --parent DIR --change DIR [--seeds 1-10]
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 9973
RUN_TIMEOUT_S = 170

# Metrics the record carries beside the gated end-to-end ones, with the
# direction and bound compare mode judges them by.  They are not in
# BENCHMARK.json because not every workload has them (the driver requires
# every end-to-end metric from every workload).
EXTRA_METRICS = {
    "latency_tail_ms": ("lower", 0.25),
    "admit_p50_ms": ("lower", 0.2),
    "admit_tail_ms": ("lower", 0.25),
    "report_p50_ms": ("lower", 0.2),
    "report_tail_ms": ("lower", 0.25),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec(root=ROOT):
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


# ---- build ------------------------------------------------------------------


def build_dir(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return (path if path.is_absolute() else root / path) / "tfa_bench"


def build():
    """Configures and builds tfa_bench (Release) under the build directory.

    Returns the binary path, or None when the sources are missing or the
    build fails.  Build output goes to stderr.
    """
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: library sources not found under {ROOT / 'src'}")
        return None
    out = build_dir(ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", str(out), "--target", "tfa_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = out / "tfa_bench"
    return binary if binary.is_file() else None


# ---- provenance ---------------------------------------------------------------


def git_sha(root):
    try:
        r = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_sha256(root):
    """Digest of the sources the binary is built from (library and driver):
    identifies the code when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted(p for d in (root / "src", root / "benchmark" / "driver")
                   for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ---- one run -----------------------------------------------------------------


def run_once(root, binary, workload, seed, seconds, trace, tiny=False):
    """Runs the driver once; returns (record, stderr) or (None, reason)."""
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(out_dir / f"trace-{workload}-{seed}.json")]
    if tiny:
        cmd.append("--tiny")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{workload}: timed out after {RUN_TIMEOUT_S} s"
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        return None, f"{workload}: exit {r.returncode}, no record\n{r.stderr}"
    try:
        return json.loads(lines[-1]), r.stderr
    except json.JSONDecodeError:
        return None, f"{workload}: malformed record: {lines[-1][:200]}"


def judge(root, record, spec):
    """Adds provenance and the digest comparison to a record, and lists
    every problem under "problems" (empty when the run is correct)."""
    problems = []
    expected = None
    if record["seed"] == DEFAULT_SEED and record["scale"] == "full":
        with open(HERE / "digests.json") as f:
            expected = json.load(f).get(record["workload"])
        if record["digest"] != expected:
            problems.append(f"bounds digest {record['digest']} differs from "
                            f"the recorded {expected} for seed {DEFAULT_SEED}")
    record["digest_expected"] = expected
    wanted = spec["per_layer" if record["trace"] else "end_to_end"]
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} missing or not in {m['unit']}")
    attribution = record["notes"].get("attribution", {})
    record["provenance"] = {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "build_type": record["build"]["type"],
        "compiler": record["build"]["compiler"],
        "nproc": record["build"]["nproc"],
        "seed": record["seed"],
        "workload": record["workload"],
        "unattributed_share": record["metrics"].get(
            "analyze.unattributed_share", {}).get(
                "value", attribution.get("unattributed_share")),
    }
    if record["failed"] > 0 or record["attempted"] == 0:
        problems.append(f"{record['failed']} of {record['attempted']} "
                        "operations failed")
    record["problems"] = list(record.get("check_failures", [])) + problems
    return record["problems"]


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"run.py: unknown workload {args.workload}; expected one of {names}")
        return 2
    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 2
    record, err = run_once(ROOT, binary, args.workload, args.seed,
                           args.seconds, args.trace)
    if record is None:
        log(err)
        return 2
    if err:
        log(err.rstrip())
    problems = judge(ROOT, record, spec)
    failed = record["failed"] + (0 if record["failed"] or not problems else 1)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    summary = {
        "correct": not problems,
        "attempted": max(1, record["attempted"]),
        "failed": failed,
        "metrics": {m["name"]: record["metrics"][m["name"]]
                    for m in wanted if m["name"] in record["metrics"]},
    }
    for p in problems:
        log(f"run.py: FAILED: {p}")
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0 if not problems else 1


# ---- series, spread and compare -------------------------------------------------


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_series(root, workloads, seeds, trace, out):
    """Runs `root`'s benchmark command once per workload and seed, at the
    run length of its BENCHMARK.json; appends each full record to `out`.
    Returns the records.  A run that fails keeps its record, with its
    problems; a run that printed none is recorded as a stub with the
    reason, so that failed runs are counted and never silently dropped."""
    spec = load_spec(root)
    gated = {m["name"] for m in spec["end_to_end"]}
    records = []
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(root / "benchmark" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(trace)]
            try:
                r = subprocess.run(cmd, capture_output=True, text=True,
                                   cwd=root, timeout=RUN_TIMEOUT_S + 900)
                code, stdout, stderr = r.returncode, r.stdout, r.stderr
            except subprocess.TimeoutExpired:
                code, stdout, stderr = None, "", "timed out"
            lines = [l for l in stdout.splitlines() if l.strip()]
            rec = None
            if len(lines) >= 2:
                try:
                    rec = json.loads(lines[-2])
                except json.JSONDecodeError:
                    pass
            if rec is None:
                rec = {"workload": workload, "seed": seed, "trace": trace,
                       "attempted": 0, "failed": 0, "metrics": {}, "notes": {},
                       "problems": [f"exit {code} without a record: "
                                    + stderr.strip()[-500:]]}
            elif code != 0 and not rec.get("problems"):
                rec["problems"] = [f"exit {code}"]
            records.append(rec)
            with open(out, "a") as f:
                f.write(json.dumps(rec) + "\n")
            if failed_run(rec):
                log(f"{root.name}: {workload} seed {seed} FAILED (exit {code}): "
                    + "; ".join(rec["problems"])[:2000])
                continue
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in rec["metrics"].items()
                if k in gated))
    return records


def failed_run(record):
    """Whether a run failed its checks or left no usable record."""
    return bool(record.get("problems")) or record.get("attempted", 0) == 0


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def value(record, name):
    """A metric's value, or None when absent.  A tail is only comparable at
    one percentile, and the percentile follows the sample count: tails are
    reported as (percentile, value) so runs at different percentiles never
    pair up."""
    m = record["metrics"].get(name)
    if m is None:
        return None
    if name.endswith("_tail_ms"):
        tail = record["notes"].get(name[:-3], {})
        return (tail.get("percentile"), m["value"])
    return m["value"]


def metric_specs(spec):
    out = {m["name"]: (m["better"], m["bound"], m["unit"])
           for m in spec["end_to_end"]}
    for name, (better, bound) in EXTRA_METRICS.items():
        out.setdefault(name, (better, bound, "ms"))
    return out


def cmd_series(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    out = Path(args.out)
    records = run_series(ROOT, workloads, parse_seeds(args.seeds), args.trace,
                         out)
    print_spread(records, spec)
    return 1 if any(failed_run(r) for r in records) else 0


def print_spread(records, spec):
    """Per workload and metric: median, quartiles and the quartile spread as
    a share of the median, against a third of the metric's bound."""
    specs = metric_specs(spec)
    print(f"{'workload':<14} {'metric':<18} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound/3':>7}")
    for workload in sorted({r["workload"] for r in records}):
        rows = [r for r in records
                if r["workload"] == workload and not failed_run(r)]
        failed = sum(1 for r in records
                     if r["workload"] == workload and failed_run(r))
        if failed:
            print(f"{workload:<14} {'failed runs':<18} {failed:>3}  <-- FAILED")
        for name, (_, bound, _) in specs.items():
            vals = [value(r, name) for r in rows if value(r, name) is not None]
            if vals and isinstance(vals[0], tuple):
                # The tail at its most common percentile.
                pct = statistics.mode(p for p, _ in vals)
                name = f"{name}@p{pct:g}"
                vals = [v for p, v in vals if p == pct]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            flag = "" if spread < bound / 3 else "  <-- wide"
            print(f"{workload:<14} {name:<18} {len(vals):>3} {med:>12.5g} "
                  f"{q1:>12.5g} {q3:>12.5g} {spread:>7.3f} {bound / 3:>7.3f}"
                  f"{flag}")


def verdict(parent, change, better, bound):
    """The rules for claiming a gain: improved only when the change wins at
    least nine tenths of the pairs and the medians differ by more than the
    parent's quartile spread; regressed when the change's median is worse
    by more than the bound; unresolved when the parent's own spread is
    wider than the bound, unless every change run beats every parent run."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) > 0 for p in parent for c in change)
    wide = pm and spread / abs(pm) > bound
    if wins >= 0.9 * len(pairs) and sign * (pm - cm) > spread:
        return "improved", wins, losses
    if worse_by > bound and (not wide or all_worse):
        return "regressed", wins, losses
    if wide and not all_better:
        return "unresolved", wins, losses
    return "unchanged", wins, losses


def failures(records):
    """(failed runs, failed operations) of one side's records."""
    return (sum(1 for r in records if failed_run(r)),
            sum(r.get("failed", 0) for r in records))


def compare(parent_records, change_records, spec):
    """Prints one row per workload and metric, and one row per workload for
    its failures.  Returns 1 when anything regressed, and 2 when a workload
    has no usable run on one side, so nothing about it can be judged."""
    specs = metric_specs(spec)
    print(f"{'workload':<14} {'metric':<18} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>7} {'verdict':>11}")
    regressed = unjudged = False
    for workload in [w["name"] for w in spec["workloads"]]:
        pall = [r for r in parent_records if r["workload"] == workload]
        call = [r for r in change_records if r["workload"] == workload]
        if not pall and not call:
            continue
        # More failures at the change than at the parent is a regression,
        # and then no gain on this workload counts.
        (pruns, pops), (cruns, cops) = failures(pall), failures(call)
        worse = cruns > pruns or cops > pops
        regressed |= worse
        print(f"{workload:<14} {'failed runs/ops':<18} "
              f"{f'{pruns}/{len(pall)} runs, {pops} ops':>34} "
              f"{f'{cruns}/{len(call)} runs, {cops} ops':>34} {'':>7} "
              f"{'regressed' if worse else 'unchanged':>11}")
        prs = {r["seed"]: r for r in pall if not failed_run(r)}
        crs = {r["seed"]: r for r in call if not failed_run(r)}
        seeds = sorted(set(prs) & set(crs))
        if not seeds:
            print(f"{workload:<14} no seed with a usable run on both sides")
            unjudged = True
            continue
        for name, (better, bound, unit) in specs.items():
            pairs = [(value(prs[s], name), value(crs[s], name)) for s in seeds]
            pairs = [(a, b) for a, b in pairs if a is not None and b is not None
                     and (not isinstance(a, tuple) or a[0] == b[0])]
            p = [a[1] if isinstance(a, tuple) else a for a, _ in pairs]
            c = [b[1] if isinstance(b, tuple) else b for _, b in pairs]
            if not p:
                continue
            v, wins, _ = verdict(p, c, better, bound)
            if v == "improved" and worse:
                v = "unresolved"
            regressed |= v == "regressed"
            pq, cq = quartiles(p), quartiles(c)
            print(f"{workload:<14} {name:<18} "
                  f"{pq[1]:>12.5g} [{pq[0]:.4g}, {pq[2]:.4g}]".ljust(68)
                  + f"{cq[1]:>12.5g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(36)
                  + f"{wins:>3}/{len(p):<3} {v:>11}")
    if not parent_records or not change_records:
        log("compare: one side has no records")
        unjudged = True
    if regressed:
        return 1
    return 2 if unjudged else 0


def read_records(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def cmd_compare(args):
    spec = load_spec()
    if args.parent_records and args.change_records:
        return compare(read_records(args.parent_records),
                       read_records(args.change_records), spec)
    if not (args.parent and args.change):
        log("compare: give --parent-records/--change-records or "
            "--parent/--change checkout directories")
        return 2
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    pfile, cfile = out / "compare-parent.jsonl", out / "compare-change.jsonl"
    for f in (pfile, cfile):
        f.unlink(missing_ok=True)
    p_recs, c_recs = [], []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        # Alternate which side runs first, pair by pair.  Each side runs
        # at the run length of its own BENCHMARK.json.
        order = [(parent, pfile, p_recs), (change, cfile, c_recs)]
        for root, f, recs in (order if i % 2 == 0 else order[::-1]):
            recs += run_series(root, workloads, [seed], 0, f)
    return compare(p_recs, c_recs, spec)


# ---- self-test ------------------------------------------------------------------


def cmd_selftest(args):
    """Tiny-scale smoke: every workload at the default and a held-out seed,
    untraced and traced; every named metric must appear with its unit and
    every check must pass.  Then the benchmark must refuse to run without
    the library sources."""
    spec = load_spec()
    binary = build()
    if binary is None:
        log("selftest: build failed")
        return 1
    failures = 0
    for w in spec["workloads"]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                record, err = run_once(ROOT, binary, w["name"], seed, 1, trace,
                                       tiny=True)
                if record is None:
                    problems = [err]
                else:
                    problems = judge(ROOT, record, spec)
                status = "ok" if not problems else "FAIL"
                failures += bool(problems)
                print(f"{w['name']:<14} seed {seed:<5} trace {trace}  {status}"
                      + "".join(f"\n    {p}" for p in problems))
    # A directory holding only BENCHMARK.json and the benchmark must fail
    # without printing a result.
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload",
             spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S)
        ok = r.returncode != 0 and not r.stdout.strip()
        failures += not ok
        print(f"{'bare checkout':<14} exit {r.returncode}  "
              f"{'ok' if ok else 'FAIL: expected a non-zero exit and no output'}")
    print("selftest " + ("passed" if failures == 0 else f"FAILED ({failures})"))
    return 0 if failures == 0 else 1


def main(argv):
    if argv and argv[0] in ("selftest", "series", "compare"):
        mode, argv = argv[0], argv[1:]
        p = argparse.ArgumentParser(prog=f"run.py {mode}")
        if mode == "series":
            p.add_argument("--seeds", default="1-10")
            p.add_argument("--workloads")
            p.add_argument("--trace", type=int, default=0, choices=(0, 1))
            p.add_argument("--out", required=True)
            return cmd_series(p.parse_args(argv))
        if mode == "compare":
            p.add_argument("--parent-records")
            p.add_argument("--change-records")
            p.add_argument("--parent")
            p.add_argument("--change")
            p.add_argument("--seeds", default="1-10")
            p.add_argument("--workloads")
            return cmd_compare(p.parse_args(argv))
        return cmd_selftest(p.parse_args(argv))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
