#!/usr/bin/env python3
"""End-to-end benchmark of the perdec command line, with a traced mode.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 15 \\
        --trace 0

Run it from the root of a perdec checkout; it imports perdec from `src/`
and fails (exit 1, no result) when that is missing.  The seed fixes the
input corpus, which is generated in a child process so that its memory is
not charged to the measured one.  One client then calls the public entry
point `perdec.cli.main(argv)` job after job in this single process (a
closed loop, one thread, no subprocess per job), running whole passes over
the corpus until `--seconds` have passed and at least 100 jobs completed.
Every output is then checked by the independent oracles in oracle.py, and
the result bytes of every job are hashed and compared across repeated
executions and, for the default seed, with expected_digests.json.

`--trace 0` prints the end-to-end metrics (jobs_per_s, job_s.p50,
job_s.p90, peak_rss_mb, setup_s; times calibrated as explained at
REF_SECONDS, raw wall figures in the report); `--trace 1` runs one untraced
and one traced pass and prints the per-layer metrics of tracer.py plus the
tracing overhead.  The last stdout line is the JSON result; the line before
it is a JSON report with the environment, counts and failed_frac, which is
also written to .perfbench/results/.  `--record-digests` re-records
expected_digests.json after a change that is meant to alter result bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "expected_digests.json")

DEFAULT_SEED = 1
MIN_JOBS = 100      # p90 keeps at least ten samples beyond it

# The hosts this runs on are shared: the speed one process gets swings by up
# to 1.6x in spells of a few seconds, and more work per run does not average
# that out.  So every timing is calibrated: a fixed pure-Python loop is timed
# right before and right after each timed call, and the call's wall time is
# scaled by REF_SECONDS / (mean loop time).  REF_SECONDS is the loop's time
# on a quiet 2-CPU Xeon host, where calibrated and wall seconds agree; the
# report keeps the raw wall figures too.
REF_SECONDS = 0.0012
SETUP_PROBES = 3    # fresh interpreters timed for setup_s before each pass
                    # and after the last one

sys.path.insert(0, HERE)
import oracle  # noqa: E402
from corpus import WORKLOADS  # noqa: E402

# what a user waits for before the first job: interpreter start, importing
# perdec and building the CLI parser; the child prints the monotonic clock,
# which the parent's clock shares, once its parser is ready
_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); import perdec.cli; "
          "perdec.cli.build_parser(); print(repr(time.monotonic()))")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="run every workload once at the default seed and "
                        "write expected_digests.json")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_digests:
        p.error("--workload is required")
    return args


def _import_perdec():
    if not os.path.isfile(os.path.join(SRC, "perdec", "cli.py")):
        raise RuntimeError(f"no perdec sources under {SRC}")
    sys.path.insert(0, SRC)
    import perdec.cli
    if not os.path.realpath(perdec.cli.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"perdec imported from {perdec.cli.__file__}, "
                           f"not from {SRC}")
    return perdec.cli


def generate(workload, seed, directory):
    """Build the corpus in a child process; returns its jobs.json summary."""
    subprocess.run([sys.executable, os.path.join(HERE, "corpus.py"),
                    workload, str(seed), directory],
                   check=True, timeout=120)
    with open(os.path.join(directory, "jobs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def calibration_loop():
    """Seconds taken by a fixed loop of dict, tuple and integer work."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(4000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += (i * 7) // 3
    return time.perf_counter() - t0


def timed(fn):
    """(fn(), wall seconds, calibrated seconds, mean calibration loop)."""
    r0 = calibration_loop()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    ref = (r0 + calibration_loop()) / 2
    return result, wall, wall * REF_SECONDS / ref, ref


def probe_setup(samples):
    """Append SETUP_PROBES (wall, calibrated) set-up times to samples."""
    code = _PROBE.format(src=SRC)

    def probe():
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=60)
        return float(done.stdout) - t0
    for _ in range(SETUP_PROBES):
        seconds, _, _, ref = timed(probe)
        samples.append((seconds, seconds * REF_SECONDS / ref))


def run_pass(cli, jobs, out_root, label, tracer=None):
    """One pass over the corpus; returns (records, wall seconds).

    Each record holds the job's calibrated `seconds`, its `wall` seconds and
    the mean calibration loop `ref` around it.
    """
    records = []
    sink = io.StringIO()
    t_start = time.perf_counter()
    with contextlib.redirect_stderr(sink):
        for job in jobs:
            out = os.path.join(out_root, f"{label}-{job['index']:03d}")
            argv = ["--out", out] + job["argv"]
            if tracer is not None:
                tracer.job = f"{label}-{job['index']:03d}"

            def call():
                try:
                    return cli.main(argv)
                except Exception as exc:  # a crash fails the job only
                    return f"{type(exc).__name__}: {exc}"
            rc, wall, seconds, ref = timed(call)
            records.append({"job": job, "out": out, "exit": rc,
                            "seconds": seconds, "wall": wall, "ref": ref})
            sink.seek(0)
            sink.truncate()
    return records, time.perf_counter() - t_start


def jobs_per_second(records, key="seconds"):
    return len(records) / sum(r[key] for r in records)


def verify(records, expected):
    """Count wrong outcomes; expected holds per-job digests or None.

    The first execution of each job goes through its oracle; later ones must
    reproduce its result bytes.  Outputs are deleted once checked.
    """
    first = {}
    failures = []
    for rec in records:
        job = rec["job"]
        idx = job["index"]
        digest = oracle.result_digest(rec["out"])
        if idx not in first:
            problems = oracle.check(job, rec["out"], rec["exit"])
            first[idx] = digest
        else:
            problems = oracle.check(job, rec["out"], rec["exit"], full=False)
            if digest != first[idx]:
                problems.append("result bytes differ from the first run")
        if expected is not None and digest != expected[idx]:
            problems.append("result digest differs from the stored one")
        if problems:
            failures.append({"job": idx, "kind": job["kind"],
                             "problems": problems})
        shutil.rmtree(rec["out"], ignore_errors=True)
    combined = hashlib.sha256(
        "".join(first[i] for i in sorted(first)).encode()).hexdigest()
    return failures, [first[i] for i in sorted(first)], combined


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment(seed):
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "perdec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "commit": _commit(),
            "source_sha256": src_hash.hexdigest(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "seed": seed}


def _commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stored_digests(workload, seed, corpus_digest):
    if seed != DEFAULT_SEED or not os.path.isfile(DIGESTS):
        return None, None
    with open(DIGESTS, encoding="utf-8") as fh:
        stored = json.load(fh).get(workload)
    if stored is None:
        return None, None
    if stored["corpus_sha256"] != corpus_digest:
        return None, "the default-seed corpus differs from the recorded one"
    return stored["jobs"], None


def benchmark(args):
    cli = _import_perdec()
    # one core for the jobs, the calibration loop and the set-up probes
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = os.path.join(STATE, f"{args.workload}-seed{args.seed}-"
                               f"trace{args.trace}-{os.getpid()}")
    try:
        corpus = generate(args.workload, args.seed,
                          os.path.join(work, "inputs"))
        jobs = corpus["jobs"]
        expected, stale = _stored_digests(args.workload, args.seed,
                                          corpus["digest"])
        out_root = os.path.join(work, "out")
        records = []
        tracer = None
        if args.trace:
            from tracer import Tracer
            untraced, _ = run_pass(cli, jobs, out_root, "untraced")
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = run_pass(cli, jobs, out_root, "traced", tracer)
            finally:
                tracer.uninstall()
            records = untraced + traced
            metrics = tracer.metrics(jobs_per_second(untraced),
                                     jobs_per_second(traced))
        else:
            # set-up probes are spread over the run, outside the timed
            # passes, so that one slow spell of the host cannot set them all
            setup, passes, pass_seconds = [], [], []
            while sum(pass_seconds) < args.seconds or len(records) < MIN_JOBS:
                probe_setup(setup)
                recs, seconds = run_pass(cli, jobs, out_root,
                                         f"p{len(passes)}")
                records += recs
                passes.append(recs)
                pass_seconds.append(seconds)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            probe_setup(setup)
            metrics = _end_to_end(records, passes, setup, "seconds", 1)
            metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
            wall = _end_to_end(records, passes, setup, "wall", 0)
        failures, _, combined = verify(records, expected)
        failed = len(failures)
        if stale:
            failed = len(records)
            failures.append({"job": None, "kind": None, "problems": [stale]})
        report = {
            "workload": args.workload, "trace": args.trace,
            "environment": environment(args.seed),
            "jobs_per_pass": len(jobs), "jobs_run": len(records),
            "corpus_size": corpus["size"],
            "corpus_sha256": corpus["digest"],
            "result_sha256": combined,
            "digest_checked": expected is not None,
            "failed_frac": {"value": failed / len(records), "unit": "ratio"},
            "seconds_by_kind": _by_kind(records),
            "failures": failures[:20],
        }
        refs = [r["ref"] for r in records]
        report["calibration_loop_s"] = {"median": statistics.median(refs),
                                        "min": min(refs), "max": max(refs)}
        if args.trace:
            report["spans"] = len(tracer.spans)
        else:
            report.update(wall=wall, pass_seconds=pass_seconds,
                          job_s_samples=len(records),
                          setup_s_samples=len(setup))
        _write_results(args, report, tracer)
        for name, m in list(metrics.items()) + [
                ("failed_frac", report["failed_frac"])]:
            print(f"{args.workload} {name}: {m['value']:.6g} {m['unit']}")
        print(json.dumps({"report": report}, sort_keys=True))
        print(json.dumps({"correct": failed == 0, "attempted": len(records),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _end_to_end(records, passes, setup, key, column):
    """Timing metrics from `key` of the records and `column` of setup."""
    times = [r[key] for r in records]
    return {
        # the median pass resists one slow spell of the host
        "jobs_per_s": {"value": statistics.median(
            jobs_per_second(p, key) for p in passes), "unit": "1/s"},
        "job_s.p50": {"value": percentile(times, 0.5), "unit": "s"},
        "job_s.p90": {"value": percentile(times, 0.9), "unit": "s"},
        "setup_s": {"value": statistics.median(s[column] for s in setup),
                    "unit": "s"},
    }


def _by_kind(records):
    """{job kind: [executions, total seconds]} over all timed jobs."""
    out = {}
    for rec in records:
        entry = out.setdefault(rec["job"]["kind"], [0, 0.0])
        entry[0] += 1
        entry[1] += rec["seconds"]
    return out


def _write_results(args, report, tracer):
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if tracer is not None:
        # one line per span: name, start, end, parent span index, job id
        with open(os.path.join(results, stem + "-spans.jsonl"), "w",
                  encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def record_digests():
    """Run each workload once at the default seed and store its digests."""
    cli = _import_perdec()
    stored = {}
    for workload in WORKLOADS:
        work = os.path.join(STATE, f"record-{workload}-{os.getpid()}")
        try:
            corpus = generate(workload, DEFAULT_SEED,
                              os.path.join(work, "inputs"))
            records = []
            for label in ("a", "b"):
                recs, _ = run_pass(cli, corpus["jobs"],
                                   os.path.join(work, "out"), label)
                records += recs
            failures, job_digests, combined = verify(records, None)
            if failures:
                print(json.dumps(failures[:5], indent=1), file=sys.stderr)
                raise RuntimeError(f"{workload}: oracles failed; "
                                   "refusing to record digests")
            stored[workload] = {"seed": DEFAULT_SEED,
                                "corpus_sha256": corpus["digest"],
                                "result_sha256": combined,
                                "jobs": job_digests}
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None):
    args = _parse_args(argv)
    try:
        if args.record_digests:
            return record_digests()
        return benchmark(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
