#!/usr/bin/env python3
"""End-to-end serve benchmark for hddpred.

Run from the repository root:

    python3 benches/perfbench/run.py --workload durable-restart --seed 1 --seconds 45 --trace 0

Builds `hddpred` and the `perfbench` helper from source, writes the
workload's inputs from the seed, then repeats (train, serve) on the
production binary until `--seconds` have passed, checking every
repetition's output before any metric is printed. `--trace 1` instead
runs the traced in-process loop and prints per-layer metrics. The last
stdout line is one JSON object; see benches/perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("hourly-fleet", "durable-restart", "drift-retrain")
# Timed repetitions per run, at least; more while --seconds allow.
MIN_REPS = 3
# Untraced binary runs a traced run takes its overhead base from.
UNTRACED_RUNS = 2
WORK_ROOT = ".perfbench-work"
# End-to-end metrics measured in every repetition.
TIMED = ("setup_s", "rows_per_s", "peak_rss_mb", "recovery_s")
# `hddpred train` runs per repetition: each is a set-up sample, and all
# must write the same model.
TRAINS = 2

STATUS = re.compile(
    r"exiting \((?P<shards>\d+) shard\(s\), (?P<drives>\d+) drives, (?P<rows>\d+) rows, "
    r"(?P<alarms>\d+) alarms, (?P<suppressed>\d+) suppressed, (?P<quarantined>\d+) quarantined, "
    r"(?P<stale>\d+) stale, (?P<transitions>\d+) transitions, (?P<replayed>\d+) replayed, "
    r"(?P<rotations>\d+) rotations, (?P<dropped>\d+) dropped\)"
)

# Which end-to-end metric each per-layer metric feeds.
FEEDS = [
    ("ckpt.resume", "recovery_s"),
    ("train.", "setup_s"),
    ("process.", "peak_rss_mb"),
    ("state.", "peak_rss_mb"),
    ("trace.", "-"),
    ("quality.", "-"),
    ("", "rows_per_s"),
]


class GateError(Exception):
    """A repetition's output failed the correctness gate."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "hddpred"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "benches/perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "hddpred"), os.path.join(target, "release", "perfbench"))


def fs_type(path):
    """File-system type of the mount holding `path` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, kind = mount, right.split()[0]
    except OSError:
        pass
    return kind


def helper(pb, *args):
    out = subprocess.run([pb, *args], stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise GateError(f"perfbench {args[0]} failed (see above)")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_child(cmd, log_path):
    """Run one child to exit; return (wall seconds, exit code, peak RSS MiB, stderr text)."""
    with open(log_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path) as f:
        text = f.read()
    # ru_maxrss is in KiB on Linux.
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, text


def serve_cmd(hddpred, inputs, feeds, model, sink, checkpoint=None):
    cmd = [
        hddpred, "serve",
        "--feed", ",".join(feeds),
        "--model", model,
        "--out", sink,
        "--shards", str(inputs["shards"]),
        "--threads", str(inputs["threads"]),
        "--voters", str(inputs["voters"]),
        "--exit-on-idle", "1",
        "--tick-budget-ms", str(inputs["tick_budget_ms"]),
    ]
    if checkpoint:
        cmd += ["--checkpoint", checkpoint]
    if inputs["retrain"]:
        r, s, p = inputs["retrain"]
        cmd += ["--retrain-rows", str(r), "--shadow-rows", str(s), "--probation-rows", str(p)]
    return cmd


def status_of(text, what):
    found = STATUS.findall(text)
    if not found:
        raise GateError(f"{what}: no exit status line")
    keys = list(STATUS.groupindex)
    return {k: int(v) for k, v in zip(keys, found[-1])}


def check_status(status, rows, what):
    if status["rows"] != rows:
        raise GateError(f"{what}: committed {status['rows']} rows, {rows} were written")
    for key in ("dropped", "quarantined", "stale", "suppressed"):
        if status[key] != 0:
            raise GateError(f"{what}: {status[key]} {key} rows")


def append_tails(feeds, tails):
    for feed, tail in zip(feeds, tails):
        with open(tail) as src, open(feed, "a") as dst:
            src.readline()  # the tail's header line
            shutil.copyfileobj(src, dst)


def copy_feeds(inputs, into):
    copies = []
    for k, feed in enumerate(inputs["feeds"]):
        copy = os.path.join(into, f"feed-{k}.csv")
        shutil.copyfile(feed, copy)
        copies.append(copy)
    return copies


def train(hddpred, inputs, out, log_path):
    wall, code, _, text = run_child(
        [hddpred, "train", "--data", inputs["train"], "--out", out, "--threads", str(inputs["threads"])],
        log_path,
    )
    if code != 0:
        raise GateError(f"train exited {code}: {text[-400:]}")
    return wall


def reference_sink(hddpred, inputs, work):
    """Durable runs: an uninterrupted, checkpoint-free run over feed + tail."""
    ref = os.path.join(work, "reference")
    os.makedirs(ref)
    feeds = copy_feeds(inputs, ref)
    append_tails(feeds, inputs["tails"])
    model = os.path.join(ref, "model.json")
    train(hddpred, inputs, model, os.path.join(ref, "train.log"))
    sink = os.path.join(ref, "alarms.csv")
    _, code, _, text = run_child(serve_cmd(hddpred, inputs, feeds, model, sink), os.path.join(ref, "serve.log"))
    if code != 0:
        raise GateError(f"reference serve exited {code}")
    check_status(status_of(text, "reference serve"), inputs["feed_rows"] + inputs["tail_rows"], "reference serve")
    with open(sink, "rb") as f:
        return f.read()


def same_file(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def scored(pb, inputs, sink):
    """Score a sink against the truth; it must detect and name only fleet drives."""
    score = helper(pb, "score", "--truth", inputs["truth"], "--sink", sink)
    if score["alarms"] == 0 or score["fdr"] <= 0:
        raise GateError(f"no detection: {score}")
    if score["unknown_drives"] or score["malformed"]:
        raise GateError(f"sink names drives outside the fleet or is malformed: {score}")
    return score


def serve(hddpred, inputs, rep, model):
    """Serve the feeds into a fresh sink; on durable runs append the
    withheld waves and restart on the same checkpoint. Every child must
    exit 0 having committed every row written. Returns (wall seconds per
    child, peak RSS MiB over the children, sink path)."""
    durable = bool(inputs["tails"])
    feeds = copy_feeds(inputs, rep) if durable else inputs["feeds"]
    sink = os.path.join(rep, "alarms.csv")
    ckpt = os.path.join(rep, "ckpt") if inputs["checkpoint"] else None
    cmd = serve_cmd(hddpred, inputs, feeds, model, sink, ckpt)
    walls, rss = [], 0.0
    for what in ("serve", "restart") if durable else ("serve",):
        rows = inputs["feed_rows"]
        if what == "restart":
            append_tails(feeds, inputs["tails"])
            rows += inputs["tail_rows"]
        wall, code, peak, text = run_child(cmd, os.path.join(rep, f"{what}.log"))
        if code != 0:
            raise GateError(f"{what} exited {code}: {text[-400:]}")
        check_status(status_of(text, what), rows, what)
        walls.append(wall)
        rss = max(rss, peak)
    return walls, rss, sink


def repetition(k, hddpred, pb, inputs, work, reference):
    """Train, serve (and restart), gate. Returns the measurements and the sink."""
    rep = os.path.join(work, f"rep-{k}")
    os.makedirs(rep)
    model = os.path.join(rep, "model.json")
    setup = [train(hddpred, inputs, model, os.path.join(rep, "train.log"))]
    for t in range(1, TRAINS):
        again = os.path.join(rep, f"model-{t}.json")
        setup.append(train(hddpred, inputs, again, os.path.join(rep, f"train-{t}.log")))
        if not same_file(again, model):
            raise GateError("`hddpred train` is not deterministic")
    # A promotion at the final idle quiesce rewrites the served file in
    # place, so serve a copy and keep the trained file for the checks.
    served = os.path.join(rep, "served.json")
    shutil.copyfile(model, served)
    walls, rss, sink = serve(hddpred, inputs, rep, served)
    out = {
        "setup_s": setup,
        "rows_per_s": inputs["feed_rows"] / walls[0],
        "peak_rss_mb": rss,
        # Without --checkpoint a restarted daemon replays its feeds from
        # the start, so the serve child itself is the recovery.
        "recovery_s": walls[-1],
    }
    score = scored(pb, inputs, sink)
    if k == 0:
        # An independent replay of the same lines through the engine's
        # library calls must raise exactly the sink's alarms.
        helper(pb, "check", "--workload", inputs["workload"], "--dir", inputs["dir"],
               "--model", model, "--sink", sink)
    with open(sink, "rb") as f:
        produced = f.read()
    if reference is not None and produced != reference:
        what = "uninterrupted run's" if inputs["tails"] else "first repetition's"
        raise GateError(f"sink differs from the {what} ({len(produced)} vs {len(reference)} bytes)")
    out.update({k: score[k] for k in ("fdr", "far", "tia_h", "alarms", "sink_fnv")})
    shutil.rmtree(rep)
    return out, produced


def timed(args, hddpred, pb, inputs, work):
    rows = inputs["feed_rows"] + inputs["tail_rows"]
    reps, attempted, failed = [], 0, 0
    try:
        reference = reference_sink(hddpred, inputs, work) if inputs["tails"] else None
        start = time.perf_counter()
        # Start another repetition only while it is expected to end
        # within --seconds (after the first MIN_REPS).
        while len(reps) < MIN_REPS or (time.perf_counter() - start) * (len(reps) + 1) / len(reps) <= args.seconds:
            attempted += rows
            out, sink = repetition(len(reps), hddpred, pb, inputs, work, reference)
            reference = reference or sink
            reps.append(out)
            log(f"repetition {len(reps)}: setup_s {' '.join(f'{x:.6g}' for x in out['setup_s'])}, "
                + ", ".join(f"{k} {out[k]:.6g}" for k in TIMED[1:]))
    except GateError as e:
        log(f"correctness gate failed: {e}")
        attempted = max(attempted, rows)
        failed = rows
    if failed or not reps:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    med = {k: statistics.median(r[k] for r in reps) for k in TIMED[1:]}
    med["setup_s"] = statistics.median(x for r in reps for x in r["setup_s"])
    first = reps[0]
    metrics = {
        "setup_s": (med["setup_s"], "s"),
        "rows_per_s": (med["rows_per_s"], "rows/s"),
        "peak_rss_mb": (med["peak_rss_mb"], "MiB"),
        "recovery_s": (med["recovery_s"], "s"),
    }
    log(
        f"{args.workload} seed {args.seed}: {len(reps)} repetitions, {rows} rows each, "
        f"{first['alarms']} alarms; work dir on {fs_type(work)}"
    )
    for name, (value, unit) in metrics.items():
        log(f"  {name:12} {value:14.6g} {unit}")
    print(quality_line(first))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def quality(score):
    """Detection quality of one sink, as per-layer metrics. These are
    deterministic per seed: a performance change must leave every one
    exactly as the parent commit had it on the same seed."""
    return {
        "quality.fdr": {"value": score["fdr"], "unit": "fraction"},
        "quality.far": {"value": score["far"], "unit": "fraction"},
        "quality.tia_h": {"value": score["tia_h"], "unit": "h"},
        # FNV-1a 64 of the sink, folded to 32 bits so a JSON double holds it exactly.
        "quality.sink_fnv32": {"value": (score["sink_fnv"] ^ (score["sink_fnv"] >> 32)) & 0xFFFFFFFF,
                               "unit": "fnv32"},
    }


def quality_line(score):
    return "quality: " + ", ".join(f"{k} {v['value']:.10g}" for k, v in quality(score).items())


def feeds_metric(name):
    return next(e2e for prefix, e2e in FEEDS if name.startswith(prefix))


def predictions(workload, m, trace):
    """Predicted-vs-measured lines for the README's predictions on this workload."""
    v = {k: x["value"] for k, x in m.items()}
    lines = []

    def verdict(ok):
        return "confirmed" if ok else "refuted"

    if workload == "hourly-fleet":
        amp = v["ingest.read_amp"]
        lines.append(f"ingest.read_amp ~ 80 (within 2x): measured {amp:.1f} -> {verdict(40 <= amp <= 160)}")
        engine = v["parse.ms"] + v["extract.ms"]
        lines.append(
            f"parse + extract far exceed score (>= 3x): {engine:.0f} ms vs {v['score.ms']:.0f} ms "
            f"-> {verdict(engine >= 3 * v['score.ms'])}"
        )
    if workload in ("hourly-fleet", "drift-retrain"):
        par = v["tick.parallelism"]
        lines.append(f"tick.parallelism well under 2 at 2 shards (< 1.5): measured {par:.2f} -> {verdict(par < 1.5)}")
    if workload == "durable-restart":
        share = trace["first_child_save_ms"] / trace["first_child_ms"]
        lines.append(
            f"checkpoint saves are most of the first child (> 50%): {trace['first_child_save_ms']:.0f} ms "
            f"= {share:.0%} of {trace['first_child_ms']:.0f} ms -> {verdict(share > 0.5)}"
        )
        curve = sorted(trace["resume_curve"]) + [[v["ckpt.resume_bytes"], v["ckpt.resume_ms"]]]
        (b0, t0), (b1, t1) = curve[0], curve[-1]
        if b1 > b0 and t0 > 0 and t1 > 0:
            exponent = math.log(t1 / t0) / math.log(b1 / b0)
            pts = ", ".join(f"{b / 1e3:.0f} KB: {t:.1f} ms" for b, t in curve)
            lines.append(
                f"ckpt.resume_ms superlinear in checkpoint bytes (exponent > 1): {pts}; "
                f"exponent {exponent:.2f} -> {verdict(exponent > 1)}"
            )
    if workload == "drift-retrain":
        calls = (v["lifecycle.consume_ms"] + v["lifecycle.apply_ms"]) / trace["traced_wall_ms"]
        whole = trace["lifecycle_share"]
        lines.append(
            f"lifecycle about a third of drift-retrain (20-50%): binary with vs without --retrain-rows "
            f"{whole:.0%} -> {verdict(0.2 <= whole <= 0.5)}; of which the manager calls {calls:.0%} "
            f"(the rest is event recording inside tick)"
        )
    return lines


def traced(args, hddpred, pb, inputs, work):
    rows = inputs["feed_rows"] + inputs["tail_rows"]
    model = os.path.join(work, "model.json")
    try:
        train(hddpred, inputs, model, os.path.join(work, "train.log"))
        # The untraced binary runs: the reference sink and wall time.
        walls, frozen_walls, sinks = [], [], []
        for k in range(UNTRACED_RUNS):
            rep = os.path.join(work, f"untraced-{k}")
            os.makedirs(rep)
            shutil.copyfile(model, os.path.join(rep, "model.json"))
            child_walls, _, sink = serve(hddpred, inputs, rep, os.path.join(rep, "model.json"))
            walls.append(sum(child_walls))
            with open(sink, "rb") as f:
                sinks.append(f.read())
            if inputs["retrain"]:
                # The same serve with the lifecycle off, for its share of the wall time.
                frozen = os.path.join(rep, "frozen")
                os.makedirs(frozen)
                shutil.copyfile(model, os.path.join(frozen, "model.json"))
                frozen_walls.append(
                    sum(serve(hddpred, dict(inputs, retrain=None), frozen, os.path.join(frozen, "model.json"))[0])
                )
        if any(s != sinks[0] for s in sinks):
            raise GateError("untraced runs wrote different sinks")
        score = scored(pb, inputs, sink)
    except GateError as e:
        log(f"correctness gate failed: {e}")
        print(json.dumps({"correct": False, "attempted": rows, "failed": rows, "metrics": {}}))
        return 1
    spans = os.path.join(work, "spans.jsonl")
    out = subprocess.run(
        [pb, "trace", "--workload", args.workload, "--dir", inputs["dir"], "--model", model,
         "--ref-sink", sink, "--work", os.path.join(work, "traced"), "--spans", spans],
        stdout=subprocess.PIPE, text=True,
    )
    if out.returncode != 0:
        log("correctness gate failed: traced run (see above)")
        print(json.dumps({"correct": False, "attempted": rows, "failed": rows, "metrics": {}}))
        return 1
    trace = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = trace["metrics"]
    metrics.update(quality(score))
    untraced_ms = statistics.median(walls) * 1e3
    if frozen_walls:
        trace["lifecycle_share"] = 1 - statistics.median(frozen_walls) * 1e3 / untraced_ms
    metrics["trace.overhead"] = {"value": trace["traced_wall_ms"] / untraced_ms, "unit": "ratio"}

    table = [f"per-layer metrics, {args.workload}, seed {args.seed}, work dir on {fs_type(work)}",
             f"{'metric':24} {'unit':6} {'value':>16}  feeds"]
    for name, x in metrics.items():
        table.append(f"{name:24} {x['unit']:6} {x['value']:16.6g}  {feeds_metric(name)}")
    table.append(
        f"tracing overhead: traced {trace['traced_wall_ms']:.0f} ms / untraced {untraced_ms:.0f} ms "
        f"= {metrics['trace.overhead']['value']:.3f}"
    )
    table += ["prediction: " + line for line in predictions(args.workload, metrics, trace)]
    table.append(f"spans: {spans}")
    with open(os.path.join(work, "trace-table.txt"), "w") as f:
        f.write("\n".join(table) + "\n")
    print("\n".join(table))
    attempted = rows * (UNTRACED_RUNS + trace["passes"])
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates") and os.path.isfile("benches/perfbench/Cargo.toml")):
        fail("run from the repository root (Cargo.toml, crates/ and benches/perfbench/ must be here)")
    hddpred, pb = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = helper(pb, "gen", "--workload", args.workload, "--seed", str(args.seed),
                        "--dir", os.path.join(work, "inputs"))
    except GateError as e:
        fail(str(e))
    inputs.update(workload=args.workload, dir=os.path.join(work, "inputs"))
    # Write the inputs back now: left dirty, the kernel flushes them
    # about 30 s later, in the middle of a timed child.
    for entry in os.scandir(inputs["dir"]):
        fd = os.open(entry.path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    try:
        return (traced if args.trace else timed)(args, hddpred, pb, inputs, work)
    finally:
        # Keep the span file and the table; drop feeds, sinks and checkpoints.
        for entry in os.listdir(work):
            path = os.path.join(work, entry)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
