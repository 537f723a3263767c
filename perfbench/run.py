"""The rhodf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cubic-close --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src``.  The run generates its inputs from the seed, runs each ``rhodf``
command in a fresh process one at a time (a closed loop with one
client), runs the batch in process, checks every output with an oracle
and prints one JSON line last: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  The full record (environment,
exact counts, output digests, every sample and, when traced, every
span) goes to ``perfbench/.work/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PRIMARY_SHARE = 0.7  # of --seconds; the other three operations share the rest but set-up's
# Set-up is repeated through the run, not only before it: one set-up
# takes milliseconds, and a burst of them at the start would catch a
# single speed spell of the machine rather than the run's mix.
SETUP_SHARE = 0.04
CMD_TIMEOUT_S = 30.0
NO_NEW_WORK_AFTER_S = 120.0
TRIM = 0.1  # share of times dropped at each end by trimmed_mean
COUNT_PREFIX = 10  # distinct commands of a kind whose exact counts are summed
OPS = ("close", "model", "entail", "batch")
MIN_SAMPLES = {"close": 3, "model": 3, "entail": 11, "batch": 20, "setup": 11}
# The rules that fire in some workload's named operation: all but the map
# rules 1a/1b and the star rules 2d/2e, which no workload's input reaches.
FIRE_RULES = [f"{n}{c}" for n, cs in ((2, "abc"), (3, "abcde"), (4, "abcdefgh"), (5, "ab"), (6, "abcde"), (7, "abcde"), (8, "ab")) for c in cs]


def tail(values: List[float]):
    """(value, percentile) of the highest nearest-rank percentile with at
    least ten samples above it; the median when there are too few."""
    xs = sorted(values)
    k = len(xs) - 11
    if k < (len(xs) - 1) // 2 + 1:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def trimmed_mean(values: List[float], cut: float = TRIM) -> float:
    """Mean of the values left once the lowest and highest ``cut`` share
    of them are dropped.

    The machine's speed switches between levels about 1.5x apart, in
    spells that can outlast a command, so repeated times of one
    operation cluster at two levels.  Their median jumps from one level
    to the other as the mix shifts from run to run, while a mean moves
    with the mix in proportion.  The cut drops outliers such as the rare
    random graph whose closure takes seconds.
    """
    xs = sorted(values)
    k = int(len(xs) * cut)
    kept = xs[k : len(xs) - k] or xs
    return sum(kept) / len(kept)


def digest(text: str) -> str:
    return hashlib.sha256("\n".join(sorted(text.splitlines())).encode()).hexdigest()


def child_env() -> Dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


@contextlib.contextmanager
def launcher():
    """The small process that spawns every command; see launch.py.

    On an error or a signal it is terminated, and it kills the command
    it is running.
    """
    proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        yield proc
    except BaseException:
        proc.terminate()
        proc.wait()
        raise
    proc.stdin.close()
    proc.wait()


class Runner:
    """Runs the operations of one plan and keeps a record of each."""

    def __init__(self, plan, inputs: Path, trace: bool, work: Path, spawner: subprocess.Popen,
                 set_up: Optional[Callable[[], dict]] = None):
        self.plan = plan
        self.set_up = set_up
        self.inputs = inputs
        self.trace = trace
        self.work = work
        self.spawner = spawner
        self.tracer = None
        self.ops: List[dict] = []
        self.digests: Dict[str, str] = {}

    def run_command(self, cmd) -> dict:
        out_path, err_path, span_path = self.work / "out.txt", self.work / "err.txt", self.work / "spans.json"
        if self.trace:
            argv = [sys.executable, str(HERE / "tracecli.py"), str(span_path), cmd.op, *cmd.args]
        else:
            argv = [sys.executable, "-m", "rhodf.cli", cmd.op, *cmd.args]
        req = {"argv": argv, "cwd": str(self.inputs), "stdout": str(out_path), "stderr": str(err_path), "timeout": CMD_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        res = json.loads(self.spawner.stdout.readline())
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if res["timed_out"]:
            failure = f"timed out after {CMD_TIMEOUT_S:.0f} s"
        elif "Traceback (most recent call last)" in stderr:
            failure = "traceback: " + stderr.strip().splitlines()[-1]
        elif res["code"] != cmd.expect_code:
            failure = f"exit {res['code']}, expected {cmd.expect_code}"
        else:
            failure = cmd.oracle(stdout)
        if failure is None and cmd.op in ("close", "model"):
            d = digest(stdout)
            key = f"{cmd.op} {' '.join(cmd.args)}"
            if self.digests.setdefault(key, d) != d:
                failure = "output differs from the first run of the same command"
        rec = {"op": cmd.op, "args": cmd.args, "failure": failure, **res}
        if self.trace and span_path.exists():
            rec["spans"] = json.loads(span_path.read_text(encoding="utf-8"))
            span_path.unlink()
        return rec

    def run_graph(self, text: str) -> dict:
        from rhodf import parser, reasoner, semantics
        from workloads import batch_oracle

        if self.trace and self.tracer is None:
            from spans import Tracer

            self.tracer = Tracer()
            self.tracer.install()
        first = len(self.tracer.spans) if self.tracer else 0
        start = time.perf_counter()
        try:
            g = parser.parse_graph(text)
            cl = reasoner.closure(g)
            model = semantics.canonical_model(g)
            failure = batch_oracle(semantics.check_model(model, cl.closure))
        except Exception as exc:  # a crash is a failed operation, not a stopped run
            failure = f"{type(exc).__name__}: {exc}"
        rec = {"op": "batch", "wall_s": time.perf_counter() - start, "failure": failure}
        if self.tracer:
            rec["spans"] = self.tracer.spans[first:]
        return rec

    def run(self, seconds: float, hard_stop: float) -> None:
        """Run the four operations and the set-up interleaved for ``seconds``.

        The machine's speed drifts by tens of percent over seconds, so
        each operation's samples are spread over the whole run rather
        than taken in one slice of it: the next operation is always the
        one furthest behind its share of the time.  After the deadline,
        only operations short of their minimum sample count go on.
        """
        kinds = OPS + ("setup",)
        share = dict.fromkeys(OPS, (1 - PRIMARY_SHARE - SETUP_SHARE) / (len(OPS) - 1))
        share[self.plan.primary] = PRIMARY_SHARE
        share["setup"] = SETUP_SHARE
        minimum = {op: max(MIN_SAMPLES[op], count_prefix(self.plan, op)) for op in OPS}
        minimum["setup"] = MIN_SAMPLES["setup"]
        used = dict.fromkeys(kinds, 0.0)
        done = dict.fromkeys(kinds, 0)
        timed_out = set()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < hard_stop:
            if time.perf_counter() < deadline:
                op = min(kinds, key=lambda o: used[o] / share[o])
            else:
                short = [o for o in kinds if done[o] < minimum[o] and o not in timed_out]
                if not short:
                    break
                op = short[0]
            if op == "setup":
                rec = self.set_up()
            else:
                items = self.plan.batch if op == "batch" else self.plan.ops[op]
                item = items[done[op] % len(items)]
                rec = self.run_graph(item) if op == "batch" else self.run_command(item)
            if rec.pop("timed_out", False):
                timed_out.add(op)
            self.ops.append(rec)
            used[op] += rec["wall_s"]
            done[op] += 1


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(runner: Runner, setup_times: List[float]) -> Tuple[Dict[str, dict], dict]:
    """The end-to-end metrics of a run; ``setup_times`` are every set-up's."""
    walls = {op: [r["wall_s"] for r in runner.ops if r["op"] == op] for op in OPS}
    entail_tail, tail_pct = tail(walls["entail"]) if walls["entail"] else (0.0, 0.0)
    rss = [r["rss_mb"] for r in runner.ops if "rss_mb" in r]
    metrics = {
        "setup_s": (trimmed_mean(setup_times), "s"),
        "close_s": (trimmed_mean(walls["close"]) if walls["close"] else 0.0, "s"),
        "model_s": (trimmed_mean(walls["model"]) if walls["model"] else 0.0, "s"),
        "entail_p50_s": (_median(walls["entail"]), "s"),
        "entail_tail_s": (entail_tail, "s"),
        "graphs_per_s": (1.0 / trimmed_mean(walls["batch"]) if walls["batch"] else 0.0, "1/s"),
        "peak_rss_mb": (max(rss) if rss else 0.0, "MB"),
    }
    extra = {"entail_tail_percentile": tail_pct, "samples": {**{op: len(w) for op, w in walls.items()}, "setup": len(setup_times)}}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


# metric name: key of spans.layer_breakdown
LAYER_TIMES = {
    "reasoner.closure_s": "reasoner.closure_self_s",
    "semantics.check_model_s": "semantics.check_model_self_s",
    "semantics.canonical_model_s": "semantics.canonical_model_s",
    "semantics.saturate_s": "semantics.canonical_model_self_s",
    "semantics.serialize_s": "semantics.serialize_s",
    "entailment.search_s": "entailment.entails_self_s",
    "entailment.proof_s": "entailment.proof_s",
    "parser.parse_s": "parser.parse_self_s",
    "parser.serialize_s": "parser.serialize_s",
    "cli.overhead_s": "overhead_s",
}
LAYER_COUNTS = {
    "reasoner.rounds": "reasoner.closure.rounds",
    "reasoner.closure_triples": "reasoner.closure.triples",
    "semantics.model_pairs": "semantics.canonical_model.pairs",
    "semantics.violations": "semantics.check_model.violations",
    "entailment.proof_steps": "entailment.proof.steps",
}


def count_prefix(plan, op: str) -> int:
    """How many leading operations of a kind the exact counts cover:
    one pass over the batch, or up to COUNT_PREFIX distinct commands."""
    if op == "batch":
        return len(plan.batch)
    return min(len(plan.ops[op]), COUNT_PREFIX)


def per_layer(runner: Runner, fire_rules: List[str]) -> Tuple[Dict[str, dict], Dict[str, str]]:
    """Per-layer metrics, each taken from one kind of operation.

    That kind is the workload's named operation when it uses the layer,
    else the first of close, model, entail and batch that does, so every
    layer is measured on every workload.  Times are medians over that
    kind's operations; counts are exact sums over a fixed prefix of them.
    Also returns which kind each metric came from.
    """
    from spans import layer_breakdown

    rows = {op: [layer_breakdown(r["spans"], r["wall_s"] if op != "batch" else None)
                 for r in runner.ops if r["op"] == op and "spans" in r] for op in OPS}
    order = [runner.plan.primary] + [op for op in OPS if op != runner.plan.primary]

    def source(key: str) -> str:
        return next((op for op in order if any(key in row for row in rows[op])), runner.plan.primary)

    metrics: Dict[str, tuple] = {}
    sources: Dict[str, str] = {}

    def timed(name: str, key: str, unit: str, value) -> None:
        op = sources[name] = source(key)
        metrics[name] = (_median([value(row) for row in rows[op] if row.get(key)]), unit)

    for name, key in LAYER_TIMES.items():
        timed(name, key, "s", lambda row, key=key: row[key])
    timed("reasoner.derived_per_s", "reasoner.closure_self_s", "1/s",
          lambda r: (r["reasoner.closure.triples"] - r["reasoner.closure.input"]) / r["reasoner.closure_self_s"])
    timed("parser.parse_triples_per_s", "parser.parse_self_s", "1/s",
          lambda r: r["parser.parse.triples"] / r["parser.parse_self_s"])
    counts = dict(LAYER_COUNTS, **{f"reasoner.fires.{rule}": f"reasoner.fires.{rule}" for rule in fire_rules})
    for name, key in counts.items():
        # All closure counts come from the same closures, those of the
        # named operation; a rule that never fires there counts 0.
        op = sources[name] = source("reasoner.closure_self_s" if name.startswith("reasoner.") else key)
        prefix = rows[op][: count_prefix(runner.plan, op)]
        metrics[name] = (sum(row.get(key, 0) for row in prefix), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, sources


def environment(args) -> dict:
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "rhodf" / "__init__.py").is_file():
        print(f"error: no rhodf sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order decides which derivation provenance keeps,
        # so fix it for exact, repeatable counts and proofs.
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], dict(os.environ, PYTHONHASHSEED="0"))
    # Stopped from outside, still kill the running command and clean up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = HERE / ".work"
    work = base / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        def generate():
            """(plan, seconds taken, digest of the inputs).

            Writing the files is left out of the time: it measures the
            shared host's disk, which slowed set-up several times over
            in half an hour of runs while generation held steady, and
            no change to rhodf moves it.
            """
            t0 = time.perf_counter()
            plan = workloads.build(args.workload, args.seed)
            wall = time.perf_counter() - t0
            return plan, wall, hashlib.sha256(repr((sorted(plan.files.items()), plan.batch)).encode()).hexdigest()

        plan, first_wall, first_digest = generate()
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        for name, text in plan.files.items():
            (inputs / name).write_text(text, encoding="utf-8")

        def set_up_again() -> dict:
            _, wall, d = generate()
            return {"op": "setup", "wall_s": wall, "failure": None if d == first_digest else "the same seed gave different inputs"}

        with launcher() as spawner:
            runner = Runner(plan, inputs, bool(args.trace), work, spawner, set_up_again)
            runner.run(args.seconds, started + NO_NEW_WORK_AFTER_S)
        failures = [f"{r['op']} {r.get('args', '')}: {r['failure']}" for r in runner.ops if r["failure"]]
        attempted = len(runner.ops) + 1  # the operations and the first set-up
        setup_times = [first_wall] + [r["wall_s"] for r in runner.ops if r["op"] == "setup"]
        e2e, extra = end_to_end(runner, setup_times)
        record = {"environment": environment(args), "attempted": attempted, "failed": len(failures),
                  "fail_frac": len(failures) / attempted, "failures": failures[:50],
                  "digests": runner.digests, "setup_times_s": setup_times, **extra}
        if args.trace:
            metrics, sources = per_layer(runner, FIRE_RULES)
            record["exact_counts"] = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
            record["per_layer_source"] = sources
        else:
            metrics = e2e
        record["metrics"] = metrics
        record["end_to_end_while_traced" if args.trace else "end_to_end"] = e2e
        record["ops"] = runner.ops
        results = base / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
