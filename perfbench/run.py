"""Benchmark of the sdpn pipeline, driven through the real CLI in-process.

    python3 perfbench/run.py --workload {train_allpairs,vox1o_shape} \
        --seed N --seconds S --trace {0,1}

A run repeats set-up (gen-data and the trial list, into a fresh directory)
plus one pipeline round (train, embed, score, normalize --method as, eval)
until ``--seconds`` have passed, and at least MIN_REPS times. Each CLI call
is timed on its own. ``--trace 0`` reports the end-to-end metrics: medians
over the run's set-ups, calls and rounds. ``--trace 1`` runs a plain
warm-up repetition, then alternates repetitions with spans around the
public functions of the sdpn modules and plain ones, and reports
per-layer calls and self time.

Every run checks the outputs with computations made apart from the program
(see checks.py) and that every repetition's inputs and artifacts are
byte-identical to the first one's. It writes a result file under
perfbench/out/results/ and prints one JSON line last: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median
from unittest import mock

# One BLAS thread, fixed before numpy is first imported (just below):
# OpenBLAS would otherwise start one thread per core, and the figures would
# depend on the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Repetitions of set-up plus round per run, at least: setup_s is a median
# over set-ups and the determinism check needs a second round. A traced
# run needs a plain warm-up and then two traced and two plain repetitions.
MIN_REPS = 3
MIN_TRACED_REPS = 5

# Public functions the traced run wraps: (name, the workload it is meant to
# measure, the end-to-end metric it should move there).
LAYERS = [(name, home, metric) for home, metric, names in (
    ("train_allpairs", "train_steps_per_s", (
        "model.encoder_forward", "model.encoder_backward",
        "model.projection_forward", "model.projection_backward",
        "model.ema_update", "model.normalize_prototypes",
        "data.iter_crop_sets", "losses.cross_entropy_loss",
        "losses.diversity_regularization", "losses.frobenius_regularization",
        "numerics.softmax", "trainer.train_step", "trainer.diagnostics")),
    ("vox1o_shape", "train_steps_per_s", (
        "losses.off_diagonal_regularization",)),
    ("vox1o_shape", "embed_utts_per_s", (
        "data.load_corpus", "model.forward_embed", "model.load_checkpoint",
        "scoring.EmbeddingStore.save")),
    ("vox1o_shape", "setup_s", ("data.save_corpus",)),
    ("train_allpairs", "score_trials_per_s", (
        "scoring.TrialScorer.score_trials", "scoring.read_trials",
        "scoring.write_scores")),
    ("vox1o_shape", "normalize_trials_per_s", (
        "scoring.Cohort.from_store", "scoring.cohort_scores",
        "scoring.cohort_stats", "scoring.EmbeddingStore.load")),
    ("train_allpairs", "eval_trials_per_s", (
        "scoring.read_scores", "metrics.evaluation_report",
        "metrics.det_sweep", "metrics.eer", "metrics.min_dcf")),
) for name in names]
# Each workload runs one of the two regularizers, so their self time is
# reported under one name that is never zero.
REGULARIZERS = ("losses.frobenius_regularization",
                "losses.off_diagonal_regularization")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Import sdpn from the checkout's own source tree."""
    if not (ROOT / "src" / "sdpn" / "cli.py").is_file():
        sys.exit(f"perfbench: no sdpn source tree at {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from sdpn import cli
    return cli


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                         / "libscipy_openblas*"))
    for lib in libs:
        try:
            threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_queried": threads,
        "platform": platform.platform(),
    }


def digest(paths, artifacts=True):
    """sha256 of every input file and, with ``artifacts``, every artifact
    file, keyed by its path below the set-up or artifact directory."""
    files = [(f, paths.inputs) for f in paths.input_files()]
    if artifacts:
        files += [(f, paths.out) for f in paths.artifacts()]
    return {str(f.relative_to(root)): hashlib.sha256(f.read_bytes())
            .hexdigest() for f, root in files}


class Runner:
    """Calls the CLI, times each call and counts attempted/failed ones."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, argv):
        self.attempted += 1
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = self.cli.main(argv)
            seconds = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.errors.append(f"sdpn {argv[0]} exited {code}: "
                               f"{sink.getvalue().strip()[-300:]}")
        return code == 0, seconds

    def fail(self, messages):
        """A failed output check counts against the call it checks."""
        if messages:
            self.failed += 1
            self.errors.extend(messages)


def settle():
    """Flush dirty pages and pending deletions to disk before a timed
    phase. Set-up writes thousands of files, and on a filesystem mounted
    with online discard, deleting them is paid at the next journal commit;
    without this, that work lands in whatever is timed next."""
    os.sync()


def set_up(runner, w, seed, paths):
    """Make one set of inputs in a fresh directory; nothing is deleted
    between set-ups, for the reason given in settle()."""
    settle()
    total = 0.0
    for argv in workloads.setup_calls(w, seed, paths):
        ok, seconds = runner.call(argv)
        if not ok:
            return False, total
        total += seconds
    if w.sampled_trials is not None:
        start = time.perf_counter()
        workloads.write_sampled_trials(w, seed, paths)
        total += time.perf_counter() - start
    return True, total


STAGES = ("train", "embed", "score", "normalize", "eval")


def one_round(runner, w, paths, samples, stage_seconds):
    """Run the round's stage calls, append each stage's rate to
    ``samples``, add its call time to ``stage_seconds`` and return
    (ok, seconds spent in the first pass of every stage)."""
    first, extra = workloads.round_calls(w, paths)
    wall = 0.0
    for i, (stage, argvs, units) in enumerate(first + extra):
        seconds = 0.0
        for argv in argvs:
            ok, call_seconds = runner.call(argv)
            if not ok:
                return False, wall
            seconds += call_seconds
        if i < len(first):
            wall += seconds
        stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
        samples[stage].append(units / seconds)
    return True, wall


def check_outputs(runner, w, paths, seed):
    rng = np.random.default_rng([seed, 5])
    reports = {}
    for name, path in (("cosine", paths.cosine_report),
                       ("as", paths.as_report)):
        reports[name] = json.loads(path.read_text(encoding="utf-8"))
    runner.fail(checks.check_embeddings(paths.checkpoint,
                                        paths.eval / "manifest.tsv",
                                        paths.eval_store, 24, rng))
    runner.fail(checks.check_embeddings(paths.checkpoint,
                                        paths.cohort / "manifest.tsv",
                                        paths.cohort_store, 8, rng))
    runner.fail(checks.check_scores(paths.eval_store, paths.trials,
                                    paths.cosine, "cosine"))
    runner.fail(checks.check_scores(paths.eval_store, paths.trials,
                                    paths.asnorm, "as"))
    runner.fail(checks.check_asnorm(paths.eval_store, paths.cohort_store,
                                    paths.trials, paths.asnorm, w.top_k,
                                    64, rng))
    runner.fail(checks.check_report(reports["cosine"], paths.cosine,
                                    paths.trials))
    runner.fail(checks.check_report(reports["as"], paths.asnorm,
                                    paths.trials))
    runner.fail(checks.check_bars(reports["cosine"], reports["as"],
                                  w.as_norm_bar))
    return {k: {"eer": r["eer"], "min_dcf": r["min_dcf"]}
            for k, r in reports.items()}


def same_as_first(runner, first, now, what):
    changed = sorted(k for k in first if first[k] != now.get(k))
    if changed:
        runner.fail([f"{what} not byte-identical to the first: {changed}"])


def repeat(runner, w, args, work, trace=None):
    """Set-up plus one round, repeated until ``--seconds`` have passed and
    at least MIN_REPS times; each set-up gets a fresh input directory.
    With ``trace``, a context-manager factory, every second repetition
    after a plain first one runs inside it, and the dict it yields, filled
    in on exit, is merged into that repetition. Returns the repetitions and
    the last one's paths, or (None, None) if a call failed."""
    reps = []
    first_inputs = first = None
    least = MIN_REPS if trace is None else MIN_TRACED_REPS
    start = time.perf_counter()
    while len(reps) < least or time.perf_counter() - start < args.seconds:
        traced = trace is not None and len(reps) % 2 == 1
        rep = {"samples": {s: [] for s in STAGES}, "stage_seconds": {},
               "setup_s": [], "traced": traced}
        with trace() if traced else contextlib.nullcontext() as figures:
            for j in range(w.setups):
                paths = workloads.Paths(work, f"{len(reps)}.{j}")
                ok, seconds = set_up(runner, w, args.seed, paths)
                if not ok:
                    return None, None
                rep["setup_s"].append(seconds)
                inputs = digest(paths, artifacts=False)
                first_inputs = first_inputs or inputs
                same_as_first(runner, first_inputs, inputs, "inputs")
            settle()
            ok, rep["wall"] = one_round(runner, w, paths, rep["samples"],
                                        rep["stage_seconds"])
        if not ok:
            return None, None
        if traced:
            rep.update(figures)
        now = digest(paths)
        first = first or now
        same_as_first(runner, first, now, "inputs and artifacts")
        reps.append(rep)
    return reps, paths


def run_plain(runner, w, args, work):
    reps, paths = repeat(runner, w, args, work)
    if reps is None:
        return None
    # Before the checks, whose own arrays would otherwise set the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    quality = check_outputs(runner, w, paths, args.seed)

    def rate(stage):
        return median([x for rep in reps for x in rep["samples"][stage]])

    metrics = {
        "setup_s": (median(x for rep in reps for x in rep["setup_s"]), "s"),
        "train_steps_per_s": (rate("train"), "steps/s"),
        "embed_utts_per_s": (rate("embed"), "utt/s"),
        "score_trials_per_s": (rate("score"), "trials/s"),
        "normalize_trials_per_s": (rate("normalize"), "trials/s"),
        "eval_trials_per_s": (rate("eval"), "trials/s"),
        "wall_s": (median(rep["wall"] for rep in reps), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, {"reps": reps, "quality": quality}


def layer_metrics(traced, plain):
    """Per-layer metrics from the traced repetitions, and the round wall
    of the plain ones after the warm-up."""
    metrics = {}
    for name, _, _ in LAYERS:
        metrics[f"{name}.calls"] = (traced[0]["stats"][name]["calls"],
                                    "count")
        if name not in REGULARIZERS:
            metrics[f"{name}.self_s"] = (
                median(rep["stats"][name]["self_s"] for rep in traced), "s")
    metrics["losses.regularizer.self_s"] = (median(
        sum(rep["stats"][n]["self_s"] for n in REGULARIZERS)
        for rep in traced), "s")
    deciles = statistics.quantiles(
        [d for rep in traced for d in rep["train_steps"]], n=10)
    metrics["trainer.train_step.p50_ms"] = (1000 * deciles[4], "ms")
    metrics["trainer.train_step.p90_ms"] = (1000 * deciles[8], "ms")
    counts = traced[0]["counts"]
    metrics["scoring.score_trials.us_per_trial"] = (median(
        1e6 * rep["counts"]["score_seconds"] / rep["counts"]["score_trials"]
        for rep in traced), "us")
    metrics["scoring.cohort_computes"] = (int(counts["cohort_computes"]),
                                          "count")
    metrics["scoring.cohort_useful_ratio"] = (
        counts["cohort_ids"] / counts["cohort_computes"], "ratio")
    metrics["trace.round_wall_s"] = (median(rep["wall"] for rep in traced),
                                     "s")
    metrics["trace.untraced_round_wall_s"] = (
        median(rep["wall"] for rep in plain), "s")
    return metrics


def run_traced(runner, w, args, work):
    """Returns (per-layer metrics, detail, the last traced repetition's
    spans) or None if a call failed."""
    from sdpn.scoring import TrialScorer

    tracer = Tracer([n for n, _, _ in LAYERS])
    counts = Counter()
    score_trials = TrialScorer.score_trials

    def counted_score_trials(scorer, trials, *rest, **kwargs):
        """TrialScorer.score_trials, counting trials, its time and the
        scorer's cohort lists against the unique ids they serve."""
        start = time.perf_counter()
        result = score_trials(scorer, trials, *rest, **kwargs)
        counts["score_seconds"] += time.perf_counter() - start
        counts["score_trials"] += len(trials)
        if scorer.cohort is not None:
            counts["cohort_computes"] += scorer.cohort_computes
            counts["cohort_ids"] += len({t.enroll for t in trials}
                                        | {t.test for t in trials})
        return result

    @contextlib.contextmanager
    def trace():
        tracer.reset()
        counts.clear()
        figures = {}
        # The tracer wraps the counting method, so its span covers both.
        with mock.patch.object(TrialScorer, "score_trials",
                               counted_score_trials), tracer:
            yield figures
        figures["stats"] = {n: {"calls": tracer.stats[n].calls,
                                "self_s": tracer.stats[n].self_s}
                            for n, _, _ in LAYERS}
        figures["counts"] = dict(counts)
        figures["train_steps"] = [end - begin for name, begin, end, _
                                  in tracer.spans
                                  if name == "trainer.train_step"]
        figures["spans"] = tracer.spans

    reps, paths = repeat(runner, w, args, work, trace)
    if reps is None:
        return None
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep for rep in reps[1:] if not rep["traced"]]
    quality = check_outputs(runner, w, paths, args.seed)
    self_check(runner, w, traced)
    detail = {"quality": quality,
              "reps": [{k: v for k, v in rep.items()
                        if k not in ("train_steps", "spans")}
                       for rep in reps]}
    return layer_metrics(traced, plain), detail, traced[-1]["spans"]


def self_check(runner, w, reps):
    """Every wrapped function meant to measure this workload was called,
    and each traced repetition made the same calls."""
    missed = [n for n, home, _ in LAYERS
              if home == w.name and reps[0]["stats"][n]["calls"] == 0]
    if missed:
        runner.fail([f"tracer saw no calls of {missed}"])
    for rep in reps[1:]:
        differ = [n for n, _, _ in LAYERS
                  if rep["stats"][n]["calls"] != reps[0]["stats"][n]["calls"]]
        if differ:
            runner.fail([f"call counts differ between repetitions: {differ}"])


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\n")
        t0 = spans[0][1] if spans else 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start - t0:.6f}\t{end - t0:.6f}\t"
                     f"{parent}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    w = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{w.name}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{w.name}-seed{args.seed}-trace{args.trace}"
    runner = Runner(cli)
    try:
        if args.trace:
            outcome = run_traced(runner, w, args, work)
            if outcome is not None:
                write_spans(stem.with_suffix(".spans.tsv"), outcome[2])
        else:
            outcome = run_plain(runner, w, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        settle()  # so the next run does not pay for these deletions
    if outcome is None:
        print("\n".join(runner.errors), file=sys.stderr)
        return 1
    metrics, detail = outcome[0], outcome[1]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {"workload": w.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(), "errors": runner.errors,
              **result, "detail": detail}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1),
                                         encoding="utf-8")
    for message in runner.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
