"""The benchmark's traced run wraps sdpn functions by name: every name in
``perfbench/run.py``'s ``LAYERS`` must still exist, or ``--trace 1``
fails at start-up. It also wraps ``TrialScorer.score_trials`` in a counter
that reads its argument as rows."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np

from sdpn import cli, losses, scoring

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def layer_names():
    """The function names in ``LAYERS``, read from the source with ast: the
    third field of each (workload, metric, names) tuple it iterates."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["LAYERS"]:
            groups = node.value.generators[0].iter.elts
            return [ast.literal_eval(g.elts[2]) for g in groups]
    raise AssertionError("no LAYERS assignment in perfbench/run.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def resolve(name):
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"sdpn.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner.__dict__[path[-1]]


def test_tracer_installs_and_uninstalls_every_layer():
    names = [n for group in layer_names() for n in group]
    assert "model.forward_embed" in names and len(names) == len(set(names))
    before = {n: resolve(n) for n in names}
    tracer = load_tracer()(names)
    tracer.install()
    try:
        for n in names:
            assert resolve(n) is not before[n], f"{n} was not wrapped"
    finally:
        tracer.uninstall()
    for n in names:
        assert resolve(n) is before[n], f"{n} was not restored"


def test_tracer_wraps_the_regularizer_table():
    """``student_objective`` calls the regularizers through
    ``losses.REGULARIZERS``, so the traced run counts them only if the
    tracer rebinds that table's values too."""
    table = dict(losses.REGULARIZERS)
    names = ["losses.frobenius_regularization",
             "losses.off_diagonal_regularization"]
    tracer = load_tracer()(names)
    tracer.install()
    try:
        for kind, name in zip(("frobenius", "off_diagonal"), names):
            assert losses.REGULARIZERS[kind] is not table[kind]
            assert losses.REGULARIZERS[kind] is resolve(name)
    finally:
        tracer.uninstall()
    assert losses.REGULARIZERS == table


def test_score_trials_counter_sees_trial_rows(tmp_path):
    """What perfbench's ``counted_score_trials`` reads from the trial list
    that ``normalize`` passes: its length and each row's enroll/test."""
    rng = np.random.default_rng(0)
    ids = [f"u{i}" for i in range(5)]
    scoring.EmbeddingStore(ids, rng.standard_normal((5, 4))).save(
        tmp_path / "e.store")
    cohort = scoring.EmbeddingStore([f"c{i}" for i in range(6)],
                                    rng.standard_normal((6, 4)))
    cohort.save(tmp_path / "c.store")
    trials = [scoring.Trial("1", ids[i], ids[(i + 2) % 5]) for i in range(5)]
    scoring.write_trials(trials, tmp_path / "trials.txt")

    counts, seen = Counter(), set()
    score_trials = scoring.TrialScorer.score_trials

    def counted_score_trials(scorer, trials, *rest, **kwargs):
        result = score_trials(scorer, trials, *rest, **kwargs)
        counts["score_trials"] += len(trials)
        if scorer.cohort is not None:
            counts["cohort_computes"] += scorer.cohort_computes
            seen.update({t.enroll for t in trials} | {t.test for t in trials})
        return result

    with mock.patch.object(scoring.TrialScorer, "score_trials",
                           counted_score_trials):
        assert cli.main(["normalize", "--store", str(tmp_path / "e.store"),
                         "--cohort", str(tmp_path / "c.store"),
                         "--trials", str(tmp_path / "trials.txt"),
                         "--out", str(tmp_path / "s.tsv")]) == 0
    assert counts == {"score_trials": 5, "cohort_computes": 5}
    assert seen == set(ids)
