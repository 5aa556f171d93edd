"""The two workloads: their sizes, their inputs and the stage calls of one
pipeline round.

Both train the criterion 6/7 model shapes (24 features, hidden 48, 32
prototypes, crops 1x120 + 4x60, batch 32, masking on) on a 20-speaker x
10-utterance x 160-frame corpus, then embed a held-out corpus and a cohort,
score, normalize with AS-norm and evaluate. They differ in where the time
goes:

- ``train_allpairs``: 25 epochs per round, then 400 held-out utterances
  (100 frames) scored on all 79,800 pairs against a 200-utterance cohort
  with K = 200. Training is about 58% of the round; in scoring, each id
  appears in 399 trials, so per-trial work dominates score, normalize and
  eval. Its set-up is short, so each repetition sets up four times.
- ``vox1o_shape``: VoxCeleb1-O proportions. 5 epochs with the
  off_diagonal regularizer, 4,720 held-out utterances of 40 speakers (60
  frames each), 37,720 sampled trials (half targets, no repeats) and 3,000
  single-utterance cohort speakers with K 300. Each id appears in about 16
  trials, so per-id cohort work dominates normalize; score and eval run
  three times a round.

Input seeds come from the ``--seed`` of the run: corpus i uses
``1000 * seed + i`` so no two corpora of one or of neighbouring runs share
a generator stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import read_manifest

MODEL = {"encoder_hidden": 48, "embed_dim": 48, "proj_hidden": 64,
         "proj_dim": 16, "num_prototypes": 32, "ema_momentum": 0.99}
CROPS = {"num_global": 1, "num_local": 4, "len_global": 120, "len_local": 60}
FEATURE_DIM = 24
TRAIN_SPEAKERS, TRAIN_UTTS, TRAIN_FRAMES = 20, 10, 160
BATCH = 32
EVAL_SPEAKERS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    epochs: int
    warmup_epochs: int
    regularizer: str
    eval_utts: int
    frames: int  # per held-out and per cohort utterance
    cohort_size: int
    top_k: int
    sampled_trials: int | None  # None: all pairs, written by gen-data
    # Set-ups per repetition; each one is a setup_s sample.
    setups: int
    # Whether the AS-norm bar of criterion 7 is checked (see checks.py).
    as_norm_bar: bool
    # Calls per round of score and of eval (on both score files each
    # time). Short stages run more often so that their rates have enough
    # samples; train, embed and normalize run once.
    repeats: tuple[int, int]

    @property
    def steps(self) -> int:
        return self.epochs * (TRAIN_SPEAKERS * TRAIN_UTTS // BATCH)

    @property
    def eval_count(self) -> int:
        return EVAL_SPEAKERS * self.eval_utts

    @property
    def trial_count(self) -> int:
        if self.sampled_trials is not None:
            return self.sampled_trials
        return self.eval_count * (self.eval_count - 1) // 2


WORKLOADS = {w.name: w for w in (
    Workload("train_allpairs", epochs=25, warmup_epochs=2,
             regularizer="frobenius",
             eval_utts=10, frames=100, cohort_size=200, top_k=200,
             sampled_trials=None, setups=4, as_norm_bar=False,
             repeats=(1, 1)),
    Workload("vox1o_shape", epochs=5, warmup_epochs=1,
             regularizer="off_diagonal",
             eval_utts=118, frames=60, cohort_size=3000, top_k=300,
             sampled_trials=37720, setups=1, as_norm_bar=True,
             repeats=(3, 3)),
)}


class Paths:
    """Where one run keeps its inputs and artifacts."""

    def __init__(self, work: Path, setup: str):
        self.inputs = work / f"inputs-{setup}"
        self.config = self.inputs / "config.json"
        self.train = self.inputs / "train"
        self.eval = self.inputs / "eval"
        self.cohort = self.inputs / "cohort"
        self.trials = self.inputs / "trials.txt"
        self.out = work / "artifacts"
        self.checkpoint = self.out / "run" / "checkpoint.sdck"
        self.metrics_log = self.out / "run" / "metrics.jsonl"
        self.eval_store = self.out / "eval.store"
        self.cohort_store = self.out / "cohort.store"
        self.cosine = self.out / "cosine.tsv"
        self.asnorm = self.out / "asnorm.tsv"
        self.cosine_report = self.out / "cosine.json"
        self.as_report = self.out / "asnorm.json"

    def input_files(self):
        return [self.config, self.train / "manifest.tsv",
                self.eval / "manifest.tsv", self.cohort / "manifest.tsv",
                self.trials]

    def artifacts(self):
        return [self.checkpoint, self.metrics_log, self.eval_store,
                self.cohort_store, self.cosine, self.asnorm,
                self.cosine_report, self.as_report]


def config_document(w: Workload, seed: int) -> dict:
    return {
        "seed": seed,
        "data": {"num_speakers": TRAIN_SPEAKERS,
                 "utts_per_speaker": TRAIN_UTTS,
                 "frames_per_utt": TRAIN_FRAMES, "feature_dim": FEATURE_DIM},
        "crops": CROPS,
        "augment": {"enabled": True},
        "model": MODEL,
        "train": {"epochs": w.epochs, "batch_size": BATCH,
                  "warmup_epochs": w.warmup_epochs,
                  "regularizer": w.regularizer},
    }


def setup_calls(w: Workload, seed: int, p: Paths):
    """The gen-data calls that make the three corpora (and, for all-pair
    workloads, the trial list). The config file is written first."""
    p.inputs.mkdir(parents=True)
    p.config.write_text(json.dumps(config_document(w, 1000 * seed)),
                        encoding="utf-8")
    cfg = str(p.config)
    calls = [
        ["gen-data", "--config", cfg, "--seed", str(1000 * seed + 1),
         "--out", str(p.train)],
        ["gen-data", "--config", cfg, "--seed", str(1000 * seed + 2),
         "--num-speakers", str(EVAL_SPEAKERS),
         "--utts-per-speaker", str(w.eval_utts),
         "--frames-per-utt", str(w.frames), "--prefix", "e_",
         "--out", str(p.eval)],
        ["gen-data", "--config", cfg, "--seed", str(1000 * seed + 3),
         "--num-speakers", str(w.cohort_size), "--utts-per-speaker", "1",
         "--frames-per-utt", str(w.frames), "--prefix", "c_",
         "--out", str(p.cohort)],
    ]
    if w.sampled_trials is None:
        calls[1] += ["--trials-out", str(p.trials)]
    return calls


def write_sampled_trials(w: Workload, seed: int, p: Paths):
    """Half target, half nontarget trials drawn without repeats from the
    held-out manifest, interleaved target/nontarget."""
    rng = np.random.default_rng([seed, 4])
    rows = read_manifest(p.eval / "manifest.tsv")
    speakers = sorted({spk for _, _, spk in rows})
    by_speaker = {s: [u for u, _, spk in rows if spk == s] for s in speakers}
    utts = np.array([by_speaker[s] for s in speakers])  # (S, U)
    n_spk, n_utt = utts.shape
    half = w.sampled_trials // 2

    def draw(same: bool):
        m = 2 * half
        s1 = rng.integers(n_spk, size=m)
        s2 = s1 if same else (s1 + rng.integers(1, n_spk, size=m)) % n_spk
        a = rng.integers(n_utt, size=m)
        b = (a + rng.integers(1, n_utt, size=m)) % n_utt if same \
            else rng.integers(n_utt, size=m)
        codes = (s1 * n_utt + a) * (n_spk * n_utt) + (s2 * n_utt + b)
        _, first = np.unique(codes, return_index=True)
        keep = np.sort(first)[:half]
        if keep.size < half:
            raise RuntimeError("trial sampler drew too many repeats")
        return utts[s1[keep], a[keep]], utts[s2[keep], b[keep]]

    tar, non = draw(True), draw(False)
    lines = []
    for i in range(half):
        lines.append(f"1 {tar[0][i]} {tar[1][i]}")
        lines.append(f"0 {non[0][i]} {non[1][i]}")
    p.trials.write_text("\n".join(lines) + "\n", encoding="utf-8")


def round_calls(w: Workload, p: Paths):
    """The stage calls of one pipeline round, as two lists of (stage, CLI
    calls, units of work): one pass of every stage, then the extra score
    and eval calls. A stage's rate is its units over the summed time of
    its calls; wall_s is the time of the first list."""
    train = ("train", [["train", "--config", str(p.config),
                        "--manifest", str(p.train / "manifest.tsv"),
                        "--out", str(p.checkpoint.parent)]], w.steps)
    embed = ("embed", [
        ["embed", "--checkpoint", str(p.checkpoint), "--manifest",
         str(p.eval / "manifest.tsv"), "--out", str(p.eval_store)],
        ["embed", "--checkpoint", str(p.checkpoint), "--manifest",
         str(p.cohort / "manifest.tsv"), "--out", str(p.cohort_store)]],
        w.eval_count + w.cohort_size)
    score = ("score", [["score", "--store", str(p.eval_store), "--trials",
                        str(p.trials), "--out", str(p.cosine)]],
             w.trial_count)
    normalize = ("normalize", [
        ["normalize", "--store", str(p.eval_store), "--cohort",
         str(p.cohort_store), "--trials", str(p.trials), "--method", "as",
         "--top-k", str(w.top_k), "--out", str(p.asnorm)]], w.trial_count)
    evals = [("eval", [["eval", "--scores", str(scores), "--trials",
                        str(p.trials), "--out", str(report)]], w.trial_count)
             for scores, report in ((p.cosine, p.cosine_report),
                                    (p.asnorm, p.as_report))]
    n_score, n_eval = w.repeats
    extra = []
    for i in range(1, max(w.repeats)):
        extra += [score] * (i < n_score) + evals * (i < n_eval)
    return [train, embed, score, normalize] + evals, extra
