"""Command-line front end.

Subcommands: gen-data, train, embed, score, normalize, eval, grad-check.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure. The SDPN_SEED environment variable overrides the config seed;
explicit flags override both.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import metrics, model, proptests, scoring, trainer
from .config import RunConfig, load_config
from .errors import (
    DataError,
    DivergedLoss,
    InvalidConfig,
    MalformedFile,
    MissingLabels,
    SdpnError,
    ShapeMismatch,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_config_arg(sub):
    sub.add_argument("--config", help="JSON run-config file")
    sub.add_argument("--seed", type=int, help="override the config seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="sdpn", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-data", help="write a synthetic corpus")
    _add_config_arg(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--num-speakers", type=int)
    p.add_argument("--utts-per-speaker", type=int)
    p.add_argument("--frames-per-utt", type=int)
    p.add_argument("--feature-dim", type=int)
    p.add_argument("--spread", type=float, help="intra-speaker noise scale")
    p.add_argument("--prefix", default="",
                   help="prepend to utterance/speaker ids (cohort corpora "
                        "must not share ids with trial utterances)")
    p.add_argument("--trials-out", help="also write an all-pairs trial list")
    p.set_defaults(func=cmd_gen_data)

    p = subs.add_parser("train", help="run the teacher-student loop")
    _add_config_arg(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr-peak", type=float)
    p.add_argument("--regularizer", choices=sorted(trainer.REGULARIZERS))
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("embed", help="extract one embedding per utterance")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="embedding store file")
    p.add_argument("--branch", choices=("teacher", "student"),
                   default="teacher")
    p.set_defaults(func=cmd_embed)

    for name, default_method in (("score", "cosine"), ("normalize", "as")):
        p = subs.add_parser(
            name, help="score trials" if name == "score"
            else "score trials with cohort normalization")
        p.add_argument("--store", required=True, help="embedding store")
        p.add_argument("--trials", required=True)
        p.add_argument("--out", required=True, help="output scores file")
        p.add_argument("--method", choices=scoring.METHODS,
                       default=default_method)
        p.add_argument("--cohort", help="cohort embedding store")
        p.add_argument("--top-k", type=int)
        p.add_argument("--sample-stddev", action="store_true")
        p.add_argument("--cohort-overlap", choices=("error", "drop"),
                       default="error")
        p.set_defaults(func=cmd_score, is_normalize=(name == "normalize"))

    p = subs.add_parser("eval", help="EER / minDCF report from a scores file")
    p.add_argument("--scores", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--out", help="write the JSON report here too")
    p.add_argument("--p-target", type=float, default=0.05)
    p.add_argument("--c-miss", type=float, default=1.0)
    p.add_argument("--c-fa", type=float, default=1.0)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("grad-check",
                        help="finite-difference verification of every loss")
    p.add_argument("--loss", default="all",
                   choices=("all", *proptests.GRAD_CHECKS))
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--seed", type=int, default=0,
                   help="offset added to the per-case seeds")
    p.add_argument("--report", help="write a JSON-lines report")
    p.set_defaults(func=cmd_grad_check)

    return parser


def _effective_config(args, overrides: dict) -> RunConfig:
    overrides = dict(overrides)
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return load_config(getattr(args, "config", None), overrides)


def cmd_gen_data(args) -> int:
    cfg = _effective_config(args, {
        "data.num_speakers": args.num_speakers,
        "data.utts_per_speaker": args.utts_per_speaker,
        "data.frames_per_utt": args.frames_per_utt,
        "data.feature_dim": args.feature_dim,
        "data.intra_speaker_spread": args.spread,
    })
    corpus = data_mod.generate_synthetic_corpus(
        cfg.data.num_speakers, cfg.data.utts_per_speaker,
        cfg.data.frames_per_utt, cfg.data.feature_dim,
        cfg.data.intra_speaker_spread, cfg.seed)
    if args.prefix:
        corpus = [data_mod.Utterance(args.prefix + u.utterance_id,
                                     args.prefix + u.speaker_id, u.frames)
                  for u in corpus]
    if args.trials_out:  # fail before the corpus is written
        # the all-pairs trial list holds every utterance id
        scoring.check_trial_ids([u.utterance_id for u in corpus],
                                args.trials_out)
        trials_dir = Path(args.trials_out).resolve().parent
        # save_corpus creates --out and its parents
        if not (trials_dir.is_dir()
                or Path(args.out).resolve().is_relative_to(trials_dir)):
            raise DataError(f"cannot write {args.trials_out}: "
                            f"{trials_dir} is not a directory")
    manifest = data_mod.save_corpus(corpus, args.out)
    if args.trials_out:
        scoring.write_trials(scoring.build_trial_list(corpus), args.trials_out)
    print(manifest)
    return 0


def cmd_train(args) -> int:
    cfg = _effective_config(args, {
        "train.epochs": args.epochs,
        "train.batch_size": args.batch_size,
        "train.lr_peak": args.lr_peak,
        "train.regularizer": args.regularizer,
    })
    out_dir = data_mod.make_dir(args.out)
    ckpt_path = out_dir / "checkpoint.sdck"
    fingerprint = cfg.fingerprint()

    corpus = data_mod.load_corpus(args.manifest)
    state = trainer.init_state(model.init_params(
        np.random.default_rng(cfg.seed), feature_dim=cfg.data.feature_dim,
        encoder_hidden=cfg.model.encoder_hidden,
        embed_dim=cfg.model.embed_dim, proj_hidden=cfg.model.proj_hidden,
        proj_dim=cfg.model.proj_dim, num_prototypes=cfg.model.num_prototypes))
    if args.resume:
        state = _resume_state(args.resume, state, fingerprint)

    try:
        state, _ = trainer.train(corpus, state, cfg,
                                 log_path=out_dir / "metrics.jsonl")
    except DivergedLoss as exc:
        if exc.last_good is not None:
            model.save_checkpoint(ckpt_path, exc.last_good, fingerprint)
            print(f"diverged; last-good checkpoint written to {ckpt_path}",
                  file=sys.stderr)
        raise
    model.save_checkpoint(ckpt_path, state, fingerprint)
    print(ckpt_path)
    return 0


def _resume_state(path, fresh: dict, fingerprint: str) -> dict:
    """The training state stored at ``path``, in the key order of the
    ``fresh`` state. The checkpoint must hold exactly the tensors of
    ``fresh``, in the same shapes, under the same config fingerprint."""
    tensors, stored_fp = model.load_checkpoint(path)
    if stored_fp != fingerprint:
        raise InvalidConfig(
            "resume checkpoint was written under a different config "
            f"(fingerprint {stored_fp[:12]}.. != {fingerprint[:12]}..)")
    _require_tensors(tensors, fresh, path)
    for name, arr in fresh.items():
        if tensors[name].shape != arr.shape:
            raise MalformedFile(
                path, 0, f"tensor '{name}' has shape {tensors[name].shape}, "
                f"the config gives {arr.shape}")
    extra = sorted(set(tensors) - set(fresh))
    if extra:
        raise MalformedFile(path, 0, f"unexpected tensor '{extra[0]}'")
    return {name: tensors[name] for name in fresh}


def _require_tensors(tensors: dict, names, path):
    for name in names:
        if name not in tensors:
            raise MalformedFile(path, 0, f"missing tensor '{name}'")


def _check_encoder_tensors(tensors: dict, branch: str, path):
    """The ``<branch>.encoder.*`` tensors exist and fit each other: w1
    (F, H), b1 (H,), w2 (2H, E), b2 (E,)."""
    names = [f"{branch}.encoder.{k}" for k in ("w1", "b1", "w2", "b2")]
    _require_tensors(tensors, names, path)
    w1, b1, w2, b2 = (tensors[name] for name in names)
    hidden = w1.shape[-1]
    embed = w2.shape[-1]
    for name, fits, want in (
            (names[0], w1.ndim == 2, "(F, H)"),
            (names[1], b1.shape == (hidden,), f"({hidden},)"),
            (names[2], w2.shape[:-1] == (2 * hidden,), f"({2 * hidden}, E)"),
            (names[3], b2.shape == (embed,), f"({embed},)")):
        if not fits:
            raise MalformedFile(path, 0, f"tensor '{name}' has shape "
                                f"{tensors[name].shape}, expected {want}")


def cmd_embed(args) -> int:
    tensors, _ = model.load_checkpoint(args.checkpoint)
    _check_encoder_tensors(tensors, args.branch, args.checkpoint)
    corpus = data_mod.load_corpus(args.manifest)
    embeddings = model.forward_embed(tensors, args.branch,
                                     [u.frames for u in corpus])
    scoring.EmbeddingStore([u.utterance_id for u in corpus],
                           embeddings).save(args.out)
    print(args.out)
    return 0


def cmd_score(args) -> int:
    if getattr(args, "is_normalize", False) and args.method == "cosine":
        raise InvalidConfig(
            "normalize is for cohort methods; use 'score --method cosine'")
    store = scoring.EmbeddingStore.load(args.store)
    trials = scoring.read_trials(args.trials)
    cohort = None
    if args.method != "cosine":
        if not args.cohort:
            raise InvalidConfig(f"--method {args.method} requires --cohort")
        cohort_store = scoring.EmbeddingStore.load(args.cohort)
        trial_ids = {t.enroll for t in trials} | {t.test for t in trials}
        cohort = scoring.Cohort.from_store(cohort_store, trial_ids,
                                           overlap=args.cohort_overlap)
        width, cohort_width = store.matrix.shape[1], cohort.matrix.shape[1]
        if len(store) and width != cohort_width:  # empty: no width to match
            raise ShapeMismatch(
                f"store {args.store} holds {width}-dim embeddings, cohort "
                f"{args.cohort} {cohort_width}-dim")
    scorer = scoring.TrialScorer(store, cohort, method=args.method,
                                 top_k=args.top_k,
                                 sample_stddev=args.sample_stddev)
    raw, normalized = scorer.score_trials(trials)
    header = f"method={args.method}"
    if args.method == "as":
        header += f" top_k={scorer.top_k}"
    scoring.write_scores(trials, raw, normalized, args.out, header)
    print(args.out)
    return 0


def cmd_eval(args) -> int:
    enroll, test, _, normalized = scoring.read_scores(args.scores)
    trials = scoring.read_trials(args.trials)
    label_of = {(e, t): label for label, e, t in trials}
    if len(label_of) < len(trials):  # a pair repeats: its labels must agree
        first = {}
        for label, e, t in trials:
            if first.setdefault((e, t), label) != label:
                raise DataError(
                    f"{args.trials} labels trial ({e}, {t}) both "
                    f"{first[e, t]} and {label}")
    labels = list(map(label_of.get, zip(enroll, test)))
    unusable = set(labels) - {"1", "0"}  # None (not in the list) or "-"
    if unusable:
        i = min(map(labels.index, unusable))
        reason = (f"not present in {args.trials}" if labels[i] is None
                  else "is unlabeled; eval needs 1/0")
        raise MissingLabels(f"trial ({enroll[i]}, {test[i]}) {reason}")
    report = metrics.evaluation_report(
        normalized, np.array(labels, dtype=str) == "1", args.p_target,
        args.c_miss, args.c_fa)
    text = json.dumps(report, indent=2)
    if args.out:
        data_mod.atomic_write(args.out, (text + "\n").encode("utf-8"))
    print(text)
    return 0


def cmd_grad_check(args) -> int:
    if args.instances < 1:
        raise InvalidConfig(f"--instances must be >= 1, got {args.instances}")
    checks = proptests.GRAD_CHECKS if args.loss == "all" else (args.loss,)
    for loss in checks:
        name, _, seed, _ = proptests.GRAD_CHECKS[loss]
        if seed + args.seed < 0:
            raise InvalidConfig(
                f"--seed {args.seed} gives {name} the negative seed "
                f"{seed + args.seed}; its base seed is {seed}")
    results = [proptests.run_check(loss, args.instances, args.seed)
               for loss in checks]
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{r['name']:34s} max_dev={r['max_deviation']:.3e} "
              f"tol={r['tolerance']:.1e} [{status}]")
    if args.report:
        proptests.write_report(results, args.report)
    return 0 if all(r["passed"] for r in results) else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SdpnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
