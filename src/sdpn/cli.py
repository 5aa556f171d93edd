"""Command-line front end.

Subcommands: gen-data, train, embed, score, normalize, eval, grad-check.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure. The SDPN_SEED environment variable overrides the config seed;
explicit flags override both.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import metrics, model, proptests, scoring, trainer
from .config import RunConfig, load_config
from .errors import (
    DivergedLoss,
    InvalidConfig,
    MissingLabels,
    SdpnError,
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
        p.add_argument("--threads", type=int, default=1,
                       help="has no effect (scoring is one array pass)")
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
                   choices=("all", "ce", "re", "odr", "fdr", "composite",
                            "covariance"))
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
    manifest = data_mod.save_corpus(corpus, args.out)
    if args.trials_out:
        scoring.write_trials(data_mod.build_trial_list(corpus), args.trials_out)
    print(manifest)
    return 0


def cmd_train(args) -> int:
    cfg = _effective_config(args, {
        "train.epochs": args.epochs,
        "train.batch_size": args.batch_size,
        "train.lr_peak": args.lr_peak,
        "train.regularizer": args.regularizer,
    })
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.sdck"
    fingerprint = cfg.fingerprint()

    corpus = data_mod.load_corpus(args.manifest, include_speaker=False)

    if args.resume:
        tensors, stored_fp = model.load_checkpoint(args.resume)
        if stored_fp != fingerprint:
            raise InvalidConfig(
                "resume checkpoint was written under a different config "
                f"(fingerprint {stored_fp[:12]}.. != {fingerprint[:12]}..)")
        pair = model.pair_from_tensors(tensors)
        state = trainer.state_from_tensors(tensors, pair)
    else:
        rng = np.random.default_rng(cfg.seed)
        pair = model.TeacherStudentPair.create(
            rng, feature_dim=cfg.data.feature_dim,
            encoder_hidden=cfg.model.encoder_hidden,
            embed_dim=cfg.model.embed_dim,
            proj_hidden=cfg.model.proj_hidden, proj_dim=cfg.model.proj_dim,
            num_prototypes=cfg.model.num_prototypes)
        state = trainer.init_state(pair)

    try:
        pair, records, state = trainer.train(
            corpus, pair, cfg, resume=state,
            log_path=out_dir / "metrics.jsonl")
    except DivergedLoss as exc:
        if exc.last_good is not None:
            good_pair, good_state = exc.last_good
            model.save_checkpoint(
                ckpt_path, trainer.state_tensors(good_pair, good_state),
                fingerprint)
            print(f"diverged; last-good checkpoint written to {ckpt_path}",
                  file=sys.stderr)
        raise
    model.save_checkpoint(ckpt_path, trainer.state_tensors(pair, state),
                          fingerprint)
    print(ckpt_path)
    return 0


def cmd_embed(args) -> int:
    tensors, _ = model.load_checkpoint(args.checkpoint)
    pair = model.pair_from_tensors(tensors)
    net = pair.teacher if args.branch == "teacher" else pair.student
    corpus = data_mod.load_corpus(args.manifest, include_speaker=False)
    vectors = {}
    for utt in corpus:
        embedding, _ = model.forward_embed(net, utt.frames)
        vectors[utt.utterance_id] = embedding
    scoring.EmbeddingStore(vectors).save(args.out)
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
    scored = scoring.read_scores(args.scores)
    labels_by_pair = {(t.enroll, t.test): t.label
                      for t in scoring.read_trials(args.trials)}
    values = []
    labels = []
    for s in scored:
        label = labels_by_pair.get((s.enroll, s.test))
        if label is None:
            raise MissingLabels(
                f"trial ({s.enroll}, {s.test}) not present in {args.trials}")
        if label == "-":
            raise MissingLabels(
                f"trial ({s.enroll}, {s.test}) is unlabeled; eval needs 1/0")
        values.append(s.normalized)
        labels.append(label == "1")
    report = metrics.evaluation_report(values, labels, args.p_target,
                                       args.c_miss, args.c_fa)
    text = json.dumps(report, indent=2)
    if args.out:
        data_mod.atomic_write(args.out, (text + "\n").encode("utf-8"))
    print(text)
    return 0


_GRAD_CHECK_PATTERNS = {
    "all": "fd_*",
    "ce": "fd_ce_gradient",
    "re": "fd_re_gradient",
    "odr": "fd_odr_gradient",
    "fdr": "fd_fdr_gradient",
    "composite": "fd_composite_gradient",
    "covariance": "fd_frobenius_covariance_grad",
}


def cmd_grad_check(args) -> int:
    pattern = _GRAD_CHECK_PATTERNS[args.loss]
    results = []
    for case in proptests.build_cases():
        if not fnmatch.fnmatch(case.name, pattern):
            continue
        shifted = proptests.OracleCase(
            case.name, case.kind, case.seed + args.seed, case.tolerance,
            case.runner, case.instances)
        results.append(proptests.run_case(shifted, args.instances))
    if not results:
        raise InvalidConfig(f"no gradient cases match --loss {args.loss}")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:34s} max_dev={r.max_deviation:.3e} "
              f"tol={r.tolerance:.1e} [{status}]")
    if args.report:
        proptests.write_report(results, args.report)
    return 0 if all(r.passed for r in results) else 3


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
