"""The gradient-check table, its report, and the oracles the tests use."""

import argparse
import json

import oracles
from sdpn import cli, proptests, trainer

REPORT_KEYS = ["name", "kind", "max_deviation", "tolerance", "passed",
               "elapsed_sec", "detail"]


def _code_names(code):
    """Global and attribute names a function's code reads, nested
    comprehensions and lambdas included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


def test_grad_checks_names_and_seeds_are_unique():
    entries = list(proptests.GRAD_CHECKS.values())
    names = [name for name, _, _, _ in entries]
    seeds = [seed for _, _, seed, _ in entries]
    assert len(set(names)) == len(names)
    assert len(set(seeds)) == len(seeds)
    assert all(name.startswith("fd_") for name in names)
    assert all(tol > 0 for _, _, _, tol in entries)

    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    loss = next(a for a in subparsers.choices["grad-check"]._actions
                if a.dest == "loss")
    assert list(loss.choices) == ["all", *proptests.GRAD_CHECKS]
    assert list(proptests.GRAD_CHECKS) == ["ce", "re", "odr", "fdr",
                                           "composite", "covariance"]


def test_gradient_cases_pass_at_reduced_instances():
    for loss in proptests.GRAD_CHECKS:
        r = proptests.run_check(loss, 5)
        assert r["passed"], f"{r['name']}: {r['max_deviation']} > " \
                            f"{r['tolerance']}"
        assert r["max_deviation"] <= r["tolerance"]


def test_composite_check_reads_the_trainer_objective(monkeypatch):
    """A 1% error in one gradient that ``trainer.student_objective`` returns
    fails the composite check: it checks the trainer's code, not a copy."""
    real = trainer.student_objective

    def skewed(*args, **kwargs):
        terms, grads, student_global = real(*args, **kwargs)
        grads["prototypes"] = grads["prototypes"] * 1.01
        return terms, grads, student_global

    monkeypatch.setattr(trainer, "student_objective", skewed)
    r = proptests.run_check("composite", 5)
    assert not r["passed"]
    assert r["max_deviation"] > 1e-3


def test_run_check_reports_fields():
    r = proptests.run_check("covariance", 5, seed_offset=3)
    assert list(r) == REPORT_KEYS
    assert r["name"] == "fd_frobenius_covariance_grad"
    assert r["kind"] == "fd_gradient"
    assert r["tolerance"] == 1e-6
    assert r["passed"] is True
    assert r["detail"] == "5 matrices, absolute deviation"
    # the offset moves every instance draw, so the deviation changes
    assert r["max_deviation"] != \
        proptests.run_check("covariance", 5)["max_deviation"]


def test_write_report_roundtrip(tmp_path):
    results = [proptests.run_check("re", 3)]
    path = tmp_path / "report.jsonl"
    proptests.write_report(results, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records == results


def test_grad_check_all_writes_one_record_per_table_entry(tmp_path, capsys):
    report = tmp_path / "grad.jsonl"
    assert cli.main(["grad-check", "--loss", "all", "--instances", "5",
                     "--report", str(report)]) == 0
    printed = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in report.read_text().splitlines()]
    names = [name for name, _, _, _ in proptests.GRAD_CHECKS.values()]
    assert [r["name"] for r in records] == names
    assert [line.split()[0] for line in printed] == names
    assert all(list(r) == REPORT_KEYS for r in records)
    assert all(r["kind"] == "fd_gradient" and r["passed"] for r in records)


def test_identity_cases_pass_at_reduced_instances():
    assert oracles.identity_metric_monotone(10) <= 1e-12
    assert oracles.identity_asnorm_snorm(10) <= 1e-12
    assert oracles.identity_affine_invariance(10) <= 1e-10
    assert oracles.identity_covariance_scale(10) <= 1e-12


def test_metric_oracle_cases_pass_at_reduced_instances():
    assert oracles.eer_vs_oracle(20) <= 1e-12
    assert oracles.min_dcf_vs_oracle(20) == 0.0


def test_oracles_do_not_call_the_code_they_check():
    checked = {"metrics", "det_sweep", "eer", "min_dcf", "np", "numpy"}
    for fn in (oracles.oracle_det_points, oracles.oracle_eer,
               oracles.oracle_min_dcf):
        assert not _code_names(fn.__code__) & checked, fn.__name__


def test_paired_mini_smoke():
    ratio, result = oracles.paired_run_mini()
    assert ratio <= 0.7, result
