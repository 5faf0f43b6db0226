"""Each rule fires on its bad fixture and stays silent on its good twin."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import CodeIndex
from repro.analysis.rules.determinism import determinism_rule
from repro.analysis.rules.guarded_by import guarded_by_rule
from repro.analysis.rules.lock_order import lock_order_rule
from repro.analysis.rules.published_mutation import published_mutation_rule
from repro.analysis.rules.worker_purity import worker_purity_rule

FIXTURES = Path(__file__).parent / "fixtures"

CASES = [
    ("guarded_by", guarded_by_rule),
    ("worker_purity", worker_purity_rule),
    ("lock_order", lock_order_rule),
    ("determinism", determinism_rule),
    ("published_mutation", published_mutation_rule),
]


def run(name, rule):
    return rule(CodeIndex(FIXTURES / name))


@pytest.mark.parametrize("name,rule", CASES, ids=[c[0] for c in CASES])
def test_bad_fixture_fails(name, rule):
    assert run(f"{name}_bad", rule), f"{name}: bad fixture produced no findings"


@pytest.mark.parametrize("name,rule", CASES, ids=[c[0] for c in CASES])
def test_good_fixture_clean(name, rule):
    assert run(f"{name}_good", rule) == []


def test_guarded_by_finds_both_shapes():
    tokens = {f.token for f in run("guarded_by_bad", guarded_by_rule)}
    assert "count" in tokens  # unlocked self access
    assert "store:count" in tokens  # unlocked cross-object store


def test_worker_purity_names_the_store():
    findings = run("worker_purity_bad", worker_purity_rule)
    assert any(f.token == "store:progress" for f in findings)
    assert all(f.path == "repro/fleet/mod.py" for f in findings)


def test_lock_order_reports_cycle_and_self_deadlock():
    tokens = {f.token for f in run("lock_order_bad", lock_order_rule)}
    assert "self:Single._lock" in tokens
    assert any(t.startswith("cycle:") and "Pair._a_lock" in t for t in tokens)


def test_determinism_flags_every_class():
    tokens = {f.token for f in run("determinism_bad", determinism_rule)}
    assert "wallclock:time.time" in tokens
    assert "random:default_rng" in tokens
    assert "set-iter:seen" in tokens  # list(seen)
    assert "set-iter:<set literal>" in tokens  # for row in {4, 5}


def test_published_mutation_flags_every_shape():
    tokens = {f.token for f in run("published_mutation_bad", published_mutation_rule)}
    assert tokens == {
        "slice-assign:queries",
        "aug-assign:scratch",
        "out=:queries",
        ".fill():scratch",
    }


def test_finding_keys_are_line_stable():
    """Keys carry no line numbers, so findings survive unrelated drift."""
    for finding in run("guarded_by_bad", guarded_by_rule):
        assert str(finding.line) not in finding.key.split(":")
        assert finding.key.startswith("guarded-by:mod.py:")
