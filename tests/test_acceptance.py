"""The acceptance gate: every criterion at reference scale, one test each.

Each test runs its criterion through the suite's runner, which prints the
verdict line (visible with ``pytest -s`` or on failure), and pins that line
byte for byte apart from its ``[x.xs]`` runtime.
"""

import re
from types import SimpleNamespace

from semilink import acceptance
from semilink.acceptance import run_acceptance_suite

LINES = {
    1: "[PASS] criterion 1 (circulant-connectivity): "
       "kappa=7:3,9:4,11:5,13:6,15:7,17:8,19:9,21:10,23:11,25:12,27:13",
    2: "[PASS] criterion 2 (flow-oracle-equivalence): 200 instances, 0 mismatches",
    3: "[PASS] criterion 3 (dominating-vertex-finder): 500 digraphs, 0 failures",
    4: "[PASS] criterion 4 (two-linkage-spot-check): 50 queries, 0 non-yes",
    5: "[PASS] criterion 5 (linkage-end-to-end): 40/40 valid certificates",
    6: "[PASS] criterion 6 (construction-certification): degree 104>=86, "
       "rules 13/13, 43 escape paths, min sampled cut 85",
    7: "[PASS] criterion 7 (adjustment-program-audit): 1 round(s), "
       "cases ['arc'], growth [5] (limit 13)",
    8: "[PASS] criterion 8 (fault-injection): "
       "5 mutations, each caught by its owning rule",
}


def _run(number):
    [result] = run_acceptance_suite([number])
    assert result.passed, result.line()
    timing = re.fullmatch(r"(.*) \[\d+\.\ds\]", result.line())
    assert timing is not None, result.line()
    assert timing.group(1) == LINES[number]


def test_criterion_1_circulant_connectivity():
    _run(1)


def test_criterion_2_flow_oracle_equivalence():
    _run(2)


def test_criterion_3_dominating_vertex_finder():
    _run(3)


def test_criterion_4_two_linkage_spot_check():
    _run(4)


def test_criterion_5_linkage_end_to_end():
    _run(5)


def test_criterion_6_construction_certification():
    _run(6)


def test_criterion_7_adjustment_program_audit():
    _run(7)


def test_criterion_8_fault_injection():
    _run(8)


def test_budget_overrun_fails(monkeypatch, capsys):
    # the runner reads the clock once before and once after the check
    clock = iter([0.0, 61.0])
    monkeypatch.setattr(acceptance, "time",
                        SimpleNamespace(monotonic=lambda: next(clock)))
    [result] = run_acceptance_suite([7])
    assert not result.passed and result.seconds == 61.0
    assert result.details.endswith("; exceeded 60s budget")
    assert capsys.readouterr().out == \
        LINES[7].replace("[PASS]", "[FAIL]") + "; exceeded 60s budget [61.0s]\n"

