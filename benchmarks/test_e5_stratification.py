"""E5 — Section 4: the stratification machinery.

Paper expectation: the enterprise program stratifies as {r1,r2},{r3,r4}
under condition (a) alone and {r1,r2},{r3},{r4} under (a)-(d); the
hypothetical program as four singletons (footnote 3).
Measured: stratification cost versus rule count.  A depth-k chain program
has k strata and a quadratic number of precedence edges (80 / 366 / 1 517
at k = 8 / 16 / 32, asserted below).  Finding them takes a cubic
number of pairwise ``unifiable`` calls (710 / 5 579 / 43 260), so
``stratify`` time grows faster than the edge count.  The terms those calls
compare are renamed apart once per call, not once per pair, so the
``VersionId``s one ``stratify`` builds grow only quadratically (asserted
below).
"""

import pytest

from repro import stratify
from repro.core.terms import VersionId
from repro.workloads import hypothetical_program, paper_example_program
from repro.workloads.synthetic import version_chain_program


def test_e5_paper_program_full():
    program = paper_example_program()
    strata = stratify(program)
    assert strata.names() == [["rule1", "rule2"], ["rule3"], ["rule4"]]


def test_e5_paper_program_condition_a():
    program = paper_example_program()
    strata = stratify(program, conditions="a")
    assert strata.names() == [["rule1", "rule2"], ["rule3", "rule4"]]


def test_e5_hypothetical_footnote3():
    program = hypothetical_program()
    strata = stratify(program)
    assert strata.names() == [["rule1"], ["rule2"], ["rule3"], ["rule4"]]


#: ``len(precedence_edges(version_chain_program(k)))``: quadratic in k.
CHAIN_EDGES = {8: 80, 16: 366, 32: 1517}


@pytest.mark.parametrize("k", [8, 16, 32])
def test_e5_cost_vs_rule_count(k):
    program = version_chain_program(k)
    strata = stratify(program)
    assert len(strata) == k  # one stratum per update group
    assert len(strata.edges) == CHAIN_EDGES[k]  # precedence_edges(program)


#: Upper bounds on the ``VersionId``s one ``stratify(version_chain_program(k))``
#: builds, the renamed heads and body terms: 111 / 445 / 1 763, quadratic in k.
CHAIN_VERSION_IDS = {8: 150, 16: 620, 32: 3000}


@pytest.mark.parametrize("k", [8, 16, 32])
def test_e5_renames_each_term_once(k, monkeypatch):
    program = version_chain_program(k)
    built = 0
    init = VersionId.__init__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(VersionId, "__init__", counting_init)
    stratify(program)
    assert built <= CHAIN_VERSION_IDS[k]
