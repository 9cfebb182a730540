"""The text of every precedence edge, pinned verbatim.

``stratify(...).explain()`` lists each derived constraint with the
condition that forced it and the two terms that unified, in derivation
order: rules in program order; per rule the head target, then each body
version-id-term, whose (d) edges follow its (b) or (c) ones.  How the
edges are found may change; which edges, in which order and with which
text may not.
"""

import pytest

from repro.core.stratification import stratify
from repro.workloads import hypothetical_program, paper_example_program
from repro.workloads.synthetic import version_chain_program

PAPER_ABCD = """\
precedence constraints:
  rule1 < rule3   [condition (a): head mod(E) of rule1 unifies with subterm mod(E) of the head target of rule3]
  rule2 < rule3   [condition (a): head mod(E) of rule2 unifies with subterm mod(E) of the head target of rule3]
  rule1 <= rule3   [condition (b): head mod(E) of rule1 unifies with subterm mod(E) of positive body term of rule3]
  rule2 <= rule3   [condition (b): head mod(E) of rule2 unifies with subterm mod(E) of positive body term of rule3]
  rule1 < rule3   [condition (d): rule1 performs a mod-update on E read as mod(E) in the body of rule3]
  rule2 < rule3   [condition (d): rule2 performs a mod-update on E read as mod(E) in the body of rule3]
  rule1 <= rule3   [condition (b): head mod(E) of rule1 unifies with subterm mod(E) of positive body term of rule3]
  rule2 <= rule3   [condition (b): head mod(E) of rule2 unifies with subterm mod(E) of positive body term of rule3]
  rule1 < rule3   [condition (d): rule1 performs a mod-update on E read as mod(E) in the body of rule3]
  rule2 < rule3   [condition (d): rule2 performs a mod-update on E read as mod(E) in the body of rule3]
  rule1 <= rule3   [condition (b): head mod(E) of rule1 unifies with subterm mod(E) of positive body term of rule3]
  rule2 <= rule3   [condition (b): head mod(E) of rule2 unifies with subterm mod(E) of positive body term of rule3]
  rule1 < rule3   [condition (d): rule1 performs a mod-update on E read as mod(E) in the body of rule3]
  rule2 < rule3   [condition (d): rule2 performs a mod-update on E read as mod(E) in the body of rule3]
  rule1 <= rule3   [condition (b): head mod(E) of rule1 unifies with subterm mod(B) of positive body term of rule3]
  rule2 <= rule3   [condition (b): head mod(E) of rule2 unifies with subterm mod(B) of positive body term of rule3]
  rule1 < rule3   [condition (d): rule1 performs a mod-update on E read as mod(B) in the body of rule3]
  rule2 < rule3   [condition (d): rule2 performs a mod-update on E read as mod(B) in the body of rule3]
  rule1 <= rule3   [condition (b): head mod(E) of rule1 unifies with subterm mod(B) of positive body term of rule3]
  rule2 <= rule3   [condition (b): head mod(E) of rule2 unifies with subterm mod(B) of positive body term of rule3]
  rule1 < rule3   [condition (d): rule1 performs a mod-update on E read as mod(B) in the body of rule3]
  rule2 < rule3   [condition (d): rule2 performs a mod-update on E read as mod(B) in the body of rule3]
  rule1 < rule4   [condition (a): head mod(E) of rule1 unifies with subterm mod(E) of the head target of rule4]
  rule2 < rule4   [condition (a): head mod(E) of rule2 unifies with subterm mod(E) of the head target of rule4]
  rule1 <= rule4   [condition (b): head mod(E) of rule1 unifies with subterm mod(E) of positive body term of rule4]
  rule2 <= rule4   [condition (b): head mod(E) of rule2 unifies with subterm mod(E) of positive body term of rule4]
  rule1 < rule4   [condition (d): rule1 performs a mod-update on E read as mod(E) in the body of rule4]
  rule2 < rule4   [condition (d): rule2 performs a mod-update on E read as mod(E) in the body of rule4]
  rule1 <= rule4   [condition (b): head mod(E) of rule1 unifies with subterm mod(E) of positive body term of rule4]
  rule2 <= rule4   [condition (b): head mod(E) of rule2 unifies with subterm mod(E) of positive body term of rule4]
  rule1 < rule4   [condition (d): rule1 performs a mod-update on E read as mod(E) in the body of rule4]
  rule2 < rule4   [condition (d): rule2 performs a mod-update on E read as mod(E) in the body of rule4]
  rule3 < rule4   [condition (c): head del(mod(E)) of rule3 unifies with subterm del(mod(E)) of negated body term of rule4]
  rule1 < rule4   [condition (c): head mod(E) of rule1 unifies with subterm mod(E) of negated body term of rule4]
  rule2 < rule4   [condition (c): head mod(E) of rule2 unifies with subterm mod(E) of negated body term of rule4]
  rule3 < rule4   [condition (d): rule3 performs a del-update on mod(E) read as del(mod(E)) in the body of rule4]
  rule1 < rule4   [condition (d): rule1 performs a mod-update on E read as mod(E) in the body of rule4]
  rule2 < rule4   [condition (d): rule2 performs a mod-update on E read as mod(E) in the body of rule4]
strata (lowest first):
  stratum 0: {rule1, rule2}
  stratum 1: {rule3}
  stratum 2: {rule4}
"""

PAPER_A = """\
precedence constraints:
  rule1 < rule3   [condition (a): head mod(E) of rule1 unifies with subterm mod(E) of the head target of rule3]
  rule2 < rule3   [condition (a): head mod(E) of rule2 unifies with subterm mod(E) of the head target of rule3]
  rule1 < rule4   [condition (a): head mod(E) of rule1 unifies with subterm mod(E) of the head target of rule4]
  rule2 < rule4   [condition (a): head mod(E) of rule2 unifies with subterm mod(E) of the head target of rule4]
strata (lowest first):
  stratum 0: {rule1, rule2}
  stratum 1: {rule3, rule4}
"""

HYPOTHETICAL = """\
precedence constraints:
  rule1 < rule2   [condition (a): head mod(E) of rule1 unifies with subterm mod(E) of the head target of rule2]
  rule1 <= rule2   [condition (b): head mod(E) of rule1 unifies with subterm mod(E) of positive body term of rule2]
  rule1 < rule2   [condition (d): rule1 performs a mod-update on E read as mod(E) in the body of rule2]
  rule2 < rule3   [condition (a): head mod(mod(E)) of rule2 unifies with subterm mod(mod(peter)) of the head target of rule3]
  rule1 < rule3   [condition (a): head mod(E) of rule1 unifies with subterm mod(peter) of the head target of rule3]
  rule1 <= rule3   [condition (b): head mod(E) of rule1 unifies with subterm mod(E) of positive body term of rule3]
  rule1 < rule3   [condition (d): rule1 performs a mod-update on E read as mod(E) in the body of rule3]
  rule1 <= rule3   [condition (b): head mod(E) of rule1 unifies with subterm mod(peter) of positive body term of rule3]
  rule1 < rule3   [condition (d): rule1 performs a mod-update on E read as mod(peter) in the body of rule3]
  rule3 < rule4   [condition (a): head ins(mod(mod(peter))) of rule3 unifies with subterm ins(mod(mod(peter))) of the head target of rule4]
  rule2 < rule4   [condition (a): head mod(mod(E)) of rule2 unifies with subterm mod(mod(peter)) of the head target of rule4]
  rule1 < rule4   [condition (a): head mod(E) of rule1 unifies with subterm mod(peter) of the head target of rule4]
  rule3 < rule4   [condition (c): head ins(mod(mod(peter))) of rule3 unifies with subterm ins(mod(mod(peter))) of negated body term of rule4]
  rule2 < rule4   [condition (c): head mod(mod(E)) of rule2 unifies with subterm mod(mod(peter)) of negated body term of rule4]
  rule1 < rule4   [condition (c): head mod(E) of rule1 unifies with subterm mod(peter) of negated body term of rule4]
  rule2 < rule4   [condition (d): rule2 performs a mod-update on mod(E) read as mod(mod(peter)) in the body of rule4]
  rule1 < rule4   [condition (d): rule1 performs a mod-update on E read as mod(peter) in the body of rule4]
strata (lowest first):
  stratum 0: {rule1}
  stratum 1: {rule2}
  stratum 2: {rule3}
  stratum 3: {rule4}
"""

CHAIN_3 = """\
precedence constraints:
  g1 < g2   [condition (a): head ins(X) of g1 unifies with subterm ins(X) of the head target of g2]
  g1 <= g2   [condition (b): head ins(X) of g1 unifies with subterm ins(X) of positive body term of g2]
  g2 < g3   [condition (a): head ins(ins(X)) of g2 unifies with subterm ins(ins(X)) of the head target of g3]
  g1 < g3   [condition (a): head ins(X) of g1 unifies with subterm ins(X) of the head target of g3]
  g2 <= g3   [condition (b): head ins(ins(X)) of g2 unifies with subterm ins(ins(X)) of positive body term of g3]
  g1 <= g3   [condition (b): head ins(X) of g1 unifies with subterm ins(X) of positive body term of g3]
  g2 <= g3   [condition (b): head ins(ins(X)) of g2 unifies with subterm ins(ins(X)) of positive body term of g3]
  g1 <= g3   [condition (b): head ins(X) of g1 unifies with subterm ins(X) of positive body term of g3]
strata (lowest first):
  stratum 0: {g1}
  stratum 1: {g2}
  stratum 2: {g3}
"""


@pytest.mark.parametrize(
    "program, conditions, expected",
    [
        (paper_example_program, "abcd", PAPER_ABCD),
        (paper_example_program, "a", PAPER_A),
        (hypothetical_program, "abcd", HYPOTHETICAL),
        (lambda: version_chain_program(3), "abcd", CHAIN_3),
    ],
    ids=["paper-abcd", "paper-a", "hypothetical", "chain-3"],
)
def test_explain_text_is_pinned(program, conditions, expected):
    assert stratify(program(), conditions=conditions).explain() + "\n" == expected
