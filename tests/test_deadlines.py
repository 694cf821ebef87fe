"""A public call's timeout bounds the whole call, not each stage.

The first stage of a call gets the caller's ``timeout``; each later
stage gets the time left on the one deadline, from
``kernel._time_left``, and once that deadline has passed no further
stage starts.  The stages are stubbed by sleeps of at most 0.1 s.  A
later stage's timeout is checked under a 1 s deadline, so that a
stalled test machine cannot expire it first.
"""

from __future__ import annotations

import sys
import time
from itertools import combinations

import pytest

from rainbow_lab import absorbing, experiments, fractional, shift
from rainbow_lab.absorbing import (
    AbsorberGadget,
    AbsorptionError,
    BalancedSet,
    absorb,
    absorb_scenario,
    build_gadget,
    is_absorbing,
)
from rainbow_lab.constructions import PartiteHypergraph, complete_partite
from rainbow_lab.fractional import min_fractional_cover
from rainbow_lab.kernel import _deadline, _time_left
from rainbow_lab.shift import (
    cover_closure,
    fractional_pm_pipeline,
    identity_order,
    stable_shift,
)
from rainbow_lab.solvers import Matching, SolverTimeout, has_perfect_matching, max_matching

BODY = [*range(1, 7), *range(10, 28)]  # 6 class + 18 other vertices
TARGET = [0, 7, 8, 9]


def found(sub, **kwargs):
    return True, Matching(edges=())


def not_found(sub, **kwargs):
    return False, None


class SlowStage:
    """A stage stub: records its timeout, sleeps, then answers
    ``run(*args, **kwargs)``.

    An ``honest`` stage stops at its timeout and raises, as the
    package's searches and LPs do; otherwise it overruns its timeout,
    as a search between two deadline polls can.
    """

    def __init__(self, run, honest=True, seconds=0.1):
        self.run, self.honest, self.seconds = run, honest, seconds
        self.timeouts: list = []

    def __call__(self, *args, timeout, **kwargs):
        self.timeouts.append(timeout)
        if self.honest and timeout < self.seconds:
            time.sleep(timeout)
            raise SolverTimeout("stub stage exceeded its deadline")
        time.sleep(self.seconds)
        return self.run(*args, **kwargs)


def assert_time_left(timeouts, total, stages):
    """The first stage got ``total``, and each later one that less the
    0.1 s sleep of every stage before it."""
    assert len(timeouts) == stages and timeouts[0] == total
    for i, t in enumerate(timeouts[1:], 1):
        assert 0 < t <= total - 0.1 * i


def test_time_left():
    assert _time_left(_deadline(None), "stage") is None
    assert 0 < _time_left(_deadline(30.0), "stage") <= 30.0
    with pytest.raises(SolverTimeout, match="^stage exceeded its deadline$"):
        _time_left(time.monotonic() - 1.0, "stage")


def test_is_absorbing_two_slow_stages_outlast_the_timeout(monkeypatch):
    stage = SlowStage(found)
    monkeypatch.setattr(absorbing, "has_perfect_matching", stage)
    with pytest.raises(SolverTimeout):
        is_absorbing(BODY, TARGET, complete_partite(7, 21), timeout=0.15)
    assert stage.timeouts[0] == 0.15 and all(t < 0.15 for t in stage.timeouts[1:])


def test_is_absorbing_later_stage_gets_the_time_left(monkeypatch):
    stage = SlowStage(found)
    monkeypatch.setattr(absorbing, "has_perfect_matching", stage)
    ok, _ = is_absorbing(BODY, TARGET, complete_partite(7, 21), timeout=1.0)
    assert ok
    assert_time_left(stage.timeouts, 1.0, 2)


def test_is_absorbing_starts_no_stage_after_the_deadline(monkeypatch):
    stage = SlowStage(found, honest=False)
    monkeypatch.setattr(absorbing, "has_perfect_matching", stage)
    with pytest.raises(SolverTimeout, match="absorbing check exceeded its deadline"):
        is_absorbing(BODY, TARGET, complete_partite(7, 21), timeout=0.05)
    assert stage.timeouts == [0.05]


def test_absorb_stages_share_the_deadline(monkeypatch):
    # two gadgets for one piece: the second joint search is a later stage
    graph = complete_partite(14, 42)
    pool = []
    for q0, p0 in ((2, 20), (8, 38)):
        body = BalancedSet(q_part=tuple(range(q0, q0 + 6)), p_part=tuple(range(p0, p0 + 18)))
        _, (pm_body, pm_joint) = is_absorbing(body.vertices(), [0, 14, 15, 16], graph)
        target = BalancedSet.from_vertices([0, 14, 15, 16], graph)
        pool.append(AbsorberGadget(target, body, pm_body, pm_joint))
    leftover = BalancedSet(q_part=(1,), p_part=(17, 18, 19))
    stage = SlowStage(not_found)
    monkeypatch.setattr(absorbing, "has_perfect_matching", stage)
    with pytest.raises(AbsorptionError):
        absorb(pool, leftover, graph, timeout=1.0)
    assert_time_left(stage.timeouts, 1.0, 2)
    overrun = SlowStage(not_found, honest=False)
    monkeypatch.setattr(absorbing, "has_perfect_matching", overrun)
    with pytest.raises(SolverTimeout, match="absorption exceeded its deadline"):
        absorb(pool, leftover, graph, timeout=0.05)
    assert overrun.timeouts == [0.05]


def test_scenario_stages_share_the_deadline(monkeypatch):
    graph = complete_partite(8, 24)
    gadget = build_gadget((0, 8, 9, 10), graph, graph.p_vertices())
    stages = {
        "build_gadget": SlowStage(lambda *args: gadget, honest=False),
        "max_matching": SlowStage(max_matching, honest=False),
        "absorb": SlowStage(absorb, honest=False),
    }
    for name, stage in stages.items():
        monkeypatch.setattr(absorbing, name, stage)
    absorb_scenario(graph, [(0, 8, 9, 10)], timeout=1.0)
    assert_time_left([t for s in stages.values() for t in s.timeouts], 1.0, 3)
    for stage in stages.values():
        stage.timeouts.clear()
    with pytest.raises(SolverTimeout, match="absorb scenario exceeded its deadline"):
        absorb_scenario(graph, [(0, 8, 9, 10)], timeout=0.15)
    assert stages["build_gadget"].timeouts == [0.15]
    assert stages["absorb"].timeouts == []


def test_pipeline_stages_share_the_deadline(monkeypatch):
    lp = SlowStage(min_fractional_cover, honest=False)
    shifting = SlowStage(stable_shift, honest=False)
    link = SlowStage(has_perfect_matching, honest=False)
    monkeypatch.setattr(shift, "min_fractional_cover", lp)
    monkeypatch.setattr(shift, "stable_shift", shifting)
    monkeypatch.setattr(shift, "has_perfect_matching", link)
    assert fractional_pm_pipeline(complete_partite(3, 9), timeout=1.0).found
    assert_time_left(lp.timeouts + shifting.timeouts + link.timeouts, 1.0, 3)
    with pytest.raises(SolverTimeout, match="shift pipeline exceeded its deadline"):
        fractional_pm_pipeline(complete_partite(3, 9), timeout=0.05)
    assert len(shifting.timeouts) == len(link.timeouts) == 1


def test_shift_setup_polls_the_deadline():
    # threshold 0, so no triple is deficient and no round runs: only the
    # set-up, polled before each class vertex's link, can expire
    order = identity_order(complete_partite(2, 6))
    assert stable_shift(order, 0, timeout=None)[1].steps == ()
    with pytest.raises(SolverTimeout, match="stability shift exceeded its deadline"):
        stable_shift(order, 0, timeout=1e-9)


def shift_polls(monkeypatch, order, threshold):
    """The functions that poll the shift's deadline, one entry per poll
    in order, and the shift's trace."""
    polls = []

    def counting(deadline, what):
        if what == "stability shift":
            polls.append(sys._getframe(1).f_code.co_name)
        return _time_left(deadline, what)

    monkeypatch.setattr(shift, "_time_left", counting)
    trace = stable_shift(order, threshold, timeout=60.0)[1]
    return polls, trace


def test_shift_polls_once_per_unit(monkeypatch):
    # Class vertex 0 has the upward closed link of the trios through the
    # top vertex 8, and class vertices 1 and 2 have every trio: three
    # runs, two distinct links and one nesting check.  At threshold 0 no
    # link is weak, so nothing is bucketed and no round runs.
    every = list(combinations(range(3, 9), 3))
    top = [t for t in every if 8 in t]
    graph = PartiteHypergraph(
        3, 6, [(0, *t) for t in top] + [(u, *t) for u in (1, 2) for t in every]
    )
    polls, trace = shift_polls(monkeypatch, identity_order(graph), 0)
    assert trace.steps == ()
    # three runs, two rankings, then two stability scans and a nesting check
    assert polls == ["stable_shift"] * 5 + ["_stable"] * 3
    # one weak link: its bucketing and each of its rounds poll once, and
    # the result is scanned again
    polls, trace = shift_polls(monkeypatch, identity_order(complete_partite(1, 4)), 6)
    assert len(trace.steps) == 3
    assert polls == ["stable_shift"] * 2 + ["_stable"] + ["_shift_link"] * 4 + ["_stable"]


def test_cover_closure_polls_the_deadline():
    # the closure is polled once per class vertex, before it builds that
    # vertex's edges, so an expired deadline stops it at the first
    graph = complete_partite(3, 9)
    cover = min_fractional_cover(graph, timeout=None)[1]
    assert cover_closure(graph, cover, timeout=None).graph.n_edges == 252
    with pytest.raises(SolverTimeout, match="cover closure exceeded its deadline"):
        cover_closure(graph, cover, timeout=1e-9)


# An experiment trial takes one deadline too: the first solver call gets
# ``timeout_seconds`` and the second the time left.  Keyed by the suite,
# which names the trial's deadline error: the trial on a config and its
# two stages as (module, name, stub answer).
REAL_VERIFY = fractional.verify_duality
REAL_PIPELINE = experiments.fractional_pm_pipeline
RAINBOW_THEN_PARTITE = [
    (experiments, "rainbow_matching", lambda family: None),
    (experiments, "partite_perfect_matching", lambda graph: None),
]
TRIALS = {
    "sharpness": (lambda cfg: experiments._sharpness_trial(cfg, 6), RAINBOW_THEN_PARTITE),
    "equivalence": (
        lambda cfg: experiments._equivalence_trial(cfg, 0, 6, 0),
        RAINBOW_THEN_PARTITE,
    ),
    "duality": (
        lambda cfg: experiments._duality_trial(cfg, 0),
        [
            (experiments, "verify_duality", lambda graph: REAL_VERIFY(graph, None)),
            (experiments, "max_matching", lambda graph: Matching(edges=())),
        ],
    ),
    # trial 3 is a q=2 instance whose closure contains the shift, so
    # its value check runs a second LP
    "shift": (
        lambda cfg: experiments._shift_trial(cfg, 3),
        [
            (
                experiments,
                "fractional_pm_pipeline",
                lambda graph: REAL_PIPELINE(graph, timeout=None),
            ),
            (experiments, "max_fractional_matching", lambda graph: (0, None)),
        ],
    ),
}


def stub_trial_stages(monkeypatch, stages, honest):
    """Replace each stage by a SlowStage; every stage takes its timeout
    as its one keyword argument."""
    slow = [SlowStage(run, honest=honest) for _, _, run in stages]
    for (module, name, _), stage in zip(stages, slow):
        monkeypatch.setattr(module, name, stage)
    return slow


@pytest.mark.parametrize("suite", sorted(TRIALS))
def test_trial_stages_share_the_deadline(monkeypatch, suite):
    trial, stages = TRIALS[suite]
    slow = stub_trial_stages(monkeypatch, stages, honest=True)
    trial(experiments.ExperimentConfig(timeout_seconds=1.0))
    assert_time_left([t for s in slow for t in s.timeouts], 1.0, 2)
    overrun = stub_trial_stages(monkeypatch, stages, honest=False)
    with pytest.raises(SolverTimeout, match=f"{suite} trial exceeded its deadline"):
        trial(experiments.ExperimentConfig(timeout_seconds=0.05))
    assert overrun[0].timeouts == [0.05] and overrun[1].timeouts == []
