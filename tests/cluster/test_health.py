"""The node health state machine: misses, scores, hysteresis."""

import pytest

from repro.cluster.health import (
    ACTION_WEIGHTS,
    SUSPECT_SCORE,
    NodeHealth,
    NodeHealthMonitor,
)


@pytest.fixture
def monitor():
    return NodeHealthMonitor("node0")


class TestHeartbeatLadder:
    def test_starts_healthy(self, monitor):
        assert monitor.state is NodeHealth.HEALTHY
        assert monitor.alive and monitor.placeable

    def test_one_miss_makes_suspect(self, monitor):
        assert monitor.beat(answered=False) is NodeHealth.SUSPECT
        assert not monitor.placeable
        assert monitor.alive

    def test_consecutive_misses_declare_down(self, monitor):
        for _ in range(3):
            monitor.beat(answered=False)
        assert monitor.state is NodeHealth.DOWN
        assert not monitor.alive

    def test_answer_resets_consecutive_count(self, monitor):
        monitor.beat(answered=False)
        monitor.beat(answered=False)
        monitor.beat(answered=True)  # back in time
        monitor.beat(answered=False)
        monitor.beat(answered=False)
        assert monitor.state is not NodeHealth.DOWN
        assert monitor.missed_total == 4

    def test_down_is_terminal(self, monitor):
        for _ in range(3):
            monitor.beat(answered=False)
        for _ in range(50):
            monitor.beat(answered=True)
        assert monitor.state is NodeHealth.DOWN

    def test_force_down(self, monitor):
        monitor.force_down("power loss")
        assert monitor.state is NodeHealth.DOWN
        assert monitor.transitions[-1].reason == "power loss"


class TestFailureScore:
    def test_failure_weight_degrades(self, monitor):
        monitor.note_failure("fenced")      # 1.0
        monitor.note_failure("fenced")      # 2.0 >= degrade_score
        assert monitor.state is NodeHealth.DEGRADED
        assert monitor.placeable  # degraded still accepts load

    def test_heavy_score_makes_suspect_while_answering(self, monitor):
        for _ in range(3):
            monitor.note_failure("quarantined")  # 3.0 each
        assert monitor.score >= SUSPECT_SCORE
        assert monitor.state is NodeHealth.SUSPECT

    def test_score_decays_back_to_healthy(self, monitor):
        monitor.note_failure("fenced")
        monitor.note_failure("fenced")
        assert monitor.state is NodeHealth.DEGRADED
        for _ in range(10):  # 2.0 * 0.9^10 ≈ 0.7 < recover_score
            monitor.beat(answered=True)
        assert monitor.state is NodeHealth.HEALTHY

    def test_suspect_demotes_to_degraded_when_answering(self, monitor):
        """The hysteresis band: a suspect node that answers again drops
        one rung; full recovery waits for the score to decay."""
        for _ in range(3):
            monitor.note_failure("quarantined")
        assert monitor.state is NodeHealth.SUSPECT
        # decay into the band (recover_score, suspect_score)
        while monitor.score >= SUSPECT_SCORE:
            monitor.beat(answered=True)
        assert monitor.state is NodeHealth.DEGRADED

    def test_hold_between_thresholds(self, monitor):
        # RECOVER_SCORE 1.0, DEGRADE_SCORE 2.0
        monitor.note_failure("fenced")
        monitor.note_failure("deadline")  # 1.5: between recover and degrade
        assert monitor.state is NodeHealth.HEALTHY  # never got above 2.0

    def test_migration_is_not_the_nodes_failure(self, monitor):
        monitor.note_failure("migrated")
        assert monitor.score == ACTION_WEIGHTS["migrated"] == 0.0
        assert monitor.state is NodeHealth.HEALTHY

    def test_unknown_action_gets_default_weight(self, monitor):
        monitor.note_failure("something_new")
        assert monitor.score == 0.5


class TestFailureDomainScore:
    def test_healthy_is_raw_score(self, monitor):
        monitor.note_failure("suppressed")
        assert monitor.failure_domain_score() == pytest.approx(0.1)

    def test_state_surcharges_stack(self, monitor):
        monitor.note_failure("fenced")
        monitor.note_failure("fenced")
        assert monitor.state is NodeHealth.DEGRADED
        assert monitor.failure_domain_score() == pytest.approx(2.0 + 1.0)

    def test_down_is_infinite(self, monitor):
        monitor.force_down("dead")
        assert monitor.failure_domain_score() == float("inf")

    def test_transitions_are_recorded(self, monitor):
        monitor.beat(answered=False)
        monitor.beat(answered=True)
        states = [(t.previous, t.current) for t in monitor.transitions]
        assert (NodeHealth.HEALTHY, NodeHealth.SUSPECT) in states
