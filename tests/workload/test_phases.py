"""PhasedTransactionMix: the runtime side of phase schedules."""

from random import Random

import pytest

from repro.odb.mix import PhasedTransactionMix
from repro.workload import TouchRule, TransactionSpec

from tests.odb.reference_prewarm import pick

TRANSACTIONS = tuple(
    TransactionSpec(name=name, weight=0.5, user_instructions=1000.0,
                    touches=(TouchRule("stock", 1),))
    for name in ("a", "b"))


def _schedule():
    a_heavy = (0.9, 0.1)
    b_heavy = (0.1, 0.9)
    base = (0.5, 0.5)
    return base, ((2.0, a_heavy), (1.0, b_heavy))


def test_active_phase_follows_the_clock():
    base, schedule = _schedule()
    now = [0.0]
    mix = PhasedTransactionMix(TRANSACTIONS, base, schedule,
                               clock=lambda: now[0])
    assert mix.cycle_s == 3.0
    for time, expected in ((0.0, 0), (1.9, 0), (2.0, 1), (2.9, 1),
                           (3.0, 0), (5.5, 1), (60.5, 0)):
        now[0] = time
        assert mix.active_phase() == expected, f"t={time}"


def test_pick_uses_the_active_phase_weights():
    base, schedule = _schedule()
    now = [0.0]
    mix = PhasedTransactionMix(TRANSACTIONS, base, schedule,
                               clock=lambda: now[0])
    rng = Random(7)
    share_a = sum(pick(mix, rng).name == "a" for _ in range(3000)) / 3000
    assert share_a == pytest.approx(0.9, abs=0.03)
    now[0] = 2.5  # inside the b-heavy phase
    share_a = sum(pick(mix, rng).name == "a" for _ in range(3000)) / 3000
    assert share_a == pytest.approx(0.1, abs=0.03)


def test_base_profiles_stay_the_stationary_view():
    base, schedule = _schedule()
    mix = PhasedTransactionMix(TRANSACTIONS, base, schedule,
                               clock=lambda: 0.0)
    assert mix.weights == base


def test_empty_schedule_rejected():
    base, _ = _schedule()
    with pytest.raises(ValueError, match="at least one phase"):
        PhasedTransactionMix(TRANSACTIONS, base, (), clock=lambda: 0.0)


def test_nonpositive_duration_rejected():
    base, schedule = _schedule()
    bad = ((0.0, schedule[0][1]),)
    with pytest.raises(ValueError, match="positive"):
        PhasedTransactionMix(TRANSACTIONS, base, bad, clock=lambda: 0.0)
