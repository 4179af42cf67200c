"""PRB scheduler: contention, poor-channel caps, cross-traffic models."""

from repro.mac.crosstraffic import CrossTrafficModel, CrossTrafficUe
from repro.mac.scheduler import DlScheduler, prbs_needed


def test_prbs_needed_scales():
    assert prbs_needed(0, 20) == 0
    small = prbs_needed(100, 20)
    big = prbs_needed(10_000, 20)
    assert 1 <= small < big
    # Lower MCS needs more PRBs for the same bytes.
    assert prbs_needed(1000, 2) > prbs_needed(1000, 20)


def test_uncontended_allocation_grants_demand():
    scheduler = DlScheduler(total_prbs=100)
    allocation = scheduler.allocate(10, exp_mcs=20, cross_demands=[(41000, 30)])
    assert allocation.exp_prbs == 10
    assert allocation.cross_prbs == 30


def test_contention_squeezes_proportionally():
    scheduler = DlScheduler(total_prbs=100)
    allocation = scheduler.allocate(
        20, exp_mcs=20, cross_demands=[(41000, 380)]
    )
    # Demand-proportional: 100 * 20/400 = 5 PRBs.
    assert allocation.exp_prbs == 5
    assert allocation.exp_prbs + allocation.cross_prbs <= 100


def test_experiment_ue_never_starved_to_zero():
    scheduler = DlScheduler(total_prbs=100)
    allocation = scheduler.allocate(
        5, exp_mcs=20, cross_demands=[(41000, 10_000)]
    )
    assert allocation.exp_prbs >= 1


def test_poor_channel_cap():
    scheduler = DlScheduler(
        total_prbs=100,
        poor_channel_mcs_threshold=6,
        poor_channel_prb_fraction=0.5,
    )
    healthy = scheduler.allocate(90, exp_mcs=20, cross_demands=[])
    poor = scheduler.allocate(90, exp_mcs=3, cross_demands=[])
    assert healthy.exp_prbs == 90
    assert poor.exp_prbs == 50  # capped at half the cell


def test_max_exp_fraction_cap():
    scheduler = DlScheduler(total_prbs=100, max_exp_fraction=0.6)
    allocation = scheduler.allocate(100, exp_mcs=20, cross_demands=[])
    assert allocation.exp_prbs == 60


def test_cross_traffic_on_off_structure():
    ue = CrossTrafficUe(rnti=41000, mean_on_ms=100, mean_off_ms=100, seed=3)
    demands = [ue.demand_at(t) for t in range(0, 10_000_000, 1000)]
    busy = sum(1 for d in demands if d > 0)
    # Roughly half the time busy given symmetric on/off means.
    assert 0.2 < busy / len(demands) < 0.8
    # Demand is constant within a busy period (bursts, not noise).
    assert max(demands) >= 1


def test_scripted_burst_overrides_idle():
    ue = CrossTrafficUe(
        rnti=41000,
        mean_on_ms=0.0,
        mean_prb_demand=0.0,
        scripted_bursts=[(1_000_000, 500_000, 42)],
        seed=1,
    )
    assert ue.demand_at(500_000) == 0
    assert ue.demand_at(1_200_000) == 42
    assert ue.demand_at(1_600_000) == 0


def test_cross_traffic_model_aggregates():
    model = CrossTrafficModel.build(
        n_ues=3, mean_on_ms=1000, mean_off_ms=0.001, mean_prb_demand=10, seed=2
    )
    demands = model.demands_at(5_000_000)
    assert len(demands) >= 1
    assert model.total_demand_at(5_000_000) == sum(d for _, d in demands)
    rntis = [r for r, _ in demands]
    assert all(r >= 40_000 for r in rntis)


def test_idle_model_empty():
    model = CrossTrafficModel.idle()
    assert model.total_demand_at(123_456) == 0


def test_cross_traffic_cache_matches_polling_every_ue():
    """demands_at's cached list equals polling every UE on every call,
    draws included, with irregular call times and bursts added mid-call
    through add_burst."""

    def population():
        model = CrossTrafficModel.build(
            n_ues=4, mean_on_ms=40, mean_off_ms=120, mean_prb_demand=12, seed=5
        )
        model.ues[1].scripted_bursts.append((300_000, 200_000, 30))
        model.add_ue(
            CrossTrafficUe(rnti=49_000, mean_on_ms=0.0, mean_prb_demand=0.0)
        )
        return model

    cached, polled = population(), population()
    now = 0
    for call in range(6_000):
        now += 500 if call % 3 else 1_500  # a TDD-like call pattern
        if call in (1_000, 2_500):
            for model in (cached, polled):
                model.ues[-1].add_burst(now + 7_000, 50_000, 25)
                model.ues[2].add_burst(now, 2_000, 5)
        expected = [
            (ue.rnti, demand)
            for ue in polled.ues
            if (demand := ue.demand_at(now)) > 0
        ]
        assert list(cached.demands_at(now)) == expected
