import numpy as np
import pytest

from unimix_lt import circles, cli
from unimix_lt.circles import BoundaryResult, run_circles, scenario_data, virtual_cloud
from unimix_lt.data import TwoCircleSpec, gen_two_circles


def _run(spec, scenario):
    return run_circles(spec, scenario, scenario_data(spec, scenario))


def test_boundary_result_validation():
    with pytest.raises(ValueError):
        BoundaryResult("balanced", (1.0, 1.0), 0.0, angle_error_deg=120.0, offset=0.0)
    r = BoundaryResult("unimix", (1.0, 1.0), 0.0, angle_error_deg=5.0, offset=0.2)
    assert r.deviation == pytest.approx(5.0 + 2.0)


def test_balanced_scenario_near_ideal_boundary():
    r = _run(TwoCircleSpec(seed=0), "balanced")
    assert r.angle_error_deg < 10.0


def test_imbalanced_scenario_worse_than_balanced():
    bal = _run(TwoCircleSpec(seed=0), "balanced")
    imb = _run(TwoCircleSpec(seed=0), "imbalanced")
    assert imb.deviation > bal.deviation


def test_unimix_beats_imbalanced_median_over_seeds():
    imb, uni = [], []
    for seed in range(5):
        spec = TwoCircleSpec(seed=seed)
        ds = scenario_data(spec, "imbalanced")  # unimix trains on the same set
        imb.append(run_circles(spec, "imbalanced", ds).deviation)
        uni.append(run_circles(spec, "unimix", ds).deviation)
    assert np.median(uni) < np.median(imb)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        _run(TwoCircleSpec(seed=0), "remix")
    ds = gen_two_circles(TwoCircleSpec(seed=0))
    with pytest.raises(ValueError, match="scenario must be one of"):
        virtual_cloud(ds, "remix", 300, 0)


def test_circles_demo_builds_each_scenario_set_once(tmp_path, monkeypatch):
    calls = []

    def counting(spec):
        calls.append(spec)
        return gen_two_circles(spec)

    monkeypatch.setattr(circles, "gen_two_circles", counting)
    assert cli.main(["circles-demo", "--steps", "5", "--cloud-points", "3",
                     "--out", str(tmp_path / "demo")]) == 0
    assert len(calls) == len(circles.SCENARIOS) == 4


def test_virtual_cloud_shapes():
    ds = gen_two_circles(TwoCircleSpec(seed=1))
    for scenario in ("mixup", "unimix"):
        cloud = virtual_cloud(ds, scenario, 50, seed=1)
        assert cloud.shape == (50, 3)
        assert set(np.unique(cloud[:, 2])) <= {0.0, 1.0}
    assert virtual_cloud(ds, "balanced", 50, seed=1).shape == (0, 3)
    for scenario in ("balanced", "unimix"):
        with pytest.raises(ValueError, match="num_points"):
            virtual_cloud(ds, scenario, -1, seed=1)


def test_virtual_cloud_matches_inline_mixing(inline_virtual_cloud):
    for data_seed in (0, 1, 2):
        ds = gen_two_circles(TwoCircleSpec(seed=data_seed))
        for scenario in ("balanced", "imbalanced", "mixup", "unimix"):
            for seed in range(4):
                got = virtual_cloud(ds, scenario, 300, seed)
                want = inline_virtual_cloud(ds, scenario, 300, seed)
                assert got.shape == want.shape and np.array_equal(got, want), \
                    (data_seed, scenario, seed)
