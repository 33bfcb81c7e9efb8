import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lobvi import analysis
from lobvi.analysis import (
    FLOOR_ULPS,
    STABILITY_GRID,
    StabilityScan,
    TrajectoryRecord,
    convergence_table,
    energy_drift_series,
    estimate_order,
    linf_error,
    map_jacobian_determinant,
    orbit_scale,
    stability_scan,
)
from lobvi.exact import HarmonicExact, harmonic_exact
from lobvi.harmonic import (
    HarmonicParams,
    run_harmonic,
    stability_limit,
    step_harmonic,
    transfer_matrix,
)
from lobvi.mechanics import PhasePoint, energy, harmonic_potential

from oracle import drift_by_max, drift_by_time, scan_by_points

W = 2.0 * math.pi


def make_record(n=5, with_hd=False):
    times = [0.1 * j for j in range(n)]
    points = [PhasePoint(float(j), -float(j)) for j in range(n)]
    exact = [PhasePoint(float(j) + 0.01 * j, -float(j)) for j in range(n)]
    energies = [2.0 + 0.001 * j for j in range(n)]
    hd = [5.0 for _ in range(n)] if with_hd else None
    return TrajectoryRecord(
        times=times, points=points, exact=exact, energies=energies, discrete_energies=hd
    )


class TestLinfError:
    def test_zero_when_exact(self):
        times = [0.0, 1.0]
        pts = [PhasePoint(1.0, 2.0), PhasePoint(3.0, 4.0)]
        rec = TrajectoryRecord(times=times, points=pts, exact=pts, energies=[1.0, 1.0])
        assert linf_error(rec, "p") == 0.0
        assert linf_error(rec, "q") == 0.0
        assert linf_error(rec, "H") == 0.0

    def test_takes_the_maximum(self):
        rec = make_record()
        # exact q equals computed q; exact p differs by 0.01 j
        assert linf_error(rec, "q") == 0.0
        assert linf_error(rec, "p") == pytest.approx(0.04)

    def test_energy_error_uses_initial_reference(self):
        rec = make_record()
        assert linf_error(rec, "H") == pytest.approx(0.004)

    @pytest.mark.parametrize("observable", ["p", "H"])
    def test_mid_run_nan_is_the_result(self, observable):
        # max() over the errors would keep its running value past the NaN
        exact = [PhasePoint(1.0, 0.5)] * 5
        points = list(exact)
        points[2] = PhasePoint(math.nan, 0.5)
        rec = TrajectoryRecord(
            times=[0.1 * j for j in range(5)],
            points=points,
            exact=exact,
            energies=[1.0, 1.0, math.nan, 1.0, 1.0],
        )
        assert math.isnan(linf_error(rec, observable))
        assert linf_error(rec, "q") == 0.0

    def test_missing_series_raises(self):
        with pytest.raises(ValueError, match="'H_d' not present in the record"):
            linf_error(make_record(), "H_d")
        assert linf_error(make_record(with_hd=True), "H_d") == 0.0

    def test_unknown_observable(self):
        with pytest.raises(ValueError):
            linf_error(make_record(), "momentum")


class TestOrbitScale:
    def test_largest_exact_coordinate_and_first_energy(self):
        rec = make_record()
        assert orbit_scale(rec, "p") == pytest.approx(4.04)
        assert orbit_scale(rec, "q") == 4.0
        assert orbit_scale(rec, "H") == 2.0


class TestEstimateOrder:
    def test_clean_sixth_order(self):
        assert estimate_order(64.0e-9, 1.0e-9) == 6

    def test_published_error_pairs_round_to_six(self):
        # measured oscillator errors at h = 0.1 and h = 0.05
        assert estimate_order(8.95248e-6, 1.39279e-7) == 6
        assert estimate_order(7.64034e-7, 1.19368e-8) == 6

    @given(
        err=st.floats(1e-12, 1.0),
        scale=st.floats(0.1, 10.0),
        order=st.integers(1, 8),
    )
    def test_scale_invariance(self, err, scale, order):
        coarse = scale * err * 2.0 ** order
        fine = scale * err
        assert estimate_order(coarse, fine) == order

    def test_degenerate_inputs_raise(self):
        # a subnormal error is rounding residue, not a rate
        subnormal = math.nextafter(sys.float_info.min, 0.0)
        for coarse, fine in ((0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.inf), (-1.0, 1.0),
                             (5e-324, 5e-324), (1.0, 1e-310), (subnormal, 1.0)):
            with pytest.raises(ValueError):
                estimate_order(coarse, fine)

    def test_smallest_normal_error_still_gives_an_order(self):
        tiny = sys.float_info.min
        assert estimate_order(64.0 * tiny, tiny) == 6

    def test_error_at_the_roundoff_floor_gives_no_order(self):
        # FLOOR_ULPS ulps of the observable's scale, 48.7 like the oscillator's H0
        floor = FLOOR_ULPS * sys.float_info.epsilon * 48.7
        above = math.nextafter(floor, math.inf)
        assert estimate_order(64.0 * floor, floor, scale=48.7) is None
        assert estimate_order(floor, 64.0 * floor, scale=48.7) is None
        assert estimate_order(64.0 * above, above, scale=48.7) == 6
        assert estimate_order(64.0 * floor, floor) == 6
        # degenerate errors still raise, floor or not
        with pytest.raises(ValueError, match="degenerate"):
            estimate_order(1.0, 0.0, scale=48.7)


# scale 0.0 puts no roundoff floor under an observable's orders
NO_FLOOR = {"H": 0.0, "p": 0.0, "q": 0.0}


class TestConvergenceTable:
    def test_builder_computes_orders(self):
        sixth = (64.0, 1.0, 1.0 / 64.0)
        errors = {"p": sixth, "q": sixth, "H": sixth, "H_d": (1e-16, 2e-16, 1e-16)}
        orders = convergence_table((10, 20, 40), errors, NO_FLOOR)
        assert orders == {"H": (6, 6), "p": (6, 6), "q": (6, 6)}
        assert list(orders) == ["H", "p", "q"]

    def test_floor_orders_are_none(self):
        # H sits at a few ulps of its scale; p and q are far above theirs
        eps = sys.float_info.epsilon
        good = (64.0e-6, 1.0e-6, 1.0e-6 / 64.0)
        errors = {"p": good, "q": good,
                  "H": (1.3 * 48.7 * eps, 0.7 * 48.7 * eps, 3.3 * 48.7 * eps)}
        orders = convergence_table((10, 20, 40), errors, {"H": 48.7, "p": 10.0, "q": 1.6})
        assert orders == {"H": (None, None), "p": (6, 6), "q": (6, 6)}

    def test_requires_doubling_meshes(self):
        errors = {"p": (1.0, 1.0), "q": (1.0, 1.0), "H": (1.0, 1.0)}
        with pytest.raises(ValueError, match="mesh counts must double: 10 then 21"):
            convergence_table((10, 21), errors, NO_FLOOR)

    def test_requires_two_meshes(self):
        with pytest.raises(ValueError, match="need at least two meshes"):
            convergence_table((10,), {"p": (1.0,), "q": (1.0,), "H": (1.0,)}, NO_FLOOR)

    def test_degenerate_error_names_observable_and_meshes(self):
        good = (64.0, 1.0, 1.0 / 64.0)
        errors = {"p": good, "q": good, "H": (64.0, 1.0, 0.0)}
        with pytest.raises(ValueError, match="degenerate error value 0.0") as info:
            convergence_table((10, 20, 40), errors, NO_FLOOR)
        assert (info.value.observable, info.value.meshes) == ("H", (20, 40))

    def test_degenerate_energy_is_named_before_the_phase_errors(self):
        subnormal = (1e-310, 1e-311, 1e-312)
        errors = {"p": subnormal, "q": subnormal, "H": (1.0, 0.0, 0.0)}
        with pytest.raises(ValueError, match="degenerate error value 0.0") as info:
            convergence_table((10, 20, 40), errors, NO_FLOOR)
        assert (info.value.observable, info.value.meshes) == ("H", (10, 20))

    def test_requires_one_error_per_mesh(self):
        # checked before any order: the degenerate H is not reached
        errors = {"p": (1.0,), "q": (1.0, 2.0), "H": (1.0, 0.0)}
        with pytest.raises(ValueError, match="p needs one error per mesh") as info:
            convergence_table((10, 20), errors, NO_FLOOR)
        assert not hasattr(info.value, "observable")

    def test_observables_without_a_scale_get_no_orders(self):
        # H_d's error list may have any length: it gets no orders
        errors = {"p": (64.0, 1.0), "q": (64.0, 1.0), "H": (64.0, 1.0), "H_d": ()}
        assert convergence_table((10, 20), errors, {"q": 0.0}) == {"q": (6,)}


class TestEnergyDriftSeries:
    def test_constant_energy_gives_zero_running_max(self):
        assert energy_drift_series([3.0] * 401, periods=4) == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("at", [0, 150], ids=["reference", "mid-run"])
    def test_nan_energy_reaches_the_running_max(self, at):
        # one NaN entry, finite again after it: the running max keeps the NaN
        energies = [3.0] * 401
        energies[at] = math.nan
        series = energy_drift_series(energies, periods=4)
        want = [True] * 4 if at == 0 else [False, True, True, True]
        assert [math.isnan(v) for v in series] == want
        assert [v for v in series if not math.isnan(v)] == [0.0] * want.count(False)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_error_fills_every_running_max(self, bad):
        # a non-finite error from the first period on fills every entry
        series = energy_drift_series([1.0, bad, bad, bad, bad], periods=4)
        assert len(series) == 4
        if math.isnan(bad):
            assert all(math.isnan(v) for v in series)
        else:
            assert series == [math.inf] * 4

    def test_window_validation(self):
        with pytest.raises(ValueError, match="periods must be at least 1"):
            energy_drift_series(make_record().energies, periods=0)

    def test_missing_series_raises(self):
        with pytest.raises(ValueError, match="no energies"):
            energy_drift_series([], periods=1)

    def test_uneven_split_ends_at_the_floor_node(self):
        # 11 nodes over 3 periods, as a fixed step that does not divide the
        # period: the periods end at nodes 10 // 3, 20 // 3 and 10
        energies = [float(j) for j in range(11)]
        want = [3.0, 6.0, 10.0]
        assert energy_drift_series(energies, periods=3) == want
        assert drift_by_time([0.1 * j for j in range(11)], energies, 3) == want

    @pytest.mark.parametrize(
        "energies, periods",
        [
            ([math.nan, 1.0, 2.0, 3.0, 4.0], 4),
            ([1.0, 2.0, math.nan, 0.5, 3.0], 4),
            ([1.0, 2.0, 0.5, 3.0, math.nan], 4),
            ([1.0, 2.0, math.inf, 3.0, 1.0], 2),
            ([1.0, -math.inf, 2.0, math.inf, 0.5], 4),
            ([3, 5, 1, 3, 7, 3], 2),
            ([2.5], 1),
            ([1.0, 1.5, 0.25], 5),
        ],
        ids=["nan-first", "nan-mid", "nan-last", "inf", "-inf-then-inf", "ints", "one-node",
             "more-periods-than-nodes"],
    )
    def test_comparisons_match_max_with_a_nan_test(self, energies, periods):
        def exact(values):
            return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]

        want = drift_by_max(energies, periods)
        assert exact(energy_drift_series(energies, periods)) == exact(want)

    @given(
        mesh=st.integers(2, 200),
        periods=st.integers(1, 50),
        short=st.integers(0, 199),
        h=st.floats(1e-6, 1e3),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.sampled_from([math.nan, math.inf, -math.inf])),
            max_size=3,
        ),
    )
    def test_index_split_matches_the_time_split(self, mesh, periods, short, h, seed, specials):
        # uniform grids t = j h, a whole number of steps per period or fewer
        steps = mesh * periods - short % mesh
        rng = random.Random(seed)
        # a growing error is a new maximum at every node, so a node moved
        # across a period end changes that period's maximum
        energies = [1.0]
        for _ in range(steps):
            energies.append(energies[-1] + rng.uniform(1e-9, 1e-6))
        for at, value in specials:
            energies[round(at * steps)] = value
        times = [j * h for j in range(steps + 1)]
        want = drift_by_time(times, energies, periods)
        assert repr(energy_drift_series(energies, periods)) == repr(want)


class TestStabilityScan:
    def test_verdicts_follow_the_limit_across_the_grid(self):
        # the 32 points from 2.80 to 3.11 are bounded, the 5 from 3.12 on are not
        scan = stability_scan()
        assert len(STABILITY_GRID) == 37
        assert scan.bounded == tuple(g < stability_limit() for g in STABILITY_GRID)
        assert scan.bounded.count(True) == 32
        assert scan.transition == (3.11, 3.12)

    def test_brackets_the_instability_onset(self):
        scan = stability_scan()
        assert scan.transition is not None
        lo, hi = scan.transition
        assert lo < stability_limit() < hi
        assert hi - lo == pytest.approx(0.01, abs=1e-12)

    @pytest.mark.parametrize("growth, transition", [(1.0, None), (2.0, (0.0, 2.80))])
    def test_transition_of_a_regressed_map(self, monkeypatch, growth, transition):
        # a map bounded everywhere has no transition; one unbounded at the
        # first grid point brackets it from 0
        monkeypatch.setattr(analysis, "transfer_matrix",
                            lambda params: ((growth, 0.0), (0.0, growth)))
        scan = stability_scan()
        assert scan.bounded == (growth == 1.0,) * len(STABILITY_GRID)
        assert scan.transition == transition

    @pytest.mark.parametrize("phi_of", [
        transfer_matrix,
        lambda params: ((1.0, 0.0), (0.0, 1.0)),
        lambda params: ((2.0, 0.0), (0.0, 2.0)),
        # p turns NaN at the first step and q after it: bounded
        lambda params: ((math.nan, 0.0), (0.0, 2.0)),
        # a NaN p beside a q past 10, then a p past 10 beside a NaN q: unbounded
        lambda params: ((math.nan, 0.0), (0.0, 20.0)),
        lambda params: ((0.0, 20.0), (0.0, math.nan)),
        # NaN below h omega = 3 and doubling from there: a transition mid-grid
        lambda params: (((math.nan, 0.0), (0.0, 1.0)) if params.h < 3.0
                        else ((2.0, 0.0), (0.0, 2.0))),
    ], ids=["lobatto", "identity", "doubling", "nan", "nan_p_big_q", "big_p_nan_q",
            "nan_then_doubling"])
    def test_verdicts_match_the_point_stepping_scan(self, monkeypatch, phi_of):
        want = scan_by_points(phi_of)
        monkeypatch.setattr(analysis, "transfer_matrix", phi_of)
        scan = stability_scan()
        assert (scan.bounded, scan.transition) == want

    def test_unstable_point_grows_without_bound(self):
        """Direct substance check just past the onset: iterate the closed
        form at h*omega = 3.14 and watch the norm blow up."""
        params = HarmonicParams(m=1.0, omega=W, h=3.14 / W)
        phi = transfer_matrix(params)
        assert not abs(params.h) * params.omega < stability_limit()
        pt = PhasePoint(0.0, 1.0)
        worst = 1.0
        for _ in range(2000):
            pt = step_harmonic(pt, phi)
            worst = max(worst, abs(pt.p) / W, abs(pt.q))
        assert worst > 1e6

    def test_re_entrant_window_is_past_the_limit(self):
        # between the onset and sqrt(10) the closed form turns neutrally
        # stable again, |Phi11| < 1; the scan's grid ends at 3.16, and the
        # one verdict, h*omega against stability_limit(), rejects it
        params = HarmonicParams(m=1.0, omega=W, h=3.2 / W)
        (a, _), _ = transfer_matrix(params)
        assert abs(a) < 1.0
        assert not abs(params.h) * params.omega < stability_limit()

    def test_dataclass_roundtrip(self):
        scan = StabilityScan(bounded=(True,), transition=None)
        assert scan.bounded == (True,)
        assert scan.transition is None


class TestMapJacobianDeterminant:
    def test_linear_map_recovers_exact_determinant(self):
        def shear(pt):
            return PhasePoint(1.3 * pt.p + 0.2 * pt.q, 0.1 * pt.p + 0.9 * pt.q)

        det = map_jacobian_determinant(shear, PhasePoint(0.4, -0.7))
        assert abs(det - (1.3 * 0.9 - 0.2 * 0.1)) < 1e-9

    def test_closed_form_step_is_area_preserving(self):
        phi = transfer_matrix(HarmonicParams(m=1.0, omega=W, h=0.1))
        det = map_jacobian_determinant(
            lambda pt: step_harmonic(pt, phi), PhasePoint(0.2, 0.5)
        )
        assert abs(det - 1.0) < 1e-9


class TestRunHarmonicRecordIntegration:
    def test_build_record_from_run(self):
        ref = HarmonicExact(amplitude=math.pi / 2.0, omega=W, m=1.0)
        pot = harmonic_potential(1.0, W)
        params = HarmonicParams(m=1.0, omega=W, h=0.1)
        run = run_harmonic(harmonic_exact(0.0, ref), params, 10)
        times = [0.1 * j for j in range(11)]
        rec = TrajectoryRecord(
            times=times,
            points=run.points,
            exact=[harmonic_exact(t, ref) for t in times],
            energies=[energy(pt, pot, 1.0) for pt in run.points],
            discrete_energies=run.discrete_energies,
        )
        assert linf_error(rec, "H_d") <= 5e-15
        # Table 1's q error at h = 0.1
        assert linf_error(rec, "q") == pytest.approx(7.64034e-7, rel=0.02)
