import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmeans.measures import (
    WeightMeasure,
    mean_weights,
    measure_from_spec,
    measure_to_spec,
    v_coefficients,
)

from conftest import random_measure, weight_measures
from reference import cum_mass, local_mean, tail_mass, v_coefficients_quadrature

LEB = WeightMeasure.lebesgue()
ONE_ATOM = WeightMeasure.dirac(0.5)
TWO_ATOMS = WeightMeasure.atomic([(0.25, 0.5), (0.75, 0.5)])


class TestMassFunctions:
    def test_lebesgue_tail(self):
        assert tail_mass(LEB, 0.25) == pytest.approx(0.75)

    def test_atom_at_eval_point_counts_into_both_intervals(self):
        assert tail_mass(ONE_ATOM, 0.5) == 1.0
        assert cum_mass(ONE_ATOM, 0.5) == 1.0

    def test_two_atoms_direct_count(self):
        assert tail_mass(TWO_ATOMS, 0.6) == pytest.approx(0.5)
        assert cum_mass(TWO_ATOMS, 0.6) == pytest.approx(0.5)

    def test_lebesgue_cum(self):
        assert cum_mass(LEB, 0.25) == pytest.approx(0.25)

    @pytest.mark.parametrize("s", [-0.1, 1.1, 2.0])
    def test_point_outside_unit_interval(self, s):
        with pytest.raises(ValueError):
            tail_mass(LEB, s)
        with pytest.raises(ValueError):
            cum_mass(LEB, s)


class TestVCoefficients:
    def test_lebesgue_thirds(self):
        v = v_coefficients(LEB)
        assert v.v1 == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert v.v2 == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert v.c == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_single_atom_halves(self):
        v = v_coefficients(ONE_ATOM)
        assert v.as_tuple() == pytest.approx((0.5, 0.5, 0.0), abs=1e-14)

    def test_two_atoms_piecewise(self):
        v = v_coefficients(TWO_ATOMS)
        assert v.as_tuple() == pytest.approx((0.375, 0.375, 0.125), abs=1e-14)
        assert v.v1 + v.v2 + 2 * v.c == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(weight_measures())
    def test_invariants_random_measures(self, measure):
        v = v_coefficients(measure)
        assert v.v1 >= 0 and v.v2 >= 0 and v.c >= 0
        assert v.v1 + v.v2 + 2 * v.c == pytest.approx(1.0, abs=1e-12)
        assert v.v1 * v.v2 - v.c * v.c > 0
        q = v_coefficients_quadrature(measure, points=2000)
        assert q.as_tuple() == pytest.approx(v.as_tuple(), abs=1e-10)

    def test_thousand_seeded_measures(self):
        rng = np.random.default_rng(7)
        kinds = ["lebesgue", "atomic", "mixture"]
        for i in range(1000):
            v = v_coefficients(random_measure(rng, kinds[i % 3]))
            assert abs(v.v1 + v.v2 + 2 * v.c - 1.0) < 1e-12
            assert v.v1 * v.v2 - v.c * v.c > 0


class TestLocalMean:
    @pytest.mark.parametrize("measure", [LEB, ONE_ATOM, TWO_ATOMS])
    def test_constant_path(self, measure):
        seg = np.full(33, 3.2)
        assert local_mean(seg, measure) == pytest.approx(3.2, abs=1e-14)

    def test_linear_path_lebesgue(self):
        seg = np.linspace(0.0, 1.0, 65)
        assert local_mean(seg, LEB) == pytest.approx(0.5, abs=1e-14)

    def test_dirac_recovers_interpolated_point(self, rng):
        seg = rng.standard_normal(33)
        grid = np.linspace(0.0, 1.0, 33)
        for alpha in (0.1, 0.3, 0.5, 0.77, 0.999):
            got = local_mean(seg, WeightMeasure.dirac(alpha))
            assert got == pytest.approx(np.interp(alpha, grid, seg), abs=1e-12)

    def test_endpoint_atoms_weight_the_boundary_points(self, rng):
        seg = rng.standard_normal(9)
        m = WeightMeasure.atomic([(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)])
        expect = 0.25 * seg[0] + 0.5 * seg[4] + 0.25 * seg[-1]
        assert local_mean(seg, m) == pytest.approx(expect, abs=1e-12)

    def test_weights_nonnegative_and_normalized(self):
        for measure in (LEB, ONE_ATOM, TWO_ATOMS, WeightMeasure.mixture(0.5, [(0.3, 0.5)])):
            w = mean_weights(measure, 32)
            assert np.all(w >= 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(weight_measures(), st.integers(0, 2**32 - 1))
    def test_linear_and_monotone(self, measure, seed):
        r = np.random.default_rng(seed)
        p = r.standard_normal(17)
        q = p + r.uniform(0.0, 1.0, 17)
        assert local_mean(p, measure) <= local_mean(q, measure) + 1e-12
        assert local_mean(2.0 * p + q, measure) == pytest.approx(
            2.0 * local_mean(p, measure) + local_mean(q, measure), rel=1e-10, abs=1e-10
        )

    def test_degenerate_segment(self):
        with pytest.raises(ValueError):
            local_mean([], LEB)
        with pytest.raises(ValueError):
            local_mean([1.0], LEB)


class TestValidationAndSerialization:
    def test_round_trip(self):
        for measure in (LEB, TWO_ATOMS, WeightMeasure.mixture(0.25, [(0.2, 0.5), (0.9, 0.25)])):
            assert measure_from_spec(measure_to_spec(measure)) == measure

    def test_spec_forms(self):
        assert measure_from_spec({"kind": "lebesgue"}) == LEB
        assert measure_from_spec({"kind": "atomic", "atoms": [[0.5, 1.0]]}) == ONE_ATOM
        mix = measure_from_spec({"kind": "mixture", "lebesgue": 0.5, "atoms": [[0.5, 0.5]]})
        assert mix.lebesgue_weight == 0.5

    def test_rejects_mass_only_on_endpoints(self):
        with pytest.raises(ValueError):
            WeightMeasure.atomic([(0.0, 0.5), (1.0, 0.5)])

    def test_endpoint_atom_with_interior_companion_allowed(self):
        m = WeightMeasure.atomic([(0.0, 0.5), (0.5, 0.5)])
        assert tail_mass(m, 0.0) == 1.0

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            WeightMeasure.atomic([(0.5, 0.7)])
        with pytest.raises(ValueError):
            WeightMeasure(kind="mixture", lebesgue_weight=0.5, atoms=((0.5, 0.7),))

    @pytest.mark.parametrize("spec,name", [
        ({"kind": "atomic", "atoms": [[0.5, float("nan")]]}, "atom weight"),
        ({"kind": "atomic", "atoms": [[float("nan"), 1.0]]}, "atom position"),
        ({"kind": "mixture", "lebesgue": float("nan"), "atoms": [[0.5, 1.0]]}, "lebesgue weight"),
        ({"kind": "mixture", "lebesgue": 0.5, "atoms": [[float("inf"), 0.5]]}, "atom position"),
    ])
    def test_rejects_non_finite_values(self, spec, name):
        # NaN passes the range and mass comparisons, so it needs its own check.
        with pytest.raises(ValueError, match=f"^{name} (nan|inf) is not a finite number$"):
            measure_from_spec(spec)

    def test_rejects_unsorted_positions(self):
        with pytest.raises(ValueError):
            WeightMeasure.atomic([(0.7, 0.5), (0.3, 0.5)])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            measure_from_spec({"kind": "spline"})
        with pytest.raises(ValueError):
            measure_from_spec({"atoms": []})
