"""Unit tests for labelling schemes 1 and 2 (repro.core.labelling)."""

import numpy as np
import pytest

from repro.core.labelling import (
    apply_labelling_scheme_1,
    apply_labelling_scheme_2,
    faults_to_mask,
)
from repro.mesh.topology import Torus2D


def mask(width, height, nodes):
    return faults_to_mask(nodes, width, height)


class TestFaultsToMask:
    def test_round_trip(self):
        m = mask(5, 5, [(0, 0), (3, 4)])
        assert m[0, 0] and m[3, 4]
        assert m.sum() == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mask(5, 5, [(5, 0)])


class TestScheme1:
    def test_no_faults_no_unsafe(self):
        result = apply_labelling_scheme_1(mask(6, 6, []))
        assert result.labels.sum() == 0
        assert result.rounds == 0

    def test_single_fault_stays_alone(self):
        result = apply_labelling_scheme_1(mask(6, 6, [(3, 3)]))
        assert result.labels.sum() == 1
        assert result.rounds == 0

    def test_isolated_faults_do_not_grow(self):
        result = apply_labelling_scheme_1(mask(8, 8, [(1, 1), (5, 5)]))
        assert result.labels.sum() == 2

    def test_diagonal_pair_grows_to_2x2_block(self):
        result = apply_labelling_scheme_1(mask(6, 6, [(2, 2), (3, 3)]))
        unsafe = {(int(x), int(y)) for x, y in zip(*np.nonzero(result.labels))}
        assert unsafe == {(2, 2), (2, 3), (3, 2), (3, 3)}
        assert result.rounds == 1

    def test_unsafe_node_needs_threats_in_both_dimensions(self):
        # Two faults in the same row one apart: the node between them has
        # x-dimension threats only and must stay safe.
        result = apply_labelling_scheme_1(mask(6, 6, [(1, 3), (3, 3)]))
        assert not result.labels[2, 3]

    def test_growth_cascades_over_multiple_rounds(self):
        # A sparse diagonal chain grows into its bounding rectangle.
        faults = [(0, 0), (1, 1), (2, 2), (3, 3)]
        result = apply_labelling_scheme_1(mask(6, 6, faults))
        assert result.labels[:4, :4].all()
        assert result.labels.sum() == 16
        assert result.rounds >= 2

    def test_blocks_are_rectangles(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            nodes = [(int(x), int(y)) for x, y in rng.integers(0, 12, size=(10, 2))]
            result = apply_labelling_scheme_1(mask(12, 12, nodes))
            # Every 4-connected unsafe region must fill its bounding box.
            from repro.core.regions import regions_from_masks

            regions = regions_from_masks(result.labels, mask(12, 12, nodes))
            assert all(region.is_rectangle for region in regions)

    def test_comb_staircase_needs_more_than_twice_the_perimeter(self):
        # Two fault combs zipped by a faulty column: the unsafe region grows
        # a few nodes per round, far past 2 * (width + height) rounds.
        width = 10
        faults = mask(width, width, [])
        faults[1::2, width - 1] = True
        faults[width - 1, 1:] = True
        faults[0 : width - 1 : 2, 0] = True
        result = apply_labelling_scheme_1(faults)
        assert result.rounds == 73 > 2 * (width + width)
        assert result.labels.all()
        with pytest.raises(RuntimeError, match="did not converge"):
            apply_labelling_scheme_1(faults, max_rounds=2 * (width + width))

    def test_clustered_100x100_trial_converges(self):
        # A Figures 9-11 trial whose fixed point needs 516 rounds.
        from repro.api import get_construction
        from repro.faults.scenario import generate_scenario

        scenario = generate_scenario(800, 100, model="clustered", seed=7100092)
        fault_mask = faults_to_mask(scenario.faults, 100, 100)
        result = apply_labelling_scheme_1(fault_mask)
        assert result.rounds == 516 > 2 * (100 + 100)
        built = {key: get_construction(key).build(scenario) for key in ("mfp", "dmfp")}
        assert built["dmfp"].disabled_set() == built["mfp"].disabled_set()

    def test_mesh_border_does_not_wrap(self):
        result = apply_labelling_scheme_1(mask(5, 5, [(0, 0), (4, 4)]))
        assert result.labels.sum() == 2

    def test_torus_wraps(self):
        topo = Torus2D(5, 5)
        result = apply_labelling_scheme_1(mask(5, 5, [(0, 0), (4, 4)]), topo)
        # On the torus the two faults are diagonal neighbours, so the wrapped
        # 2x2 corner block forms.
        assert result.labels.sum() == 4
        assert result.labels[0, 4] and result.labels[4, 0]


class TestScheme2:
    def run_both(self, width, height, faults, topology=None, **kwargs):
        fault_mask = mask(width, height, faults)
        scheme1 = apply_labelling_scheme_1(fault_mask, topology)
        scheme2 = apply_labelling_scheme_2(fault_mask, scheme1.labels, topology, **kwargs)
        return scheme1, scheme2

    def test_faulty_nodes_stay_disabled(self):
        _, scheme2 = self.run_both(6, 6, [(2, 2), (3, 3)])
        assert scheme2.labels[2, 2] and scheme2.labels[3, 3]

    def test_diagonal_pair_releases_the_two_corner_fills(self):
        # The 2x2 block of two diagonal faults shrinks back: the two
        # non-faulty corners have two enabled neighbours each.
        _, scheme2 = self.run_both(6, 6, [(2, 2), (3, 3)])
        assert not scheme2.labels[2, 3]
        assert not scheme2.labels[3, 2]
        assert scheme2.labels.sum() == 2

    def test_result_is_orthogonal_convex(self):
        from repro.core.regions import regions_from_masks

        rng = np.random.default_rng(1)
        for _ in range(20):
            nodes = [(int(x), int(y)) for x, y in rng.integers(0, 15, size=(18, 2))]
            fault_mask = mask(15, 15, nodes)
            scheme1 = apply_labelling_scheme_1(fault_mask)
            scheme2 = apply_labelling_scheme_2(fault_mask, scheme1.labels)
            regions = regions_from_masks(scheme2.labels, fault_mask)
            assert all(region.is_orthogonal_convex for region in regions)

    def test_disabled_set_shrinks_but_keeps_faults(self):
        scheme1, scheme2 = self.run_both(10, 10, [(1, 1), (2, 2), (5, 5), (6, 6)])
        assert scheme2.labels.sum() <= scheme1.labels.sum()
        assert (scheme2.labels & ~scheme1.labels).sum() == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_labelling_scheme_2(np.zeros((3, 3), bool), np.zeros((4, 4), bool))

    def test_mesh_corner_node_stays_disabled_without_virtual_neighbours(self):
        # A non-faulty corner wedged between two faults has only two real
        # neighbours, both disabled: it can never collect two enabled
        # neighbours under the faithful mesh semantics.
        faults = [(1, 0), (0, 1), (1, 1)]
        _, scheme2 = self.run_both(5, 5, faults)
        assert scheme2.labels[0, 0]

    def test_mesh_corner_node_released_with_virtual_neighbours(self):
        faults = [(1, 0), (0, 1), (1, 1)]
        _, scheme2 = self.run_both(
            5, 5, faults, missing_neighbours_enabled=True
        )
        assert not scheme2.labels[0, 0]

    def test_rounds_zero_when_nothing_to_release(self):
        _, scheme2 = self.run_both(6, 6, [(2, 2)])
        assert scheme2.rounds == 0

    def test_total_rounds_fp_exceed_fb(self):
        # FP pays the scheme-1 rounds plus the scheme-2 rounds, matching the
        # paper's observation that FP needs more rounds than FB.
        scheme1, scheme2 = self.run_both(12, 12, [(2, 2), (3, 3), (4, 4), (5, 5)])
        assert scheme1.rounds + scheme2.rounds > scheme1.rounds
