import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionrewire.coupling import InteractionGraph
from ionrewire.lattice import (
    GeometryReport,
    ShelveMask,
    apply_mask,
    honeycomb_mask,
    interior_sites,
    kagome_mask,
    power_law_coupling,
    triangular_array,
    verify_geometry,
)
from oracles import graph_of_pairs, mask_union


def random_coupling(n, seed):
    rng = np.random.default_rng(seed)
    j = rng.normal(size=(n, n))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return InteractionGraph(survivors=np.arange(n), couplings=j)


class TestMask:
    def test_string_round_trip(self):
        mask = ShelveMask.from_string("QSQQS")
        assert mask.to_string() == "QSQQS"
        assert list(mask.survivors) == [0, 2, 3]
        assert np.flatnonzero(mask.shelved).tolist() == [1, 4]

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError):
            ShelveMask.from_string("QXQ")

    @given(st.text(alphabet="QS", max_size=12))
    def test_round_trip_property(self, text):
        assert ShelveMask.from_string(text).to_string() == text

    def test_union(self):
        a = ShelveMask.from_string("QSQ")
        b = ShelveMask.from_string("QQS")
        assert mask_union(a, b).to_string() == "QSS"


class TestApplyMask:
    def test_all_qubit_mask_is_identity(self):
        coupling = random_coupling(4, seed=1)
        graph = apply_mask(coupling, ShelveMask.all_qubits(4))
        assert np.array_equal(graph.couplings, coupling.couplings)
        assert list(graph.survivors) == [0, 1, 2, 3]

    def test_triangle_reduces_to_single_edge(self):
        coupling = graph_of_pairs(3, {(0, 1): 2.0, (0, 2): 3.0, (1, 2): 5.0})
        graph = apply_mask(coupling, ShelveMask.from_string("QQS"))
        assert list(graph.survivors) == [0, 1]
        assert graph.couplings[0, 1] == 2.0

    def test_shelve_all_gives_empty_graph(self):
        coupling = random_coupling(3, seed=2)
        graph = apply_mask(coupling, ShelveMask.from_string("SSS"))
        assert graph.n_spins == 0
        assert graph.couplings.shape == (0, 0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_mask(random_coupling(3, seed=3), ShelveMask.all_qubits(4))

    def test_surviving_entries_are_bitwise_equal(self):
        coupling = random_coupling(6, seed=4)
        mask = ShelveMask.from_string("QSQQSQ")
        graph = apply_mask(coupling, mask)
        for a, i in enumerate(graph.survivors):
            for b, j in enumerate(graph.survivors):
                assert graph.couplings[a, b] == coupling.couplings[i, j]
        assert graph.n_spins == 6 - 2

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_masking_twice_equals_union(self, n, data):
        first = ShelveMask(tuple(data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n))))
        second = ShelveMask(tuple(data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n))))
        coupling = random_coupling(n, seed=n)

        combined = apply_mask(coupling, mask_union(first, second))

        stage_one = apply_mask(coupling, first)
        second_restricted = ShelveMask(
            tuple(second.shelved[i] for i in stage_one.survivors))
        stage_two = apply_mask(stage_one, second_restricted)

        assert np.array_equal(stage_two.survivors, combined.survivors)
        assert np.array_equal(stage_two.couplings, combined.couplings)

    def test_commutes_with_relabeling(self):
        n = 5
        coupling = random_coupling(n, seed=8)
        mask = ShelveMask.from_string("QSQQS")
        perm = np.array([3, 0, 4, 1, 2])

        relabeled_j = coupling.couplings[np.ix_(perm, perm)]
        relabeled_mask = ShelveMask(tuple(mask.shelved[p] for p in perm))
        graph_after = apply_mask(
            InteractionGraph(np.arange(n), relabeled_j), relabeled_mask)

        graph_before = apply_mask(coupling, mask)
        # map original survivor labels through the relabeling
        inverse = np.argsort(perm)
        expected_labels = sorted(inverse[i] for i in graph_before.survivors)
        assert list(graph_after.survivors) == expected_labels
        # couplings agree entry by entry under the label map
        for a, i in enumerate(graph_after.survivors):
            for b, j in enumerate(graph_after.survivors):
                oi, oj = perm[i], perm[j]
                ai = list(graph_before.survivors).index(oi)
                aj = list(graph_before.survivors).index(oj)
                assert graph_after.couplings[a, b] == graph_before.couplings[ai, aj]


class TestTriangularArray:
    def test_bulk_coordination_is_six(self):
        array = triangular_array(5, 5)
        interior = interior_sites(array)
        assert interior.size == 9
        degree = np.zeros(len(array.sites), dtype=int)
        for a, b in array.adjacency:
            degree[a] += 1
            degree[b] += 1
        assert np.all(degree[interior] == 6)

    def test_nearest_neighbor_distances_are_unit(self):
        array = triangular_array(4, 4)
        for a, b in array.adjacency:
            d = np.linalg.norm(array.coordinates[a] - array.coordinates[b])
            assert d == pytest.approx(1.0, abs=1e-12)

    def test_empty_array(self):
        array = triangular_array(0, 0)
        assert len(array.sites) == 0
        assert honeycomb_mask(array).to_string() == ""
        assert kagome_mask(array).to_string() == ""


class TestPatternMasks:
    def test_honeycomb_on_nine_site_patch(self):
        array = triangular_array(3, 3)
        mask = honeycomb_mask(array)
        assert sum(mask.shelved) == 3
        assert len(mask.survivors) == 6

    def test_honeycomb_on_three_site_triangle(self):
        # smallest patch: one shelved, survivors share an edge
        array = triangular_array(2, 2)
        sub_sites = [(0, 0), (0, 1), (1, 0)]
        keep = [k for k, s in enumerate(array.sites) if s in sub_sites]
        tri = triangular_array(2, 2)
        mask = honeycomb_mask(tri)
        shelved_in_triangle = [i for i in keep if mask.shelved[i]]
        assert len(shelved_in_triangle) == 1

    def test_honeycomb_shelf_count_tracks_one_third(self):
        for m in (6, 9, 12):
            array = triangular_array(m, m)
            mask = honeycomb_mask(array)
            assert sum(mask.shelved) == m * m // 3

    def test_kagome_counts(self):
        assert sum(kagome_mask(triangular_array(2, 2)).shelved) == 1
        assert sum(kagome_mask(triangular_array(4, 4)).shelved) == 4
        assert sum(kagome_mask(triangular_array(12, 12)).shelved) == 36

    def test_interior_survivor_degrees(self):
        array = triangular_array(12, 12)
        coupling = power_law_coupling(array, strength=1.0, exponent=3.0)
        for mask_fn, expected in ((honeycomb_mask, 3), (kagome_mask, 4)):
            graph = apply_mask(coupling, mask_fn(array))
            pattern = "honeycomb" if expected == 3 else "kagome"
            report = verify_geometry(graph, array, pattern)
            assert report.passed
            assert all(d == expected for d in report.interior_degrees.values())


class TestVerifyGeometry:
    def test_unmasked_array_passes_as_triangular(self):
        array = triangular_array(6, 6)
        coupling = power_law_coupling(array, strength=1.0, exponent=3.0)
        graph = apply_mask(coupling, ShelveMask.all_qubits(len(array.sites)))
        report = verify_geometry(graph, array, "triangular")
        assert report.passed
        assert report.expected_degree == 6

    def test_honeycomb_mask_passes_on_nine_site_patch(self):
        array = triangular_array(3, 3)
        coupling = power_law_coupling(array, strength=1.0, exponent=3.0)
        graph = apply_mask(coupling, honeycomb_mask(array))
        report = verify_geometry(graph, array, "honeycomb")
        assert report.passed  # vacuous interior, still no violations

    def test_random_masks_overwhelmingly_fail(self):
        array = triangular_array(8, 8)
        coupling = power_law_coupling(array, strength=1.0, exponent=3.0)
        target = sum(honeycomb_mask(array).shelved)
        passes = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            chosen = rng.choice(len(array.sites), size=target, replace=False)
            shelved = np.zeros(len(array.sites), dtype=bool)
            shelved[chosen] = True
            graph = apply_mask(coupling, ShelveMask(tuple(shelved)))
            if verify_geometry(graph, array, "honeycomb").passed:
                passes += 1
        assert passes <= 2

    def test_unknown_pattern_rejected(self):
        array = triangular_array(3, 3)
        coupling = power_law_coupling(array, strength=1.0, exponent=3.0)
        graph = apply_mask(coupling, ShelveMask.all_qubits(9))
        with pytest.raises(ValueError):
            verify_geometry(graph, array, "cubic")

    def test_report_contents(self):
        array = triangular_array(5, 5)
        coupling = power_law_coupling(array, strength=1.0, exponent=3.0)
        graph = apply_mask(coupling, honeycomb_mask(array))
        report = verify_geometry(graph, array, "honeycomb")
        assert isinstance(report, GeometryReport)
        assert report.violations == ()
        assert sum(report.degree_histogram.values()) == graph.n_spins
        assert set(report.interior_degrees).isdisjoint(report.boundary_degrees)

    def test_default_threshold_is_half_median_neighbor_coupling(self):
        array = triangular_array(4, 4)
        # unit spacing with strength 2.0: every NN coupling is 2.0, so the
        # threshold is 1.0; one edge of an interior site is set below it,
        # and then above it
        coupling = power_law_coupling(array, strength=2.0, exponent=3.0)
        j = coupling.couplings.copy()
        interior = set(interior_sites(array).tolist())
        a, b = next(edge for edge in array.adjacency if edge[0] in interior)
        for value, passed in ((0.99, False), (1.01, True)):
            j[a, b] = j[b, a] = value
            graph = InteractionGraph(survivors=np.arange(16), couplings=j)
            report = verify_geometry(graph, array, "triangular")
            assert report.passed == passed
            assert (report.interior_degrees[a] == 6) == passed
