"""Unit tests for chain grouping, the instance-placement half of
deployment planning (Section 4.3)."""

import pytest

from repro.core.lifecycle import group_chains_by_similarity, jaccard_similarity


class TestSimilarity:
    def test_identical_sets(self):
        assert jaccard_similarity({1, 2}, {1, 2}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard_similarity({1}, {2}) == 0.0

    def test_partial_overlap(self):
        assert jaccard_similarity({1, 2}, {2, 3}) == pytest.approx(1 / 3)

    def test_empty_sets(self):
        assert jaccard_similarity(set(), set()) == 1.0


class TestChainGrouping:
    CHAINS = {
        100: (1, 2),
        101: (1, 2, 3),
        102: (7, 8),
        103: (8, 9),
    }

    def test_group_to_two(self):
        groups = group_chains_by_similarity(self.CHAINS, max_groups=2)
        as_sets = {frozenset(g) for g in groups}
        assert frozenset({100, 101}) in as_sets
        assert frozenset({102, 103}) in as_sets

    def test_group_to_one(self):
        groups = group_chains_by_similarity(self.CHAINS, max_groups=1)
        assert sorted(groups[0]) == [100, 101, 102, 103]

    def test_more_groups_than_chains(self):
        groups = group_chains_by_similarity(self.CHAINS, max_groups=10)
        assert len(groups) == 4

    def test_min_similarity_stops_merging(self):
        groups = group_chains_by_similarity(
            self.CHAINS, max_groups=1, min_similarity=0.5
        )
        # 100+101 merge (similarity 2/3); 102 and 103 (1/3) stay apart.
        as_sets = {frozenset(g) for g in groups}
        assert as_sets == {
            frozenset({100, 101}),
            frozenset({102}),
            frozenset({103}),
        }

    def test_invalid_max_groups(self):
        with pytest.raises(ValueError):
            group_chains_by_similarity(self.CHAINS, max_groups=0)
