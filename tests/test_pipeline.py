"""The one train/val/test split of whole records."""

import pytest

from atrousseg.pipeline import split_records


class TestSplit:
    def test_ten_records_eight_one_one(self):
        tr, va, te = split_records(list(range(10)), seed=4)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_deterministic(self):
        records = list(range(12))
        assert split_records(records, seed=9) == split_records(records, seed=9)

    def test_parts_disjoint_and_complete(self):
        records = [object() for _ in range(23)]
        parts = split_records(records, (0.6, 0.2, 0.2), seed=1)
        ids = [id(r) for part in parts for r in part]
        assert sorted(ids) == sorted(id(r) for r in records)

    def test_too_few_records_rejected(self):
        with pytest.raises(ValueError, match="only 2 records for 3 non-empty splits"):
            split_records([0, 1])

    @pytest.mark.parametrize("ratios", [
        (0.5, 0.5, 0.5), (-0.1, 0.6, 0.5), (0.5, 0.5), (float("nan"), 0.5, 0.5),
        "abc", (0.5, "a", 0.5), 5, None, (True, False, False)])
    def test_ratio_validation(self, ratios):
        with pytest.raises(ValueError, match="ratios"):
            split_records(list(range(5)), ratios=ratios)

    # pinned index lists: an edit that changes which records train fails here
    @pytest.mark.parametrize("n, ratios, seed, want", [
        (12, (0.75, 0.125, 0.125), 5, [[9, 11, 1, 3, 2, 4, 6, 7, 0], [10, 5], [8]]),
        (10, (0.8, 0.1, 0.1), 4, [[1, 0, 7, 2, 9, 8, 6, 4], [3], [5]]),
        (7, (0.5, 0.25, 0.25), 0, [[2, 4, 3], [6, 5], [0, 1]]),
        (5, (0.98, 0.01, 0.01), 0, [[2, 4, 3], [0], [1]]),  # non-zero ratios keep one
        (4, (0.5, 0.5, 0.0), 2, [[3, 2], [0, 1], []]),
    ])
    def test_pinned_splits(self, n, ratios, seed, want):
        assert [list(p) for p in split_records(list(range(n)), ratios, seed)] == want
