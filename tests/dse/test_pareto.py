"""Tests for Pareto dominance, ranks and frontier edge cases."""

import pytest

from repro.dse import (
    Objective,
    dominance_ranks,
    dominates,
    hypervolume_proxy,
    objective_bounds,
    pareto_front,
    update_front,
)
from repro.dse.pareto import _values, _vector_dominates


def _dominance_ranks_reference(records, objectives):
    """Scalar reference for :func:`dominance_ranks`.

    The original peel loop: re-scan ``remaining`` for every candidate,
    O(n^2) per front.  Kept as the semantic baseline the vectorised
    implementation must reproduce rank-for-rank.
    """
    parsed = [Objective.parse(o) for o in objectives]
    vectors = [_values(record, parsed) for record in records]
    ranks = [-1] * len(records)
    remaining = list(range(len(records)))
    rank = 0
    while remaining:
        front = []
        for i in remaining:
            dominated = any(
                j != i and _vector_dominates(vectors[j], vectors[i])
                for j in remaining
            )
            if not dominated:
                front.append(i)
        for i in front:
            ranks[i] = rank
        front_set = set(front)
        remaining = [i for i in remaining if i not in front_set]
        rank += 1
    return ranks


def point(lat, energy):
    return {"latency": lat, "energy": energy}


class TestDominates:
    def test_strict_dominance(self):
        assert dominates(point(1, 1), point(2, 2), ["latency", "energy"])

    def test_partial_improvement_dominates(self):
        assert dominates(point(1, 2), point(2, 2), ["latency", "energy"])

    def test_tie_dominates_neither_way(self):
        a, b = point(1, 1), point(1, 1)
        objectives = ["latency", "energy"]
        assert not dominates(a, b, objectives)
        assert not dominates(b, a, objectives)

    def test_tradeoff_dominates_neither_way(self):
        a, b = point(1, 3), point(3, 1)
        objectives = ["latency", "energy"]
        assert not dominates(a, b, objectives)
        assert not dominates(b, a, objectives)

    def test_maximize_sense(self):
        a, b = {"throughput": 5.0}, {"throughput": 3.0}
        assert dominates(a, b, [("throughput", "max")])
        assert not dominates(b, a, [("throughput", "max")])

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            Objective.parse(("x", "best"))

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            dominates({"latency": 1.0}, {"latency": 2.0}, ["energy"])


class TestParetoFront:
    def test_empty_set(self):
        assert pareto_front([], ["latency"]) == []

    def test_single_point_is_frontier(self):
        records = [point(1, 1)]
        assert pareto_front(records, ["latency", "energy"]) == records

    def test_all_dominated_chain(self):
        records = [point(1, 1), point(2, 2), point(3, 3)]
        assert pareto_front(records, ["latency", "energy"]) == [point(1, 1)]

    def test_tradeoff_curve_all_on_front(self):
        records = [point(1, 3), point(2, 2), point(3, 1)]
        assert pareto_front(records, ["latency", "energy"]) == records

    def test_exact_ties_share_the_front(self):
        records = [point(1, 1), point(1, 1), point(2, 2)]
        assert pareto_front(records, ["latency", "energy"]) == [
            point(1, 1),
            point(1, 1),
        ]

    def test_input_order_preserved(self):
        records = [point(3, 1), point(5, 5), point(1, 3)]
        assert pareto_front(records, ["latency", "energy"]) == [
            point(3, 1),
            point(1, 3),
        ]

    def test_accessor_key(self):
        records = [{"spec": 1, "point": point(1, 1)}, {"spec": 2, "point": point(2, 2)}]
        front = pareto_front(
            records, ["latency", "energy"], key=lambda r: r["point"]
        )
        assert front == [records[0]]


class TestDominanceRanks:
    def test_layered_fronts(self):
        records = [point(1, 3), point(3, 1), point(2, 4), point(4, 4)]
        ranks = dominance_ranks(records, ["latency", "energy"])
        assert ranks == [0, 0, 1, 2]

    def test_all_dominated_sets_rank_incrementally(self):
        records = [point(i, i) for i in range(4)]
        assert dominance_ranks(records, ["latency", "energy"]) == [0, 1, 2, 3]

    def test_ties_share_rank(self):
        records = [point(1, 1), point(1, 1)]
        assert dominance_ranks(records, ["latency", "energy"]) == [0, 0]


class TestVectorizedRanksMatchReference:
    """Pin the numpy non-dominated sort to the scalar reference."""

    def test_randomized_inputs_identical_ranks(self):
        import numpy as np

        rng = np.random.default_rng(20260808)
        for trial in range(25):
            n = int(rng.integers(1, 60))
            m = int(rng.integers(1, 4))
            # Coarse integer grid -> plenty of exact ties and deep fronts.
            values = rng.integers(0, 5, size=(n, m))
            keys = ["k%d" % j for j in range(m)]
            senses = ["min" if rng.random() < 0.5 else "max" for _ in keys]
            records = [
                {key: float(v) for key, v in zip(keys, row)} for row in values
            ]
            objectives = list(zip(keys, senses))
            assert dominance_ranks(records, objectives) == \
                _dominance_ranks_reference(records, objectives)

    def test_duplicates_and_chains(self):
        records = [point(1, 1), point(1, 1), point(2, 2), point(3, 1), point(2, 3)]
        objectives = ["latency", "energy"]
        assert dominance_ranks(records, objectives) == \
            _dominance_ranks_reference(records, objectives)

    def test_non_finite_vectors_match_reference(self):
        records = [
            point(float("nan"), 1.0),
            point(1.0, 1.0),
            point(2.0, 2.0),
            point(float("inf"), 0.5),
        ]
        objectives = ["latency", "energy"]
        assert dominance_ranks(records, objectives) == \
            _dominance_ranks_reference(records, objectives)

    def test_empty_records(self):
        assert dominance_ranks([], ["latency"]) == []

    def test_deep_single_objective_front_is_fast_enough(self):
        # 400 strictly-ordered points = 400 one-element fronts: the
        # pre-fix loop's cubic corner.  Correctness is pinned above;
        # this guards the shape (every rank distinct, in value order).
        records = [{"latency": float(i)} for i in range(400)]
        assert dominance_ranks(records, ["latency"]) == list(range(400))


class TestUpdateFront:
    """Incremental archive: stream folds must match the batch front."""

    OBJECTIVES = ["latency", "energy"]

    def test_nondominated_record_joins(self):
        front = update_front([], point(1, 3), self.OBJECTIVES)
        assert front == [point(1, 3)]
        front = update_front(front, point(3, 1), self.OBJECTIVES)
        assert front == [point(1, 3), point(3, 1)]

    def test_dominated_record_leaves_archive_unchanged(self):
        archive = [point(1, 1)]
        out = update_front(archive, point(2, 2), self.OBJECTIVES)
        assert out == archive
        assert out is not archive  # a copy: callers may mutate freely

    def test_new_record_evicts_dominated_members(self):
        archive = [point(2, 2), point(1, 3), point(3, 1)]
        out = update_front(archive, point(1, 1), self.OBJECTIVES)
        assert out == [point(1, 1)]

    def test_exact_tie_keeps_both(self):
        out = update_front([point(1, 1)], point(1, 1), self.OBJECTIVES)
        assert out == [point(1, 1), point(1, 1)]

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            update_front([], {"latency": 1.0}, self.OBJECTIVES)

    def test_stream_fold_matches_batch_front(self):
        # Deterministic pseudo-random walk with ties and trade-offs.
        records = [
            point(float((i * 37) % 11), float((i * 53) % 13))
            for i in range(60)
        ]
        front = []
        for record in records:
            front = update_front(front, record, self.OBJECTIVES)
        batch = pareto_front(records, self.OBJECTIVES)
        assert sorted(
            (r["latency"], r["energy"]) for r in front
        ) == sorted((r["latency"], r["energy"]) for r in batch)


class TestObjectiveBounds:
    def test_min_sense_bounds(self):
        records = [point(1, 5), point(3, 2), point(2, 8)]
        bounds = objective_bounds(records, ["latency", "energy"])
        assert bounds == {"latency": (1.0, 3.0), "energy": (2.0, 8.0)}

    def test_max_sense_is_sign_normalised(self):
        records = [{"throughput": 1.0}, {"throughput": 3.0}]
        bounds = objective_bounds(records, [("throughput", "max")])
        assert bounds == {"throughput": (-3.0, -1.0)}

    def test_skips_incomparable_and_nonfinite_records(self):
        records = [
            point(1, 1),
            {"latency": 2.0},  # missing a key: skipped whole
            point(float("inf"), 3),  # non-finite: skipped whole
            point(3, 3),
        ]
        bounds = objective_bounds(records, ["latency", "energy"])
        assert bounds == {"latency": (1.0, 3.0), "energy": (1.0, 3.0)}

    def test_no_comparable_records_is_empty(self):
        assert objective_bounds([{"other": 1.0}], ["latency"]) == {}


class TestHypervolumeProxy:
    OBJECTIVES = ["latency", "energy"]
    BOUNDS = {"latency": (1.0, 3.0), "energy": (1.0, 3.0)}

    def test_empty_front_is_zero(self):
        assert hypervolume_proxy([], self.OBJECTIVES, self.BOUNDS) == 0.0

    def test_ideal_corner_fills_the_box(self):
        front = [point(1, 1)]
        assert hypervolume_proxy(front, self.OBJECTIVES, self.BOUNDS) == 1.0

    def test_worst_corner_is_zero(self):
        front = [point(3, 3)]
        assert hypervolume_proxy(front, self.OBJECTIVES, self.BOUNDS) == 0.0

    def test_midpoint_is_quarter_box(self):
        front = [point(2, 2)]
        assert hypervolume_proxy(
            front, self.OBJECTIVES, self.BOUNDS
        ) == pytest.approx(0.25)

    def test_monotone_as_front_improves(self):
        bounds = self.BOUNDS
        series = []
        front = []
        for record in [point(3, 3), point(2, 2), point(1, 2), point(1, 1)]:
            front = update_front(front, record, self.OBJECTIVES)
            series.append(hypervolume_proxy(front, self.OBJECTIVES, bounds))
        assert series == sorted(series)
        assert series[-1] == 1.0

    def test_degenerate_axis_spans_full_edge(self):
        bounds = {"latency": (2.0, 2.0), "energy": (1.0, 3.0)}
        front = [point(2, 1)]
        assert hypervolume_proxy(front, self.OBJECTIVES, bounds) == 1.0

    def test_out_of_bounds_values_clip(self):
        # A front member outside the frame (objectives overridden after
        # the fact) clips to [0, 1] instead of exploding the product.
        front = [point(0, 0)]
        assert hypervolume_proxy(
            front, self.OBJECTIVES, self.BOUNDS
        ) == 1.0
