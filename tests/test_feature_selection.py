"""Backward attribute elimination and its cross-validated scorer."""

import numpy as np
import pytest

from dosedistill import feature_selection
from dosedistill.dataset import standardize
from dosedistill.feature_selection import backward_attribute_elimination, subset_score

from conftest import make_cohort


def linear_cohort(seed, n=240, noise=0.0):
    """y = 3*x0 + 2*x1 (+ noise); x2 is pure noise."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    y = 3 * X[:, 0] + 2 * X[:, 1] + noise * rng.standard_normal(n) + 30
    return make_cohort(X, y)


def duplicated_cohort(seed, n=400):
    """Five standard-normal columns with column 3 a copy of column 1;
    y = 3*x0 + 2*x1 + noise. Removing 1 or 3 fits the same model."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 5))
    X[:, 3] = X[:, 1]
    y = 3 * X[:, 0] + 2 * X[:, 1] + 0.3 * rng.standard_normal(n) + 30
    return make_cohort(X, y)


def near_collinear_cohort(seed, n=300):
    """Column 2 is column 0 plus noise of std 0.05 (correlation about 0.999)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    X[:, 2] = X[:, 0] + 0.05 * rng.standard_normal(n)
    y = 3 * X[:, 0] + X[:, 1] + 0.5 * rng.standard_normal(n) + 30
    return make_cohort(X, y)


def lstsq_cv_mae(cohort, cols, folds, seed):
    """Independent k-fold CV MAE: plain ``lstsq`` on ``[X_cols, 1]`` per fold."""
    A = np.hstack([cohort.X[:, sorted(cols)], np.ones((len(cohort), 1))])
    y = cohort.y
    errors = np.empty(len(y))
    for fold in np.array_split(np.random.default_rng(seed).permutation(len(y)), folds):
        mask = np.ones(len(y), dtype=bool)
        mask[fold] = False
        coef, *_ = np.linalg.lstsq(A[mask], y[mask], rcond=None)
        errors[fold] = np.abs(A[fold] @ coef - y[fold])
    return float(errors.mean())


def scored_subsets(cohort, result):
    """Every (subset, reported score) of an elimination run, baseline first."""
    kept = list(range(cohort.catalog.d))
    yield list(kept), result.baseline_score
    for rnd, (idx, _) in zip(result.trace, result.removed):
        for i, score in rnd:
            yield [j for j in kept if j != i], score
        kept.remove(idx)


@pytest.fixture
def cohorts(small_dataset):
    """(cohort, seed) pairs: a synthetic cohort with categorical columns, a
    duplicated pair and a near-collinear pair."""
    catalog, records = small_dataset
    return [
        (standardize(records, catalog), 3),
        (duplicated_cohort(seed=0), 0),
        (near_collinear_cohort(seed=2), 1),
    ]


class TestSubsetScore:
    def test_full_subset_noiseless(self):
        cohort = linear_cohort(seed=0)
        assert subset_score(cohort, [0, 1, 2], folds=5, seed=1) < 1e-6

    def test_constant_predictor_oracle(self):
        """Scoring only the uninformative feature approximates a
        fold-mean constant predictor."""
        rng = np.random.default_rng(4)
        n = 500
        X = rng.standard_normal((n, 2))
        y = 3 * X[:, 0] + 20  # x1 carries nothing
        cohort = make_cohort(X, y)

        perm = np.random.default_rng(7).permutation(n)
        oracle_errors = []
        for fold in np.array_split(perm, 5):
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            c = cohort.y[mask].mean()
            oracle_errors.extend(np.abs(cohort.y[fold] - c))
        oracle = float(np.mean(oracle_errors))

        got = subset_score(cohort, [1], folds=5, seed=7)
        assert got == pytest.approx(oracle, rel=0.02)

    def test_deterministic(self):
        cohort = linear_cohort(seed=2, noise=0.5)
        a = subset_score(cohort, [0, 2], folds=4, seed=3)
        b = subset_score(cohort, [0, 2], folds=4, seed=3)
        assert a == b

    def test_empty_subset_rejected(self):
        cohort = linear_cohort(seed=0)
        with pytest.raises(ValueError, match="empty"):
            subset_score(cohort, [], folds=3, seed=0)

    def test_folds_minimum(self):
        cohort = linear_cohort(seed=0)
        with pytest.raises(ValueError):
            subset_score(cohort, [0], folds=1, seed=0)

    @pytest.mark.parametrize("subset", [[0, 3], [-1, 0]])
    def test_out_of_range_subset_rejected(self, subset):
        with pytest.raises(ValueError, match="out of range"):
            subset_score(linear_cohort(seed=0), subset, folds=3, seed=0)


class TestBackwardElimination:
    def test_noise_feature_goes_first_across_seeds(self):
        hits = 0
        for seed in range(10):
            cohort = linear_cohort(seed=seed, noise=0.3)
            # independent oracle: enumerate all single removals and check the
            # noise feature's removal really scores best
            scores = {
                i: subset_score(cohort, [j for j in range(3) if j != i], 5, seed)
                for i in range(3)
            }
            oracle_best = min(scores, key=lambda i: (scores[i], i))
            result = backward_attribute_elimination(
                cohort, epsilon=0.05, folds=5, seed=seed
            )
            if result.removed and result.removed[0][0] == 2 == oracle_best:
                hits += 1
        assert hits >= 9

    def test_single_informative_feature_kept(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 2))
        y = 3 * X[:, 0] + 25
        cohort = make_cohort(X, y)
        result = backward_attribute_elimination(cohort, epsilon=0.01, folds=5, seed=0)
        assert 0 in result.kept

    def test_protected_never_removed(self):
        for seed in range(5):
            cohort = linear_cohort(seed=seed, noise=0.3)
            result = backward_attribute_elimination(
                cohort, protected={2}, epsilon=10.0, folds=5, seed=seed
            )
            assert 2 in result.kept
            assert all(i != 2 for i, _ in result.removed)

    def test_all_protected_returns_unchanged(self):
        cohort = linear_cohort(seed=3)
        result = backward_attribute_elimination(
            cohort, protected={0, 1, 2}, epsilon=0.05, folds=5, seed=0
        )
        assert result.kept == (0, 1, 2)
        assert result.removed == ()

    def test_bookkeeping_invariants(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((150, 6))
        y = 4 * X[:, 0] + X[:, 1] + 0.2 * rng.standard_normal(150) + 30
        cohort = make_cohort(X, y)
        result = backward_attribute_elimination(cohort, epsilon=0.2, folds=4, seed=5)
        assert len(result.trace) == len(result.removed)
        assert sorted(result.kept + tuple(i for i, _ in result.removed)) == list(
            range(6)
        )
        # one feature removed per completed round
        sizes = [len(rnd) for rnd in result.trace]
        assert sizes == list(range(6, 6 - len(result.removed), -1))

    def test_nan_epsilon_rejected(self):
        """``best > current + nan`` is never true, so NaN would silently drop
        every unprotected feature."""
        with pytest.raises(ValueError, match="epsilon must be a number"):
            backward_attribute_elimination(linear_cohort(seed=2), epsilon=float("nan"))

    def test_infinite_and_negative_epsilon_keep_their_meaning(self):
        cohort = linear_cohort(seed=4, noise=0.3)
        everything = backward_attribute_elimination(
            cohort, protected={1}, epsilon=float("inf"), folds=5, seed=0
        )
        assert everything.kept == (1,)
        nothing = backward_attribute_elimination(
            cohort, epsilon=-float("inf"), folds=5, seed=0
        )
        assert nothing.kept == (0, 1, 2) and nothing.removed == ()

    def test_pure_function_of_inputs(self):
        cohort = linear_cohort(seed=6, noise=0.4)
        a = backward_attribute_elimination(cohort, epsilon=0.05, folds=5, seed=8)
        b = backward_attribute_elimination(cohort, epsilon=0.05, folds=5, seed=8)
        assert a == b

    def test_duplicated_pair_removes_the_lower_index_first(self):
        """The two removals of a duplicated pair score alike up to rounding;
        the tie goes to the lower index."""
        for seed in range(10):
            result = backward_attribute_elimination(
                duplicated_cohort(seed), epsilon=0.05, folds=5, seed=seed
            )
            order = [i for i, _ in result.removed]
            assert 1 in order, f"seed {seed}: removed {order}"
            assert 3 not in order[: order.index(1)], f"seed {seed}: removed {order}"

    def test_every_reported_score_is_the_one_scorer(self, cohorts):
        for cohort, seed in cohorts:
            result = backward_attribute_elimination(
                cohort, epsilon=float("inf"), folds=5, seed=seed
            )
            assert result.removed
            for subset, score in scored_subsets(cohort, result):
                assert score == subset_score(cohort, subset, 5, seed)

    def test_scores_match_an_independent_lstsq(self, cohorts):
        """The damped normal equations give lstsq's CV MAE, also where a
        duplicated pair leaves the undamped Gram singular."""
        for cohort, seed in cohorts:
            result = backward_attribute_elimination(
                cohort, epsilon=float("inf"), folds=5, seed=seed
            )
            for subset, score in scored_subsets(cohort, result):
                assert score == pytest.approx(lstsq_cv_mae(cohort, subset, 5, seed), rel=1e-9)

    def test_folds_are_built_once_per_run(self, monkeypatch):
        calls = []
        real = feature_selection._fold_slices

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(feature_selection, "_fold_slices", counted)
        result = backward_attribute_elimination(
            linear_cohort(seed=1, noise=0.3), epsilon=float("inf"), folds=5, seed=2
        )
        assert len(result.removed) == 2
        assert len(calls) == 1


class TestFoldStats:
    def test_held_out_blocks_cover_every_row_once(self, cohorts):
        for cohort, seed in cohorts:
            stats = feature_selection._fold_stats(cohort, 5, seed)
            rows = np.concatenate([fold.rows for fold in stats])
            assert np.array_equal(np.sort(rows), np.arange(len(cohort)))

    def test_held_out_blocks_are_the_gathered_rows(self, cohorts):
        for cohort, seed in cohorts:
            for fold in feature_selection._fold_stats(cohort, 5, seed):
                assert np.array_equal(fold.X, cohort.X[fold.rows])
                assert np.array_equal(fold.y, cohort.y[fold.rows])
                # the layout a fresh gather has, so the products keep their bits
                assert fold.X.flags.c_contiguous
