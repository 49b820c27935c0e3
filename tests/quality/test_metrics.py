"""Tests for the Table II quality metrics."""

import numpy as np
import pytest

from repro.quality import (
    contingency_table,
    adjusted_rand_index,
    f_measure,
    jaccard_index,
    normalized_mutual_information,
    normalized_van_dongen,
    rand_index,
    score_all,
)

A = np.array([0, 0, 0, 1, 1, 1, 2, 2])


class TestPerfectAgreement:
    @pytest.mark.parametrize(
        "metric,expected",
        [
            (normalized_mutual_information, 1.0),
            (f_measure, 1.0),
            (normalized_van_dongen, 0.0),
            (rand_index, 1.0),
            (adjusted_rand_index, 1.0),
            (jaccard_index, 1.0),
        ],
    )
    def test_identical(self, metric, expected):
        assert metric(A, A) == pytest.approx(expected)

    def test_label_names_irrelevant(self):
        b = np.array([9, 9, 9, 4, 4, 4, 7, 7])
        assert score_all(A, b) == score_all(A, A)


class TestKnownValues:
    def test_ari_textbook_example(self):
        x = np.array([0, 0, 0, 1, 1, 1])
        y = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(x, y) == pytest.approx(0.24242424, abs=1e-6)

    def test_rand_index_hand_computed(self):
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 0, 1])
        # pairs: (01):together in x only; (23):together in x only;
        # (02):together in y only; (13): together in y only; (03),(12): apart in both
        assert rand_index(x, y) == pytest.approx(2 / 6)

    def test_jaccard_hand_computed(self):
        x = np.array([0, 0, 0, 1])
        y = np.array([0, 0, 1, 1])
        # n11 = {01}; n10 = {02,12}; n01 = {23}
        assert jaccard_index(x, y) == pytest.approx(1 / 4)

    def test_nvd_hand_computed(self):
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 1, 1])
        # row maxima: 1 + 2 = 3; col maxima: 1 + 2 = 3; NVD = 1 - 6/8
        assert normalized_van_dongen(x, y) == pytest.approx(0.25)

    def test_f_measure_hand_computed(self):
        det = np.array([0, 0, 0, 0])
        truth = np.array([0, 0, 1, 1])
        # each truth community (size 2) best-matched by the single detected
        # community of size 4: F1 = 2*2/(4+2) = 2/3
        assert f_measure(det, truth) == pytest.approx(2 / 3)


class TestChanceBehaviour:
    def test_ari_near_zero_for_random(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 8, 2000)
        y = rng.integers(0, 8, 2000)
        assert abs(adjusted_rand_index(x, y)) < 0.02

    def test_nmi_low_for_random(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 8, 2000)
        y = rng.integers(0, 8, 2000)
        assert normalized_mutual_information(x, y) < 0.05


class TestDegenerate:
    def test_all_in_one_vs_split(self):
        one = np.zeros(6, dtype=np.int64)
        split = np.array([0, 0, 0, 1, 1, 1])
        assert normalized_mutual_information(one, split) == 0.0
        assert jaccard_index(one, split) == pytest.approx(6 / 15)

    def test_all_singletons_vs_all_singletons(self):
        s = np.arange(5)
        assert rand_index(s, s) == 1.0
        assert jaccard_index(s, s) == 1.0  # vacuous: no co-clustered pairs

    def test_empty_arrays(self):
        e = np.zeros(0, dtype=np.int64)
        assert normalized_mutual_information(e, e) == 1.0
        assert normalized_van_dongen(e, e) == 0.0

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            rand_index(np.zeros(3, np.int64), np.zeros(4, np.int64))


class TestScoreAll:
    def test_keys_in_paper_order(self):
        out = score_all(A, A)
        assert list(out) == ["NMI", "F-measure", "NVD", "RI", "ARI", "JI"]

    def test_all_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.integers(0, 5, 100)
            y = rng.integers(0, 5, 100)
            for name, v in score_all(x, y).items():
                if name == "ARI":
                    assert -1.0 <= v <= 1.0
                else:
                    assert 0.0 <= v <= 1.0


class TestContingencyExact:
    """``contingency_table`` counts with one ``np.bincount``; it must equal
    the 2-D ``np.add.at`` table it replaced, on the C label index and on
    its numpy reference."""

    @staticmethod
    def _add_at_table(a, b):
        _, ai = np.unique(a, return_inverse=True)
        _, bi = np.unique(b, return_inverse=True)
        table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
        np.add.at(table, (ai, bi), 1)
        return table

    @pytest.mark.parametrize("force_numpy", [False, True], ids=["auto", "numpy"])
    def test_matches_add_at(self, force_numpy):
        import contextlib

        from tests.core.numpy_kernels import numpy_path

        rng = np.random.default_rng(4)
        with numpy_path() if force_numpy else contextlib.nullcontext():
            for n in (1, 2, 50, 500):
                a = rng.integers(-5, 9, n) * 977
                b = rng.integers(0, 40, n)
                table, sa, sb = contingency_table(a, b)
                ref = self._add_at_table(a, b)
                assert table.dtype == ref.dtype and np.array_equal(table, ref)
                assert np.array_equal(sa, ref.sum(axis=1))
                assert np.array_equal(sb, ref.sum(axis=0))

    def test_empty(self):
        table, sa, sb = contingency_table(np.zeros(0), np.zeros(0))
        assert table.shape == (0, 0) and sa.size == 0 and sb.size == 0
