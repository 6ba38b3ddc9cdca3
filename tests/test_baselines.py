import numpy as np
import pytest

from outcentr.baselines import grp_transform, pca_fit, pca_transform
from outcentr.data import DataError, Dataset


def dataset(values, labels=None):
    values = np.asarray(values, dtype=float)
    names = tuple(f"a{j + 1}" for j in range(values.shape[1]))
    return Dataset(values=values, attribute_names=names, labels=labels)


class TestPca:
    def anisotropic(self, rng, n=2000):
        # points on the line y = x plus small noise
        t = rng.normal(size=n)
        return dataset(np.c_[t, t] + 0.05 * rng.normal(size=(n, 2)))

    def test_first_component_follows_the_line(self):
        model = pca_fit(self.anisotropic(np.random.default_rng(0)), k=1)
        axis = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(model.components[0] @ axis) > 0.99

    def test_isotropic_variances_are_close(self):
        rng = np.random.default_rng(1)
        model = pca_fit(dataset(rng.normal(size=(10000, 2))), k=2)
        lo, hi = sorted(model.explained_variance)
        assert hi / lo < 1.2

    def test_full_rank_preserves_total_variance(self):
        rng = np.random.default_rng(2)
        d = dataset(rng.normal(size=(50, 5)) @ rng.normal(size=(5, 5)))
        model = pca_fit(d, k=5)
        total = d.values.var(axis=0, ddof=1).sum()
        assert model.explained_variance.sum() == pytest.approx(total, abs=1e-6)

    def test_components_orthonormal_and_residuals_small(self):
        rng = np.random.default_rng(3)
        signs = np.tile([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], (15, 1))
        cases = [
            (rng.normal(size=(80, 6)), 4),
            # rank-deficient: wider than tall, so most eigenvalues are zero
            (rng.normal(size=(40, 300)), 30),
            # two uncorrelated, equal-variance columns, each tripled: the
            # eigenvalues are exactly (v, v, 0, 0, 0, 0)
            (np.repeat(signs, 3, axis=1), 4),
            (rng.normal(size=(800, 500)), 20),
        ]
        for values, k in cases:
            d = dataset(values)
            model = pca_fit(d, k=k)
            assert np.allclose(model.components @ model.components.T, np.eye(k), atol=1e-6)
            assert np.all(model.explained_variance >= 0.0)
            assert np.all(np.diff(model.explained_variance) <= 0.0)
            centered = d.values - model.mean
            cov = centered.T @ centered / (d.n - 1)
            for vec, lam in zip(model.components, model.explained_variance):
                assert np.linalg.norm(cov @ vec - lam * vec) < 1e-8
            # projections onto distinct components are uncorrelated
            projected = pca_transform(model, d)
            sample_cov = np.cov(projected.values, rowvar=False)
            off = sample_cov - np.diag(np.diag(sample_cov))
            assert np.abs(off).max() < 1e-6

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(4)
        d = dataset(rng.normal(size=(40, 3)))
        model = pca_fit(d, k=3)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_k_bounds(self):
        d = dataset(np.random.default_rng(5).normal(size=(10, 4)))
        with pytest.raises(DataError):
            pca_fit(d, k=0)
        with pytest.raises(DataError):
            pca_fit(d, k=5)
        with pytest.raises(DataError):
            pca_fit(dataset([[1.0, 2.0]]), k=1)

    def test_transform_of_training_mean_is_zero(self):
        rng = np.random.default_rng(6)
        d = dataset(rng.normal(size=(30, 4)))
        model = pca_fit(d, k=2)
        mean_row = dataset(d.values.mean(axis=0, keepdims=True))
        assert np.allclose(pca_transform(model, mean_row).values, 0.0, atol=1e-12)

    def test_full_k_is_an_isometry_and_invertible(self):
        rng = np.random.default_rng(7)
        d = dataset(rng.normal(size=(40, 5)))
        model = pca_fit(d, k=5)
        projected = pca_transform(model, d)
        centered = d.values - model.mean
        assert np.allclose(
            (projected.values**2).sum(axis=1), (centered**2).sum(axis=1), atol=1e-6
        )
        reconstructed = projected.values @ model.components
        assert np.allclose(reconstructed, centered, atol=1e-6)

    def test_transform_checks_width_and_names_output(self):
        rng = np.random.default_rng(8)
        model = pca_fit(dataset(rng.normal(size=(20, 3))), k=2)
        out = pca_transform(model, dataset(rng.normal(size=(5, 3))))
        assert out.attribute_names == ("pc1", "pc2")
        with pytest.raises(DataError):
            pca_transform(model, dataset(rng.normal(size=(5, 4))))


class TestGrp:
    def test_zero_row_maps_to_zero(self):
        out = grp_transform(dataset(np.zeros((1, 10))), k=3, seed=0)
        assert np.all(out.values == 0.0)

    def test_same_seed_is_bit_identical(self):
        # each row of the identity picks out one column: the output is the projection, transposed
        def projection(seed):
            return grp_transform(dataset(np.eye(20)), k=5, seed=seed).values

        drawn = np.random.default_rng(123).standard_normal((5, 20)) / np.sqrt(5)
        assert np.array_equal(projection(123), drawn.T)
        assert np.array_equal(projection(123), projection(123))
        assert not np.array_equal(projection(123), projection(124))

    @pytest.mark.parametrize("n, m, k", [(30, 7, 3), (12, 40, 9), (50, 1, 1)])
    def test_train_and_test_rows_land_in_the_same_space(self, n, m, k):
        # the runner projects its train and test splits in two calls with one seed
        x = np.random.default_rng(m).normal(size=(n, m))
        whole = grp_transform(dataset(x), k=k, seed=7).values
        train = grp_transform(dataset(x[: n // 3]), k=k, seed=7).values
        test = grp_transform(dataset(x[n // 3 :]), k=k, seed=7).values
        assert np.allclose(np.vstack([train, test]), whole, rtol=0.0, atol=1e-12)
        other = grp_transform(dataset(x[n // 3 :]), k=k, seed=8).values
        assert not np.allclose(other, test, rtol=0.0, atol=1e-12)

    def test_doubling_is_exact_linear(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 12))
        once = grp_transform(dataset(x), k=4, seed=1).values
        doubled = grp_transform(dataset(2.0 * x), k=4, seed=1).values
        assert np.array_equal(doubled, 2.0 * once)

    def test_additivity_within_float_tolerance(self):
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
        fx = grp_transform(dataset(x), k=3, seed=2).values
        fy = grp_transform(dataset(y), k=3, seed=2).values
        fxy = grp_transform(dataset(x + y), k=3, seed=2).values
        assert np.allclose(fxy, fx + fy, atol=1e-12)

    def test_output_shape_and_names(self):
        out = grp_transform(dataset(np.ones((4, 9))), k=2, seed=0)
        assert out.m == 2 and out.n == 4
        assert out.attribute_names == ("rp1", "rp2")

    def test_distance_preservation_smoke(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 300))
        out = grp_transform(dataset(x), k=250, seed=5).values
        d_orig = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        d_proj = ((out[:, None, :] - out[None, :, :]) ** 2).sum(axis=2)
        mask = ~np.eye(40, dtype=bool)
        ratios = d_proj[mask] / d_orig[mask]
        assert (np.abs(ratios - 1.0) < 0.4).mean() > 0.95

    def test_k_must_be_positive(self):
        with pytest.raises(DataError):
            grp_transform(dataset(np.ones((2, 3))), k=0, seed=0)

