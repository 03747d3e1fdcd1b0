import numpy as np
import pytest

from lgcp_design import (
    CovStructure,
    KernelSpec,
    LgcpDesignError,
    MeanFunction,
    cov_matrix,
    Domain,
    discretize,
    matern32,
    mean_eval,
    point,
    sqexp,
    unit_cube,
)
from conftest import random_cov


class TestMatern32:
    def test_zero_distance(self):
        spec = KernelSpec("matern32", 0.7, 1.3)
        assert matern32(0.0, spec) == pytest.approx(1.3)

    def test_known_value(self):
        # at d = l / sqrt(3) the kernel equals sigma^2 * 2 * exp(-1)
        spec = KernelSpec("matern32", 1.0, 1.0)
        assert matern32(1.0 / np.sqrt(3.0), spec) == pytest.approx(
            2.0 * np.exp(-1.0), rel=1e-12
        )

    def test_decays(self):
        spec = KernelSpec("matern32", 0.5, 2.0)
        d = np.linspace(0.0, 5.0, 200)
        k = matern32(d, spec)
        assert np.all(np.diff(k) < 0)
        assert np.all(k > 0)
        assert k[-1] < 1e-3 * k[0]

    def test_negative_distance_rejected(self):
        with pytest.raises(LgcpDesignError):
            matern32(-0.1, KernelSpec("matern32", 1.0, 1.0))


class TestSqExp:
    def test_known_value(self):
        spec = KernelSpec("sqexp", 2.0, 3.0)
        assert sqexp(2.0, spec) == pytest.approx(3.0 * np.exp(-1.0), rel=1e-12)

    def test_zero_distance(self):
        assert sqexp(0.0, KernelSpec("sqexp", 1.0, 0.5)) == pytest.approx(0.5)


class TestKernelSpecValidation:
    def test_bad_family(self):
        with pytest.raises(LgcpDesignError):
            KernelSpec("matern52", 1.0, 1.0)

    def test_bad_lengthscale(self):
        with pytest.raises(LgcpDesignError):
            KernelSpec("sqexp", 0.0, 1.0)

    def test_bad_variance(self):
        with pytest.raises(LgcpDesignError):
            KernelSpec("sqexp", 1.0, -1.0)


class TestCovStructure:
    def test_separable_requires_unit_spatial_variance(self):
        with pytest.raises(LgcpDesignError):
            CovStructure(
                "separable",
                KernelSpec("matern32", 0.8, 2.0),
                KernelSpec("sqexp", 1.5, 2.0),
            )

    def test_total_variance_additive(self, additive_cov):
        assert additive_cov.total_variance == pytest.approx(4.0)

    def test_total_variance_separable(self, separable_cov):
        assert separable_cov.total_variance == pytest.approx(2.0)

    def test_separable_is_product(self, separable_cov):
        a = point(0.1, 0.2, 0.3)
        b = point(0.5, 0.9, 0.8)
        ds = np.hypot(0.4, 0.7)
        expected = separable_cov.spatial(ds) * separable_cov.temporal(0.5)
        got = cov_matrix(a, b, separable_cov)[0, 0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_additive_is_sum(self, additive_cov):
        a = point(0.1, 0.2, 0.3)
        b = point(0.5, 0.9, 0.8)
        ds = np.hypot(0.4, 0.7)
        expected = additive_cov.spatial(ds) + additive_cov.temporal(0.5)
        got = cov_matrix(a, b, additive_cov)[0, 0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_temporal_distance_only_uses_t(self, additive_cov):
        # moving only in time keeps the spatial part at full variance
        a = point(0.3, 0.3, 0.1)
        b = point(0.3, 0.3, 0.9)
        got = cov_matrix(a, b, additive_cov)[0, 0]
        expected = additive_cov.spatial.variance + additive_cov.temporal(0.8)
        assert got == pytest.approx(expected, rel=1e-12)


class TestCovMatrixProperties:
    @pytest.mark.parametrize("trial", range(5))
    def test_symmetric_psd_with_unit_diag_scaling(self, trial):
        rng = np.random.default_rng(100 + trial)
        cov = random_cov(rng)
        pts = rng.random((25, 3))
        K = cov_matrix(pts, pts, cov)
        assert np.allclose(K, K.T, atol=1e-12)
        assert np.allclose(np.diag(K), cov.total_variance, rtol=1e-12)
        eig = np.linalg.eigvalsh(K)
        assert eig.min() > -1e-8 * cov.total_variance

    def test_stationarity(self, additive_cov):
        shift = np.array([0.2, -0.1, 0.3])
        a = np.array([[0.1, 0.4, 0.2], [0.5, 0.1, 0.6]])
        K1 = cov_matrix(a, a, additive_cov)
        K2 = cov_matrix(a + shift, a + shift, additive_cov)
        assert np.allclose(K1, K2, rtol=1e-12)

    def test_cross_shape(self, additive_cov):
        a = np.random.default_rng(0).random((4, 3))
        b = np.random.default_rng(1).random((7, 3))
        assert cov_matrix(a, b, additive_cov).shape == (4, 7)


class TestMeanFunction:
    def test_constant(self):
        m = MeanFunction.constant(-1.5)
        assert mean_eval(point(0.3, 0.7, 0.1), m) == pytest.approx(-1.5)

    def test_concave_quadratic_endpoints(self, concave_mean):
        # a - c (t - b)^2 with a=2, b=0.5, c=30: value -5.5 at t in {0, 1}
        assert mean_eval(point(0.2, 0.8, 0.0), concave_mean) == pytest.approx(-5.5)
        assert mean_eval(point(0.9, 0.1, 1.0), concave_mean) == pytest.approx(-5.5)

    def test_concave_quadratic_peak(self, concave_mean):
        assert mean_eval(point(0.5, 0.5, 0.5), concave_mean) == pytest.approx(2.0)

    def test_depends_only_on_time(self, concave_mean):
        rng = np.random.default_rng(7)
        pts = rng.random((10, 3))
        pts[:, 2] = 0.25
        vals = mean_eval(pts, concave_mean)
        assert np.allclose(vals, vals[0])

    def test_array_shape(self, concave_mean):
        pts = np.random.default_rng(0).random((6, 3))
        assert mean_eval(pts, concave_mean).shape == (6,)

    def test_tabulated_lookup(self):
        grid = discretize(unit_cube(), (2, 2, 2))
        values = np.arange(8, dtype=float)
        m = MeanFunction.tabulated(grid, values)
        assert mean_eval(grid.cells[5], m) == pytest.approx(5.0)
        assert np.allclose(mean_eval(grid.cells, m), values)

    def test_tabulated_off_grid_rejected(self):
        grid = discretize(unit_cube(), (2, 2, 2))
        m = MeanFunction.tabulated(grid, np.zeros(8))
        with pytest.raises(LgcpDesignError):
            mean_eval(point(0.1, 0.1, 0.1), m)

    def test_tabulated_wrong_length(self):
        grid = discretize(unit_cube(), (2, 2, 2))
        with pytest.raises(LgcpDesignError):
            MeanFunction.tabulated(grid, np.zeros(7))


def _broadcast_cov(a, b, cov):
    """cov_matrix written out with broadcast distances, as a reference."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    ds = np.sqrt(np.sum((a[:, None, :2] - b[None, :, :2]) ** 2, axis=-1))
    dt = np.abs(a[:, None, 2] - b[None, :, 2])
    ks, kt = cov.spatial(ds), cov.temporal(dt)
    return ks * kt if cov.mode == "separable" else ks + kt


class TestCovMatrixBitIdentity:
    def test_matches_broadcast_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cov = random_cov(rng)
            a = rng.uniform(-2.0, 5.0, (int(rng.integers(1, 60)), 3))
            b = rng.uniform(-2.0, 5.0, (int(rng.integers(1, 60)), 3))
            assert np.array_equal(cov_matrix(a, b, cov), _broadcast_cov(a, b, cov))
            assert np.array_equal(cov_matrix(a, a, cov), _broadcast_cov(a, a, cov))

    def test_single_row_and_single_point(self, additive_cov, separable_cov):
        rng = np.random.default_rng(4)
        b = rng.random((30, 3))
        for cov in (additive_cov, separable_cov):
            one_row = rng.random((1, 3))
            assert np.array_equal(cov_matrix(one_row, b, cov), _broadcast_cov(one_row, b, cov))
            p = point(0.3, 0.6, 0.9)
            got = cov_matrix(p, b, cov)
            assert got.shape == (1, 30)
            assert np.array_equal(got, _broadcast_cov(p, b, cov))
            assert np.array_equal(cov_matrix(b, p, cov), _broadcast_cov(b, p, cov))
            assert np.array_equal(cov_matrix(p, p, cov), _broadcast_cov(p, p, cov))


def _tabulated_reference(grid, values, query):
    """The row-by-row isclose lookup that mean_eval's index arithmetic replaces."""
    out = np.empty(query.shape[0])
    for i, q in enumerate(query):
        hit = np.nonzero(np.all(np.isclose(grid.cells, q, atol=1e-12), axis=1))[0]
        if hit.size == 0:
            raise LgcpDesignError("tabulated mean queried off its grid")
        out[i] = values[hit[0]]
    return out


class TestTabulatedMeanLookup:
    def _masked_grid(self):
        mask = np.ones((4, 3, 5), dtype=bool)
        mask[:2, :2, :] = False
        mask[3, 2, 4] = False
        domain = Domain(np.array([[-1.0, 3.0], [10.0, 11.5], [0.0, 2.0]]), mask)
        return discretize(domain, (6, 5, 7))

    def test_masked_grid_matches_reference(self):
        grid = self._masked_grid()
        rng = np.random.default_rng(5)
        values = rng.normal(size=grid.N)
        m = MeanFunction.tabulated(grid, values)
        query = grid.cells[rng.permutation(grid.N)]
        # perturbations inside the lookup tolerance still find the cell
        query = query + rng.uniform(-1e-13, 1e-13, query.shape)
        assert grid.N < 6 * 5 * 7
        assert np.array_equal(mean_eval(query, m), _tabulated_reference(grid, values, query))
        assert mean_eval(grid.cells[7], m) == values[7]

    def test_masked_or_off_grid_query_raises(self):
        grid = self._masked_grid()
        m = MeanFunction.tabulated(grid, np.zeros(grid.N))
        cell_width = grid.domain.widths / np.asarray(grid.resolution)
        off = [
            grid.cells[0] + 0.3 * cell_width,  # inside the box, between centers
            grid.domain.lo + 0.5 * cell_width,  # center of a masked cell
            grid.domain.hi + 0.5 * cell_width,  # center of a cell outside the box
            np.array([np.nan, 10.5, 1.0]),
        ]
        for q in off:
            with pytest.raises(LgcpDesignError):
                mean_eval(np.vstack([grid.cells[:3], q]), m)
            with pytest.raises(LgcpDesignError):
                _tabulated_reference(grid, np.zeros(grid.N), q[None, :])
