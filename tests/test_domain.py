import numpy as np
import pytest

from lgcp_design import (
    Domain,
    EmptyGridError,
    LgcpDesignError,
    discretize,
    from_unit_cube,
    is_admissible,
    load_mask_file,
    point,
    save_mask_file,
    to_unit_cube,
    unit_cube,
)


def half_mask():
    # 2x2x2 raster excluding the t < 0.5 half of the unit cube
    mask = np.ones((2, 2, 2), dtype=bool)
    mask[:, :, 0] = False
    return mask


class TestDiscretize:
    def test_unit_cube_2x2x2(self):
        grid = discretize(unit_cube(), (2, 2, 2))
        assert grid.N == 8
        expected = {0.25, 0.75}
        for axis in range(3):
            assert set(np.round(grid.cells[:, axis], 12)) == expected

    def test_mask_excludes_half(self):
        grid = discretize(unit_cube(half_mask()), (2, 2, 2))
        assert grid.N == 4
        assert np.all(grid.cells[:, 2] == 0.75)

    def test_cell_count_product(self):
        grid = discretize(unit_cube(), (10, 10, 8))
        assert grid.N == 800

    def test_empty_grid_raises(self):
        # only the upper-corner raster cell is admissible; the single center of
        # a 1x1x1 grid sits at (0.5, 0.5, 0.5), which belongs to the lower cell
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[1, 1, 1] = True
        with pytest.raises(EmptyGridError):
            discretize(unit_cube(mask), (1, 1, 1))

    @pytest.mark.parametrize("resolution", [(8, 8), (5, 5, 4, 7)], ids=["two", "four"])
    def test_resolution_needs_three_entries(self, resolution):
        with pytest.raises(LgcpDesignError, match=(
                rf"^resolution must have three entries \(s1, s2, t\), got {len(resolution)}$")):
            discretize(unit_cube(), resolution)

    def test_never_emits_masked_center(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mask = rng.random((3, 3, 3)) < 0.6
            if not mask.any():
                mask[0, 0, 0] = True
            domain = unit_cube(mask)
            grid = discretize(domain, (6, 6, 6))
            assert np.all(is_admissible(grid.cells, domain))


class TestUnitCubeScaling:
    def test_corners(self):
        d = Domain(np.array([[1.0, 3.0], [-2.0, 2.0], [0.0, 10.0]]))
        assert np.allclose(to_unit_cube(d.lo, d), [0, 0, 0])
        assert np.allclose(to_unit_cube(d.hi, d), [1, 1, 1])

    def test_midpoint(self):
        d = Domain(np.array([[0.0, 2.0]] * 3))
        assert np.allclose(to_unit_cube(point(1, 1, 1), d), [0.5, 0.5, 0.5])

    def test_round_trip_1000_points(self):
        d = Domain(np.array([[-3.0, 7.0], [100.0, 250.0], [0.0, 1.0]]))
        rng = np.random.default_rng(42)
        pts = d.lo + rng.random((1000, 3)) * d.widths
        back = from_unit_cube(to_unit_cube(pts, d), d)
        assert np.max(np.abs(back - pts)) < 1e-12 * np.max(np.abs(d.bounds))


class TestAdmissibility:
    def test_inside_no_mask(self):
        assert is_admissible(point(0.5, 0.5, 0.5), unit_cube())

    def test_outside_bounds(self):
        assert not is_admissible(point(1.5, 0.5, 0.5), unit_cube())

    def test_masked_cell(self):
        d = unit_cube(half_mask())
        assert not is_admissible(point(0.5, 0.5, 0.25), d)
        assert is_admissible(point(0.5, 0.5, 0.75), d)

    def test_boundary_goes_to_lower_cell(self):
        d = unit_cube(half_mask())
        # t = 0.5 is the shared boundary; it belongs to the lower (masked) cell
        assert not is_admissible(point(0.5, 0.5, 0.5), d)


class TestMaskFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mask = rng.random((4, 3, 2)) < 0.7
        mask[0, 0, 0] = True
        d = Domain(np.array([[0.0, 4.0], [1.0, 2.5], [-1.0, 1.0]]), mask)
        path = tmp_path / "mask.txt"
        save_mask_file(path, d)
        loaded = load_mask_file(path)
        assert np.array_equal(loaded.mask, d.mask)
        assert np.allclose(loaded.bounds, d.bounds)

    def test_layout_s1_fastest(self, tmp_path):
        # 2x1x1 raster: values (cell s1=0, cell s1=1)
        path = tmp_path / "mask.txt"
        path.write_text("2 1 1 0 1 0 1 0 1\n1 0\n")
        d = load_mask_file(path)
        assert d.mask[0, 0, 0] and not d.mask[1, 0, 0]

    @pytest.mark.parametrize(
        "header", ["2 1 x 0 1 0 1 0 1", "2 1 1 0 1 0 one 0 1", "-2 -1 1 0 1 0 1 0 1"])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "mask.txt"
        path.write_text(f"{header}\n1 0\n")
        with pytest.raises(LgcpDesignError, match="malformed header"):
            load_mask_file(path)


class TestValidation:
    def test_bad_bounds(self):
        with pytest.raises(Exception):
            Domain(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]))

    def test_all_masked(self):
        with pytest.raises(Exception):
            unit_cube(np.zeros((2, 2, 2), dtype=bool))
