import numpy as np
import pytest

from morreybench import (AlignedBox, DyadicCube, GridFunction, ParameterError, cube_box,
                         enumerate_subcubes, read_mgf, unit_root,
                         write_mgf)
from morreybench import grid
from morreybench.grid import cube_blocks, spread

from geometry_reference import children, parent, triple, upper


def step(values, dim=1, root=None, flags="none"):
    root = root if root is not None else unit_root(dim)
    return GridFunction(root, np.asarray(values, dtype=float), flags)


def recursive_enumeration(root, min_level):
    """Independent oracle: recursive subdivision instead of level sweeps."""
    out = [root]
    if root.level > min_level:
        for child in children(root):
            out.extend(recursive_enumeration(child, min_level))
    return out


class TestDyadicCube:
    def test_counts_1d(self):
        assert len(enumerate_subcubes(unit_root(1), -2)) == 7  # 1 + 2 + 4

    def test_counts_2d(self):
        assert len(enumerate_subcubes(unit_root(2), -1)) == 5  # 1 + 4

    def test_count_matches_recursive_oracle(self):
        got = enumerate_subcubes(unit_root(1), -3)
        assert len(got) == 15
        assert set(got) == set(recursive_enumeration(unit_root(1), -3))

    def test_min_level_above_root_rejected(self):
        with pytest.raises(ParameterError):
            enumerate_subcubes(unit_root(1), 1)

    def test_parent_child_roundtrip(self):
        for root in (unit_root(1), unit_root(2), DyadicCube(3, (-2, 5))):
            for child in children(root):
                assert parent(child) == root

    def test_nesting_law_exhaustive(self):
        # any two dyadic cubes are nested or disjoint
        cubes = enumerate_subcubes(unit_root(2), -2)
        for a in cubes:
            for b in cubes:
                inter_nontrivial = _intersect(a, b)
                if inter_nontrivial:
                    assert a.contains(b) or b.contains(a)

    def test_negative_coordinates(self):
        q = DyadicCube(-1, (-1,))
        assert q.lower() == (-0.5,)
        assert parent(q) == DyadicCube(0, (-1,))
        assert DyadicCube(0, (-1,)).contains(q)


def _intersect(a, b):
    for (al, au), (bl, bu) in zip(zip(a.lower(), upper(a)), zip(b.lower(), upper(b))):
        if au <= bl or bu <= al:
            return False
    return True


class TestCubeBlocks:
    @pytest.mark.parametrize("dim,depth", [(1, 6), (2, 4)])
    def test_rows_are_cube_slabs_in_canonical_order(self, dim, depth):
        rng = np.random.default_rng(7)
        f = step(rng.uniform(-1, 2, size=(2 ** depth,) * dim), dim)
        for shift in range(depth + 1):
            level = f.cell_level + shift
            rows = cube_blocks(f.values, shift).reshape(-1, 2 ** (dim * shift))
            cubes = [c for c in enumerate_subcubes(f.root, level) if c.level == level]
            assert len(cubes) == rows.shape[0]
            for cube, row in zip(cubes, rows):
                assert np.array_equal(row, f.values[cube_box(f, cube).slices()].ravel())

    @pytest.mark.parametrize("dim,depth", [(1, 6), (2, 4)])
    def test_stack_axes_stay_in_front(self, dim, depth):
        # the trailing dim axes are blocked; a (2, 3) stack of grids keeps its axes
        stack = np.random.default_rng(8).uniform(-1, 2, size=(2, 3) + (2 ** depth,) * dim)
        for shift in range(depth + 1):
            blocks = cube_blocks(stack, shift, dim)
            assert blocks.shape[:2] == (2, 3)
            for index in np.ndindex(2, 3):
                assert np.array_equal(blocks[index], cube_blocks(stack[index], shift))
                assert np.array_equal(spread(blocks[index].sum(-1), shift),
                                      spread(blocks.sum(-1), shift, dim)[index])


class TestTriple:
    def test_interior_cube_1d(self):
        f = step(np.ones(16))
        q = DyadicCube(-2, (1,))  # [0.25, 0.5)
        box = triple(q, f)
        assert box.lo == (0,) and box.hi == (12,)  # [0, 0.75)
        assert not box.clipped

    def test_root_triple_clips(self):
        f = step(np.ones(8))
        box = triple(unit_root(1), f)
        assert box.lo == (0,) and box.hi == (8,)
        assert box.clipped

    def test_interior_cube_2d(self):
        f = step(np.ones((16, 16)), dim=2)
        q = DyadicCube(-2, (2, 2))  # [0.5, 0.75)^2
        box = triple(q, f)
        assert box.lo == (4, 4) and box.hi == (16, 16)  # [0.25, 1)^2
        assert not box.clipped

    def test_cube_finer_than_grid_rejected(self):
        f = step(np.ones(4))
        with pytest.raises(ParameterError):
            triple(DyadicCube(-3, (0,)), f)


class TestGridFunction:
    def test_flag_validation(self):
        with pytest.raises(ParameterError):
            step([-1.0, 0, 0, 0], flags="nonneg")
        with pytest.raises(ParameterError):
            step([0.0, 1, 1, 1], flags="pos")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            step([1.0, bad, 1.0, 1.0])

    @pytest.mark.parametrize("dim,level,depth,inside", [
        (1, 1023, 0, True), (1, 1024, 0, False), (2, 511, 3, True), (2, 512, 3, False),
        (1, 0, 1022, True), (1, 0, 1023, False), (2, -500, 11, True), (2, -500, 12, False)])
    def test_levels_inside_the_float_range(self, dim, level, depth, inside):
        # root volumes up to 2**1023 and cell volumes down to 2**-1022
        if inside:
            grid.check_levels(dim, level, depth)
        else:
            with pytest.raises(ParameterError, match="leaves the float range"):
                grid.check_levels(dim, level, depth)

    @pytest.mark.parametrize("dim,values", [
        (1, []), (1, 2.0), (1, np.ones(3)), (1, np.ones((2, 2))),
        (2, np.ones(4)), (2, np.ones((4, 2))), (2, np.ones((3, 3)))])
    def test_values_must_be_a_power_of_two_per_axis(self, dim, values):
        # the depth is read from the side length, so the array fixes the grid
        with pytest.raises(ParameterError, match=r"is not \(2\*\*L,\) \* " + str(dim)):
            GridFunction(unit_root(dim), values)

    def test_depth_and_dimension_are_read_from_the_array(self):
        f = GridFunction(DyadicCube(2, (1, 0)), np.ones((8, 8)))
        assert (f.dim, f.depth, f.cells_per_axis, f.cell_level) == (2, 3, 8, -1)
        assert f.same_grid(f.refine(0)) and not f.same_grid(f.refine(1))
        assert not f.same_grid(GridFunction(DyadicCube(2, (0, 0)), np.ones((8, 8))))

    def test_grid_function_checks_its_levels(self):
        with pytest.raises(ParameterError, match="root level 1024 and depth 0 leaves"):
            GridFunction(DyadicCube(1024, (0,)), [1.0])

    def test_refine_is_exact(self):
        rng = np.random.default_rng(5)
        f = step(rng.uniform(size=8))
        fine = f.refine(2)
        assert fine.depth == 5
        assert np.array_equal(fine.values, np.repeat(f.values, 4))
        assert fine.values.sum() * fine.cell_volume == pytest.approx(
            f.values.sum() * f.cell_volume, rel=1e-14)
        with pytest.raises(ParameterError, match="^refine expects extra >= 0$"):
            f.refine(-1)

    def test_cube_box_alignment(self):
        f = step(np.ones((8, 8)), dim=2)
        box = cube_box(f, DyadicCube(-1, (1, 0)))
        assert box.lo == (4, 0) and box.hi == (8, 4)
        with pytest.raises(ParameterError, match=r"^empty box \(0,\)\.\.\(0,\)$"):
            AlignedBox((0,), (0,))

    @pytest.mark.parametrize("dim,coords", [(2, (1,)), (1, (0, 1))])
    def test_cube_of_another_dimension_rejected(self, dim, coords):
        # zipping the coordinates would cut the cube down to the grid's dimension
        f = step(np.ones((8,) * dim), dim)
        with pytest.raises(ParameterError,
                           match=f"^cube of dimension {len(coords)} does not fit a {dim}D grid$"):
            cube_box(f, DyadicCube(-1, coords))


def write_mgf_per_value(path, f):
    """The MGF/1 writer one ``write`` per value: the byte reference for ``write_mgf``."""
    coords = ",".join(str(c) for c in f.root.coords)
    with open(path, "w") as fh:
        fh.write(f"MGF 1 dim={f.dim} rootlevel={f.root.level} "
                 f"rootcoords={coords} depth={f.depth} flags={f.flags}\n")
        for v in f.values.ravel(order="C"):
            fh.write(f"{v:.17g}\n")


class TestMgfFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        for dim, depth in [(1, 4), (2, 3)]:
            root = DyadicCube(1, (0,) * dim)
            f = GridFunction(root, rng.uniform(0.5, 2.0, size=(2 ** depth,) * dim), "pos")
            path = tmp_path / f"fn{dim}.mgf"
            write_mgf(path, f)
            g = read_mgf(path)
            assert g.dim == dim and g.depth == depth and g.root == root
            assert g.flags == "pos"
            assert np.array_equal(g.values, f.values)

    # Value counts are powers of two: a chunk of 3 always leaves a ragged last
    # chunk, chunks of 1 and 4 always end on a chunk boundary.
    @pytest.mark.parametrize("chunk", [1, 3, 4, 1 << 16])
    @pytest.mark.parametrize("dim, depth, rootlevel", [(1, 0, 0), (1, 3, -2), (2, 2, 1)])
    def test_chunked_writer_matches_per_value_writer(self, tmp_path, monkeypatch,
                                                     chunk, dim, depth, rootlevel):
        monkeypatch.setattr(grid, "_WRITE_CHUNK", chunk)
        special = [-0.0, 5e-324, 1e308, 0.1, 3.0, -7.0, 0.0, 1.0, -1e-300, 2.0 ** 53, 1 / 3]
        f = GridFunction(DyadicCube(rootlevel, (1,) * dim),
                         np.resize(special, (2 ** depth,) * dim))
        chunked, per_value = tmp_path / "chunked.mgf", tmp_path / "per_value.mgf"
        write_mgf(chunked, f)
        write_mgf_per_value(per_value, f)
        assert chunked.read_bytes() == per_value.read_bytes()
        back = read_mgf(chunked).values
        assert np.array_equal(back, f.values)
        assert np.array_equal(np.signbit(back), np.signbit(f.values))  # -0.0 survives

    def test_header_layout(self, tmp_path):
        f = step([0.5, 2.0])
        path = tmp_path / "f.mgf"
        write_mgf(path, f)
        lines = path.read_text().splitlines()
        assert lines[0] == "MGF 1 dim=1 rootlevel=0 rootcoords=0 depth=1 flags=none"
        assert lines[1:] == ["0.5", "2"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.mgf"
        path.write_text("MGX 1 dim=1\n")
        with pytest.raises(ParameterError):
            read_mgf(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "short.mgf"
        path.write_text("MGF 1 dim=1 rootlevel=0 rootcoords=0 depth=2 flags=none\n1.0\n")
        with pytest.raises(ParameterError):
            read_mgf(path)

    def test_nan_under_pos_rejected(self, tmp_path):
        # nan passes the min() <= 0 positivity check, so it must be refused as non-finite
        path = tmp_path / "nan.mgf"
        path.write_text("MGF 1 dim=1 rootlevel=0 rootcoords=0 depth=1 flags=pos\n1.0\nnan\n")
        with pytest.raises(ParameterError, match="finite"):
            read_mgf(path)

    def test_content_after_last_value_rejected(self, tmp_path):
        path = tmp_path / "long.mgf"
        path.write_text("MGF 1 dim=1 rootlevel=0 rootcoords=0 depth=1 flags=none\n1.0\n2.0\n3.0\n")
        with pytest.raises(ParameterError, match="after"):
            read_mgf(path)
