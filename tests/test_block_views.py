"""Cell blocks are views of the level clouds, and distances form in place.

The block psi_w(level 1) of a word w is, bit for bit, the slice of rows of
level |w| + 1 that belongs to w, so the mesh serves it as a read-only view
of that level once it is built, and a search pre-builds the level below its
start.  The tests compare the views with apply_word and a search on views
with one on the recursion they replaced (mesh_reference), and the in-place
squared distances with the expression they replaced.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from mesh_reference import _recursive_block
from mesh_reference import _sq_dists as _reference_sq_dists
from test_minimize import _rotating_ifs

import rieszfrac as rf
from rieszfrac import minimize
from rieszfrac.fractal import DEFAULT_CLOUD_BUDGET, _sq_dists
from rieszfrac.minimize import _auto_depth, _Mesh


def _fractals(mixed_fractal):
    return {"cantor": rf.cantor("1/3"), "dust": rf.cantor_dust_2d(0.25),
            "two-scale": mixed_fractal, "rotating": _rotating_ifs()}


# ------------------------------------------------------------------ block views

@pytest.mark.parametrize("name", ["cantor", "dust", "two-scale", "rotating"])
def test_block_views_match_apply_word(name, mixed_fractal):
    fractal = _fractals(mixed_fractal)[name]
    M = len(fractal.maps)
    top = 4 if M == 4 else 6
    mesh, reference = _Mesh(fractal), _Mesh(fractal)
    for depth in range(1, top + 2):
        mesh.level(depth)
    # words of depth top + 1 have no built level below them: the recursion
    for depth in range(top + 2):
        level = mesh.level(depth + 1) if depth <= top else None
        for w in itertools.product(range(1, M + 1), repeat=depth):
            block = mesh.block(w)
            assert block.tobytes() == fractal.apply_word(w, mesh.level(1)).tobytes()
            assert block.tobytes() == _recursive_block(reference, w).tobytes()
            assert not block.flags.writeable
            assert level is None or np.shares_memory(block, level)
            with pytest.raises(ValueError):
                block[0, 0] = 0.0


def test_levels_are_read_only(cantor13):
    mesh = _Mesh(cantor13)
    for depth in (1, 4):
        with pytest.raises(ValueError):
            mesh.level(depth)[0, 0] = 1.0


def _spy_meshes(monkeypatch):
    """Run restarts in this process and keep every mesh a search builds."""
    meshes = []
    init = _Mesh.__init__

    def recording(self, fractal):
        init(self, fractal)
        meshes.append(self)

    monkeypatch.setattr(_Mesh, "__init__", recording)
    monkeypatch.setattr(minimize, "parallel_map", lambda fn, items: [fn(x) for x in items])
    return meshes


@pytest.mark.parametrize("name, N, s", [("cantor", 256, 3.0), ("cantor", 1024, 3.0),
                                        ("dust", 256, 4.0), ("two-scale", 128, 3.0)])
def test_search_on_views_equals_search_on_the_recursion(name, N, s, monkeypatch,
                                                        mixed_fractal):
    fractal = _fractals(mixed_fractal)[name]
    opts = rf.SearchOptions(seed=5, restarts=3)
    with monkeypatch.context() as m:
        m.setattr(_Mesh, "block", _recursive_block)
        want = rf.local_search_minimize(fractal, N, s, opts)
    got = rf.local_search_minimize(fractal, N, s, opts)
    assert got.words == want.words
    assert got.points.tobytes() == want.points.tobytes()
    assert got.record.energy.hex() == want.record.energy.hex()
    assert got.min_distance.hex() == want.min_distance.hex()
    assert got.iterations == want.iterations
    # the level below the start is built before the restarts, and only
    # words deeper than it are built by the recursion
    meshes = _spy_meshes(monkeypatch)
    again = rf.local_search_minimize(fractal, N, s, opts)
    assert again.points.tobytes() == want.points.tobytes()
    depth = _auto_depth(len(fractal.maps), N)
    (mesh,) = meshes
    assert depth + 1 in mesh._levels
    assert all(len(w) > depth for w in mesh._blocks)


def test_search_at_the_cloud_budget_edge(monkeypatch):
    # start level 32**3 rows; the next level, 32**4 rows, exceeds the budget
    fractal = rf.uniform_line(32, 0.02)
    N, s, opts = 33, 3.0, rf.SearchOptions(seed=1)
    assert _auto_depth(32, N) == 2
    assert 32 ** 3 <= DEFAULT_CLOUD_BUDGET < 32 ** 4
    with monkeypatch.context() as m:
        m.setattr(_Mesh, "block", _recursive_block)
        want = rf.local_search_minimize(fractal, N, s, opts)
    meshes = _spy_meshes(monkeypatch)
    got = rf.local_search_minimize(fractal, N, s, opts)
    assert got.words == want.words
    assert got.points.tobytes() == want.points.tobytes()
    assert got.record.energy.hex() == want.record.energy.hex()
    assert got.iterations == want.iterations
    assert got.record.energy == pytest.approx(2614403.7862452124, rel=1e-12)
    (mesh,) = meshes
    assert sorted(mesh._levels) == [2]


# ----------------------------------------------------------- squared distances

@pytest.mark.parametrize("p", [1, 2, 3])
def test_sq_dists_equals_the_per_coordinate_expression(p):
    rng = np.random.default_rng(p)
    for K, N in [(1, 1), (7, 300), (300, 7), (64, 1024), (0, 5), (5, 0), (0, 0)]:
        a = rng.uniform(-3.0, 3.0, size=(K, p))
        b = rng.uniform(-3.0, 3.0, size=(N, p)) * 10.0 ** rng.integers(-8, 8, size=(N, 1))
        got, want = _sq_dists(a, b), _reference_sq_dists(a, b)
        assert got.shape == want.shape == (K, N)
        assert got.tobytes() == want.tobytes()
    # a leading batch axis, as the cell screen forms its near-field kernel
    a, b = rng.uniform(size=(5, 9, p)), rng.uniform(size=(5, 4, p))
    want = np.stack([_reference_sq_dists(a[q], b[q]) for q in range(5)])
    assert _sq_dists(a, b).tobytes() == want.tobytes()
    assert _sq_dists(a, b[:, :0]).shape == (5, 9, 0)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_sq_dists_holds_at_most_two_result_sized_arrays(p):
    rng = np.random.default_rng(10 + p)
    # numpy's ufunc iterator may buffer up to getbufsize() elements per operand
    slack = 2 * np.getbufsize() * 8 + 8192
    for K, N in [(400, 400), (64, 1024), (3000, 7)]:
        a, b = rng.uniform(size=(K, p)), rng.uniform(size=(N, p))
        tracemalloc.start()
        try:
            d2 = _sq_dists(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= min(p, 2) * d2.nbytes + slack
