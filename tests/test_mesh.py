from functools import lru_cache

import numpy as np
import pytest

from subgrid_dg.basis import reference_element
from subgrid_dg.mesh import Mesh, build_uniform_mesh


def test_uniform_mesh_geometry():
    mesh = build_uniform_mesh(0.0, 2.0, 4, 3)
    assert mesh.a == 0.0
    assert mesh.b == 2.0
    assert mesh.n_elements == 4
    assert mesh.n_sub == 3
    np.testing.assert_allclose(mesh.widths, 0.5)
    np.testing.assert_allclose(mesh.element_boundaries, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_element_bounds():
    mesh = build_uniform_mesh(-1.0, 1.0, 4, 2)
    assert mesh.element_bounds(0) == (-1.0, -0.5)
    assert mesh.element_bounds(3) == (0.5, 1.0)
    with pytest.raises(IndexError):
        mesh.element_bounds(4)
    with pytest.raises(IndexError):
        mesh.element_bounds(-1)


def test_faces_split_each_element_into_equal_subcells():
    mesh = build_uniform_mesh(0.0, 1.0, 2, 4)
    np.testing.assert_allclose(mesh.faces, np.linspace(0.0, 1.0, 9), rtol=0, atol=1e-15)
    assert mesh.faces[0] == 0.0 and mesh.faces[4] == 0.5 and mesh.faces[-1] == 1.0


NONUNIFORM = np.array([-1.0, -0.7, -0.1, 0.05, 0.3, 1.0])


@pytest.mark.parametrize("p, n", [(0, 1), (2, 5), (4, 8)])
def test_nodes_and_faces_are_the_element_maps(p, n):
    # bit-identical to the element maps written out, in this order of operations
    mesh = Mesh(element_boundaries=NONUNIFORM, n_sub=n)
    ref = reference_element(p, n)
    xl, h = NONUNIFORM[:-1], np.diff(NONUNIFORM)
    xq = xl[:, None, None] + 0.5 * (ref.quad_ref + 1.0)[None] * h[:, None, None]
    sub = xl[:, None] + 0.5 * (ref.sub_edges[None, :-1] + 1.0) * h[:, None]
    assert np.array_equal(mesh.nodes(ref.quad_ref), xq)
    assert np.array_equal(mesh.faces, np.append(sub.ravel(), 1.0))
    assert mesh.faces.shape == (5 * n + 1,)
    assert np.array_equal(mesh.faces[::n], NONUNIFORM)
    assert mesh.nodes(0.0).shape == (5,)
    assert mesh.nodes(np.zeros((2, 3))).shape == (5, 2, 3)


@pytest.mark.parametrize("p, n", [(0, 1), (2, 5), (4, 8)])
def test_reference_coords_inverts_nodes(p, n):
    # every node maps back to its reference point within 4 ulp of [-1, 1]
    # (the round-off of x - x_e grows with |x| / h_e, at most 7 here), row e
    # of the result on element e
    mesh = Mesh(element_boundaries=NONUNIFORM, n_sub=n)
    ref = reference_element(p, n)
    for xi in (ref.quad_ref, ref.sub_edges, np.linspace(-1.0, 1.0, 1001)):
        back = mesh.reference_coords(mesh.nodes(xi))
        assert back.shape == (5,) + xi.shape
        assert np.max(np.abs(back - xi)) <= 4 * np.spacing(1.0)


def test_element_of_takes_half_open_intervals_and_b_in_the_last():
    mesh = Mesh(element_boundaries=NONUNIFORM, n_sub=3)
    assert mesh.element_of(-1.0) == 0
    assert mesh.element_of(-0.7) == 1             # an interior face opens the next element
    assert mesh.element_of(np.nextafter(-0.7, -1.0)) == 0
    assert mesh.element_of(0.2) == 3
    assert mesh.element_of(1.0) == 4              # b lies in the last element
    x = np.array([-1.0, -0.4, -0.1, 0.05, 0.31, 1.0])
    assert mesh.element_of(x).tolist() == [0, 1, 2, 3, 4, 4]
    assert mesh.element_of([]).size == 0
    # each node of an element lies in it
    nodes = mesh.nodes(reference_element(3, 3).quad_ref)
    assert np.array_equal(mesh.element_of(nodes),
                          np.broadcast_to(np.arange(5)[:, None, None], nodes.shape))


@pytest.mark.parametrize("x", [-1.0000001, 1.0000001, np.nan, [0.0, 2.0]])
def test_element_of_rejects_x_outside_the_mesh(x):
    mesh = Mesh(element_boundaries=NONUNIFORM, n_sub=3)
    with pytest.raises(ValueError, match="outside the mesh"):
        mesh.element_of(x)


def test_nonuniform_boundaries_accepted():
    mesh = Mesh(element_boundaries=np.array([0.0, 0.1, 0.5, 1.0]), n_sub=2)
    assert mesh.n_elements == 3
    np.testing.assert_allclose(mesh.widths, [0.1, 0.4, 0.5])


def test_meshes_compare_and_hash_by_identity():
    mesh, twin = build_uniform_mesh(0.0, 1.0, 4, 2), build_uniform_mesh(0.0, 1.0, 4, 2)
    assert mesh == mesh and mesh != twin
    assert {mesh, twin, mesh} == {mesh, twin}

    @lru_cache(maxsize=None)
    def last_face(m: Mesh) -> float:
        calls.append(m)
        return float(m.faces[-1])

    calls = []
    assert last_face(mesh) == last_face(mesh) == last_face(twin) == 1.0
    assert calls == [mesh, twin]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(element_boundaries=np.array([0.0]), n_sub=1),
        dict(element_boundaries=np.array([0.0, 1.0, 0.5]), n_sub=1),
        dict(element_boundaries=np.array([0.0, 0.0, 1.0]), n_sub=1),
        dict(element_boundaries=np.array([0.0, 1.0]), n_sub=0),
    ],
)
def test_invalid_mesh_rejected(kwargs):
    with pytest.raises(ValueError):
        Mesh(**kwargs)


@pytest.mark.parametrize("args", [(1.0, 0.0, 4, 2), (0.0, 1.0, 0, 2), (0.0, 1.0, 4, 0)])
def test_invalid_uniform_mesh_rejected(args):
    with pytest.raises(ValueError):
        build_uniform_mesh(*args)
