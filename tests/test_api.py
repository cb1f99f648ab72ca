import subgrid_dg


def test_every_public_name_resolves():
    # a deleted export must not leave a dangling entry in __all__
    assert len(set(subgrid_dg.__all__)) == len(subgrid_dg.__all__)
    missing = [name for name in subgrid_dg.__all__ if not hasattr(subgrid_dg, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from subgrid_dg import *", namespace)
    assert set(subgrid_dg.__all__) <= namespace.keys()
