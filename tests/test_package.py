"""The package's export list."""

import ffplanar


def test_every_exported_name_resolves():
    # a name in __all__ that the package lacks makes the star import raise
    namespace = {}
    exec("from ffplanar import *", namespace)
    assert len(set(ffplanar.__all__)) == len(ffplanar.__all__)
    for name in ffplanar.__all__:
        assert namespace[name] is getattr(ffplanar, name)
