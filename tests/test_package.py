"""The package's export list."""

import tfqkd


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from tfqkd import *", namespace)
    assert len(set(tfqkd.__all__)) == len(tfqkd.__all__)
    for name in tfqkd.__all__:
        assert namespace[name] is getattr(tfqkd, name)
