"""The package's public names."""

import cantorslit


def test_star_import_resolves_every_name_in_all():
    # `from cantorslit import *` raises AttributeError on a stale entry
    namespace = {}
    exec("from cantorslit import *", namespace)
    assert set(cantorslit.__all__) <= set(namespace)
    assert len(set(cantorslit.__all__)) == len(cantorslit.__all__)
