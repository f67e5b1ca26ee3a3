import relalg


def test_every_public_name_resolves_once():
    # a stale entry would break ``from relalg import *``
    names = relalg.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(relalg, name)] == []
    namespace = {}
    exec("from relalg import *", namespace)
    assert set(names) <= set(namespace)
