"""The package's public names: `coupledfp.__all__` is the whole public API."""

import inspect

import coupledfp


def test_all_lists_every_public_name_once():
    exported = coupledfp.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(coupledfp, name), name
    public = {
        name
        for name, value in vars(coupledfp).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(exported) == public
