import types

import hlskit


def test_all_lists_exactly_the_public_names():
    names = hlskit.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    public = {
        name
        for name, obj in vars(hlskit).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(names) == public
