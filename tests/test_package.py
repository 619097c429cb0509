import chaosmask


def test_every_export_resolves():
    missing = [name for name in chaosmask.__all__ if not hasattr(chaosmask, name)]
    assert not missing
    assert len(set(chaosmask.__all__)) == len(chaosmask.__all__)
