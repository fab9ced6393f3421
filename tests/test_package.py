import epimatch


def test_every_exported_name_resolves():
    missing = [name for name in epimatch.__all__ if not hasattr(epimatch, name)]
    assert missing == []
