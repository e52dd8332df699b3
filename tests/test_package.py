import irschain


def test_every_export_resolves_once():
    names = irschain.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(irschain, name)]
    assert missing == []
