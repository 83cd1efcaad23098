import specband


def test_every_export_resolves_and_appears_once():
    assert len(specband.__all__) == len(set(specband.__all__))
    assert [name for name in specband.__all__ if not hasattr(specband, name)] == []
