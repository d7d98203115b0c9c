import modnet


def test_public_names_are_sorted_unique_and_resolve():
    names = modnet.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(modnet, name), f"stale __all__ entry {name!r}"
