import igcsim


def test_all_names_resolve():
    missing = [name for name in igcsim.__all__ if not hasattr(igcsim, name)]
    assert missing == []
    assert len(set(igcsim.__all__)) == len(igcsim.__all__)
