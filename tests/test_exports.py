"""The public surface: every exported name resolves, none twice."""

import prframes


def test_all_names_resolve():
    for name in prframes.__all__:
        getattr(prframes, name)


def test_all_has_no_duplicates():
    assert len(prframes.__all__) == len(set(prframes.__all__))
