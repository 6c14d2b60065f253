"""The package exports: ``lineint.__all__`` lists each public name once,
every listed name resolves, and a star import brings in exactly them."""

import types
from collections import Counter

import lineint


def test_all_has_no_duplicates():
    assert [n for n, k in Counter(lineint.__all__).items() if k > 1] == []


def test_every_listed_name_resolves():
    assert [n for n in lineint.__all__ if not hasattr(lineint, n)] == []


def test_every_public_name_is_listed():
    public = {n for n, x in vars(lineint).items()
              if not n.startswith("_") and not isinstance(x, types.ModuleType)}
    assert sorted(public - set(lineint.__all__)) == []


def test_star_import():
    namespace = {}
    exec("from lineint import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lineint.__all__)
