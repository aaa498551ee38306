"""SingularParams values: equality, hashing, repr and immutability."""

import copy
import pickle

import pytest

from singover import tables
from singover.params import SingularParams


def test_equal_pairs_hash_equal_and_share_one_store_key():
    a, b = SingularParams(5, 1), SingularParams(5, 1)
    assert a == b and hash(a) == hash(b) and a != SingularParams(5, 2)
    tables.clear_caches()
    tables.coefficients_theta(a, 10)
    tables.coefficients_theta(b, 20)
    assert list(tables._THETA) == [a]
    tables.clear_caches()


def test_params_equal_only_params():
    assert SingularParams(5, 1) != (5, 1)
    assert (5, 1) != SingularParams(5, 1)


def test_repr_names_the_fields():
    assert repr(SingularParams(5, 1)) == "SingularParams(k=5, i=1)"


def test_fields_refuse_assignment():
    params = SingularParams(5, 1)
    for name in ("k", "i", "other"):
        with pytest.raises(AttributeError):
            setattr(params, name, 2)
    with pytest.raises(AttributeError):
        del params.k
    assert (params.k, params.i) == (5, 1)


def test_copies_are_equal_values():
    params = SingularParams(7, 3)
    for twin in (pickle.loads(pickle.dumps(params)), copy.copy(params), copy.deepcopy(params)):
        assert twin == params and hash(twin) == hash(params)
