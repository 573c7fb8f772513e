import json
from fractions import Fraction

import pytest

from tempiric import builtin
from tempiric.catalog import load, serialize


def half_gram_sp11():
    """Sp11 with every Gram entry halved: a rational Gram, gram_scale 2.

    A plain function, imported by the test modules, since their
    parametrize tables call it while tests are collected.
    """
    doc = serialize(builtin("Sp11"))
    doc["gram"] = [str(Fraction(v) / 2) for v in doc["gram"]]
    return load(json.dumps(doc))


@pytest.fixture(scope="session")
def sl2r():
    return builtin("SL2R")


@pytest.fixture(scope="session")
def so31():
    return builtin("SO31")


@pytest.fixture(scope="session")
def sp11():
    return builtin("Sp11")
