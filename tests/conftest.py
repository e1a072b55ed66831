import pathlib

import pytest

from langx.parser import parse_spec

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "golden"


# The criterion-12 mutant: langfunny's derived machine with the order rules
# of doublyApply's third and fourth arguments pointing one frame back.
SWAPPED_ORDER_TARGETS = {
    "<e3 , (doublyApply_3 v1 v2 e4 k)>": "<e3 , (doublyApply_2 v1 v2 e4 k)>",
    "<e4 , (doublyApply_4 v1 v2 v3 k)>": "<e4 , (doublyApply_3 v1 v2 v3 k)>",
}


def swapped_order_machine_text():
    text = (GOLDEN / "langfunny.ck.lang").read_text()
    for needle, replacement in SWAPPED_ORDER_TARGETS.items():
        assert text.count(needle) == 1
        text = text.replace(needle, replacement)
    return text


def load(name):
    return parse_spec((FIXTURES / f"{name}.lang").read_text(),
                      filename=f"{name}.lang")


@pytest.fixture(scope="session")
def stlc():
    return load("stlc")


@pytest.fixture(scope="session")
def stlc_consts():
    return load("stlc_consts")


@pytest.fixture(scope="session")
def references():
    return load("references")


@pytest.fixture(scope="session")
def app2():
    return load("app2")


@pytest.fixture(scope="session")
def langfunny():
    return load("langfunny")


@pytest.fixture(scope="session")
def boollist():
    return load("boollist")
