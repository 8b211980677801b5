import pytest

from parahoric.chevalley import default_sign_table
from parahoric.groups.cosets import FlagSpace
from parahoric.groups.group import build_group


@pytest.fixture(scope="session")
def signs_f4():
    return default_sign_table("F", 4)


@pytest.fixture(scope="session")
def signs_e8():
    return default_sign_table("E", 8)


@pytest.fixture(scope="session")
def sl2_9():
    return build_group("A1", "sc", 3, 2)


@pytest.fixture(scope="session")
def pgl2_9():
    return build_group("A1", "adjoint", 3, 2)


@pytest.fixture(scope="session")
def sl2_25():
    return build_group("A1", "sc", 5, 2)


@pytest.fixture(scope="session")
def flags_sl2_25(sl2_25):
    return FlagSpace(sl2_25)


@pytest.fixture(scope="session")
def flags_sl2_9(sl2_9):
    return FlagSpace(sl2_9)


@pytest.fixture(scope="session")
def flags_pgl2_9(pgl2_9):
    return FlagSpace(pgl2_9)


@pytest.fixture(scope="session")
def pgl3_25():
    return build_group("A2", "adjoint", 5, 2)


@pytest.fixture(scope="session")
def flags_pgl3_25(pgl3_25):
    return FlagSpace(pgl3_25)


@pytest.fixture(scope="session")
def sl3_25():
    return build_group("A2", "sc", 5, 2)


@pytest.fixture(scope="session")
def flags_sl3_25(sl3_25):
    return FlagSpace(sl3_25)


@pytest.fixture(scope="session")
def sl3_27():
    return build_group("A2", "sc", 3, 3)


@pytest.fixture(scope="session")
def flags_sl3_27(sl3_27):
    return FlagSpace(sl3_27)


@pytest.fixture(scope="session")
def sp4_9():
    return build_group("C2", "sc", 3, 2)


@pytest.fixture(scope="session")
def flags_sp4_9(sp4_9):
    return FlagSpace(sp4_9)
