import pytest

from udfield.numberfield import compositum_multiquadratic, detect_cm, nf_new
from udfield.polynomials import make_poly


@pytest.fixture(scope="session")
def gaussian():
    return nf_new(make_poly([1, 0, 1]), label="Q(i)")


@pytest.fixture(scope="session")
def gaussian_cm(gaussian):
    return detect_cm(gaussian)


@pytest.fixture(scope="session")
def qsqrt_m5():
    return nf_new(make_poly([5, 0, 1]), label="Q(sqrt(-5))")


@pytest.fixture(scope="session")
def qsqrt_m5_cm(qsqrt_m5):
    return detect_cm(qsqrt_m5)


@pytest.fixture(scope="session")
def sqrt5_field():
    return nf_new(make_poly([-5, 0, 1]), label="Q(sqrt(5))")


@pytest.fixture(scope="session")
def deg4():
    return compositum_multiquadratic([5, -1], label="Q(sqrt5,i)")


@pytest.fixture(scope="session")
def deg4_cm(deg4):
    return detect_cm(deg4)


@pytest.fixture(scope="session")
def deg8_cm():
    return detect_cm(compositum_multiquadratic([5, 13, -1], label="Q(sqrt5,sqrt13,i)"))
