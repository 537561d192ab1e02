from fractions import Fraction

import numpy as np
import pytest

from moufang import loops, paige
from moufang.fields import field_make
from moufang.paige import ZornMatrix
from moufang.permgrp import Perm, PermGroup


class Rationals:
    """The exact rational field, with the scalar operations cd_double uses:
    the doubling over it is the reference of cayley's integer structure
    constants."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a):
        return a == 0


QQ = Rationals()


def _dot(F, u, v):
    return F.add(F.add(F.mul(u[0], v[0]), F.mul(u[1], v[1])), F.mul(u[2], v[2]))


def zorn_mul_oracle(x, y):
    """Independent component-wise evaluation of the product formula, on the
    field's scalar operations."""
    F = x.field
    a, al, be, b = x.a, x.alpha, x.beta, x.b
    c, ga, de, d = y.a, y.alpha, y.beta, y.b

    def cross(u, v):
        return (F.sub(F.mul(u[1], v[2]), F.mul(u[2], v[1])),
                F.sub(F.mul(u[2], v[0]), F.mul(u[0], v[2])),
                F.sub(F.mul(u[0], v[1]), F.mul(u[1], v[0])))

    top = F.add(F.mul(a, c), _dot(F, al, de))
    cr1 = cross(be, de)
    upper = tuple(F.sub(F.add(F.mul(a, ga[i]), F.mul(d, al[i])), cr1[i])
                  for i in range(3))
    cr2 = cross(al, ga)
    lower = tuple(F.add(F.add(F.mul(c, be[i]), F.mul(b, de[i])), cr2[i])
                  for i in range(3))
    bottom = F.add(_dot(F, be, ga), F.mul(b, d))
    return ZornMatrix(F, top, upper, lower, bottom)


def zorn_norm_oracle(x):
    """ab - alpha.beta on the field's scalar operations."""
    F = x.field
    return F.sub(F.mul(x.a, x.b), _dot(F, x.alpha, x.beta))


@pytest.fixture(scope="session")
def gf2():
    return field_make(2)


@pytest.fixture(scope="session")
def gf3():
    return field_make(3)


@pytest.fixture(scope="session")
def gf5():
    return field_make(5)


@pytest.fixture(scope="session")
def gf7():
    return field_make(7)


@pytest.fixture(scope="session")
def gf4():
    return field_make(2, 2)


@pytest.fixture(scope="session")
def m2():
    return paige.paige_loop(2)


@pytest.fixture(scope="session")
def m3():
    return paige.paige_loop(3)


@pytest.fixture(scope="session")
def u3():
    return paige.unit_loop(3)


@pytest.fixture(scope="session")
def s3_group():
    return PermGroup(3, [Perm([1, 0, 2]), Perm([0, 2, 1])])


@pytest.fixture(scope="session")
def s3_loop(s3_group):
    return loops.loop_from_perm_group(s3_group)


@pytest.fixture()
def rng():
    return np.random.default_rng(0x5EED)


# 5-element loop with two-sided inverses that is not Moufang; found by
# scanning reduced 5x5 Latin squares, frozen here
NON_MOUFANG_5 = np.array([
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
], dtype=np.int32)


@pytest.fixture(scope="session")
def non_moufang_loop():
    return loops.FiniteLoop(5, table=NON_MOUFANG_5)


# 5-element loop where 2 has right inverse 3 (2*3 = 0) but left inverse 4
# (4*2 = 0); found by scanning reduced 5x5 Latin squares, frozen here
ONE_SIDED_5 = np.array([
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
], dtype=np.int32)


@pytest.fixture(scope="session")
def one_sided_loop():
    return loops.FiniteLoop(5, table=ONE_SIDED_5)
