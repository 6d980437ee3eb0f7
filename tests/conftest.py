"""Inputs of the Chow and moduli computations, built once per test module.

Each fixture computes its number from the ones before it, as a `verify`
report does, so a test reads computed inputs and never retypes one.

The hypothesis profile ``ci`` (``pytest --hypothesis-profile=ci``) draws the
same examples on every run, keeps no example database and prints the
reproduction blob of a failure, so a failure on a CI runner reruns
identically anywhere.
"""

import pytest
from hypothesis import settings

from prym6 import chow, moduli

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)


@pytest.fixture(scope="module")
def P():
    return chow.ProjectiveBundle()


@pytest.fixture(scope="module")
def S(P):
    return P.base


@pytest.fixture(scope="module")
def blowup():
    return chow.BlowupRing()


@pytest.fixture(scope="module")
def table(blowup):
    return blowup.table


@pytest.fixture(scope="module")
def euler(P, blowup):
    return chow.euler_numbers(chow.koszul_chi_B(P), chow.kb_squared(blowup))


@pytest.fixture(scope="module")
def e_lambda():
    return moduli.lambda_degree_from_family(moduli.chi_of_Y_chain()["chi"])


@pytest.fixture(scope="module")
def curves(e_lambda, euler):
    e_prime = euler["singular_members"]
    return moduli.pencil_curve_numbers(
        e_lambda, e_prime, moduli.solve_double_line_count(e_lambda, e_prime),
        moduli.psi_degree_via_Z())
