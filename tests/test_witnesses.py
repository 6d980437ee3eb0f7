"""Cross-witnesses between the two halves of the package.

The Chow half (`chow`) computes numbers that the construction half
(`conicbundle`) must meet on every instance it certifies: the dimension of
the base system, the degree, multiplicities and genus of the discriminant
curve, and the dimension of the net.  The `verify` command loads neither
`conicbundle` nor `planesys`; this module loads both halves, so each number
is checked against the other half here.
"""

import pytest

from prym6 import chow
from prym6 import conicbundle as cb


@pytest.fixture(scope="module")
def instances():
    return [cb.construct_instance(seed) for seed in range(1, 21)]


@pytest.fixture(scope="module")
def gamma_class(S):
    # the discriminant of a conic bundle over S lies in |-2K_S|
    return -2 * S.canonical()


def test_base_system_has_the_riemann_roch_dimension(P):
    # h^0(O_P(2)) = chi(O_P(2)): the (2,2) forms through the four nodes
    assert cb.base_system(cb.STANDARD_NODES).dim == chow.hrr_chi(P, 2) == 16


def test_gamma_has_the_degree_of_its_class(S, gamma_class, instances):
    # the image in P^2 of a curve of class D on S has degree D.L
    degree = (gamma_class * S.L()).integrate()
    assert degree == 6
    for inst in instances:
        assert {sum(e) for e in inst.gamma.nums} == {degree}, inst.seed


def test_gamma_has_the_multiplicity_of_its_class_at_each_node(
        S, gamma_class, instances):
    # a curve of class D on S passes through the i-th blown-up point with
    # multiplicity D.E_i; at a certificate, a zero value and gradient make
    # the multiplicity at least 2 and a nonzero Hessian minor at most 2
    mults = [(gamma_class * S.E(i)).integrate() for i in range(1, 5)]
    assert mults == [2] * 4
    for inst in instances:
        certs = inst.node_certificates
        assert [c.point for c in certs] == list(cb.STANDARD_NODES)
        for cert in certs:
            assert all(g == 0 for g in cert.gradient), (inst.seed, cert.point)
            assert cert.hessian_minor != 0, (inst.seed, cert.point)


def test_gamma_has_the_genus_of_its_class(euler, instances):
    # gamma's singular points are exactly its four certified nodes, so it is
    # irreducible, and its geometric genus is the arithmetic genus of a plane
    # sextic less one per node; adjunction on S gives the same genus
    for inst in instances:
        d = sum(next(iter(inst.gamma.nums)))
        nodes = sum(cert.is_node for cert in inst.node_certificates)
        assert (d - 1) * (d - 2) // 2 - nodes == euler["g_C"] == 6, inst.seed


@pytest.mark.parametrize("seed", range(1, 6))
def test_sweep_net_has_the_expected_dimension(P, seed):
    # four fixed lines take 3 conditions each and the point (o, o) one
    net = cb.sweep(seed, 1)["net"]
    assert net.system.dim == chow.hrr_chi(P, 2) - 4 * 3 - 1 == 3
