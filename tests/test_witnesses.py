"""Cross-witnesses between the two halves of the package.

The Chow half (`chow`) computes numbers that the construction half
(`conicbundle`) must meet on every instance it certifies: the dimension of
the base system and of its analogues of multiplicity 1, 3 and 4 at the
nodes, the degree, multiplicities and genus of the discriminant curve, and
the dimension of the net.  The `verify` command loads neither
`conicbundle` nor `planesys`; this module loads both halves, so each number
is checked against the other half here.
"""

from itertools import product
from math import comb

import bundle_oracle
import pytest
from test_planesys import _rank_mod

from prym6 import chow
from prym6 import conicbundle as cb
from prym6 import net as nt
from prym6 import planesys as ps


@pytest.fixture(scope="module")
def instances():
    return [cb.construct_instance(seed) for seed in range(1, 21)]


@pytest.fixture(scope="module")
def gamma_class(S):
    # the discriminant of a conic bundle over S lies in |-2K_S|
    return -2 * S.canonical()


@pytest.mark.parametrize("d", range(1, 5))
def test_base_system_has_the_riemann_roch_dimension(P, d):
    # h^0(O_P(d)) = chi(O_P(d)): the (d, d)-forms that vanish to order d at
    # (u, u) for each standard node u, the base system for d = 2.  Order d
    # is every partial of order at most d - 1 in the chart variables, as
    # `node_condition_rows` takes them for d = 2.  A rank mod q is at most
    # the rank over Q, so full rank mod q bounds the dimension over Q from
    # above by columns - rows, and the count of rows bounds it from below
    q = ps.WORD_PRIMES[0]
    rows = []
    for u in cb.STANDARD_NODES:
        k = cb._chart_index(u)
        partials = {e: ps.p3_weights(u, d, e)
                    for e in product(range(d), repeat=3)
                    if sum(e) < d and not e[k]}
        rows += [[a * b % q for a in partials[ex] for b in partials[ey]]
                 for ex, ey in product(partials, repeat=2)
                 if sum(ex) + sum(ey) < d]
    columns, conditions = comb(d + 2, 2) ** 2, 4 * comb(d + 3, 4)
    assert (len(rows[0]), len(rows)) == (columns, conditions)
    assert _rank_mod(rows, q) == conditions
    dim = columns - conditions
    assert dim == chow.hrr_chi(P, d) == bundle_oracle.hrr_chi(
        bundle_oracle.ProjectiveBundleRing(), d) == {1: 5, 2: 16, 3: 40, 4: 85}[d]
    if d == 2:
        assert cb.base_system(cb.STANDARD_NODES).dim == dim


def test_gamma_has_the_degree_of_its_class(S, gamma_class, instances):
    # the image in P^2 of a curve of class D on S has degree D.L
    degree = gamma_class.pairing(S.L())
    assert degree == 6
    for inst in instances:
        assert {sum(e) for e in inst.gamma.nums} == {degree}, inst.seed


def test_gamma_has_the_multiplicity_of_its_class_at_each_node(
        S, gamma_class, instances):
    # a curve of class D on S passes through the i-th blown-up point with
    # multiplicity D.E_i; at a certificate, a zero value and gradient make
    # the multiplicity at least 2 and a nonzero Hessian minor at most 2
    mults = [gamma_class.pairing(S.E(i)) for i in range(1, 5)]
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
    net = nt.sweep(seed, 1)["net"]
    assert net.system.dim == chow.hrr_chi(P, 2) - 4 * 3 - 1 == 3
