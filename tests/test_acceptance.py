"""Acceptance suite: the ten headline claims, one printed line each.

Every comparison is exact rational equality.  The whole file is budgeted to
run in well under a minute.
"""

import random
from fractions import Fraction

from prym6 import chow, conicbundle as cb, moduli
from prym6.cli import run_checks
from prym6.exactalg import QMatrix

SEEDS = range(1, 21)


def _announce(number: int, description: str, capfd):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            with capfd.disabled():
                print(f"acceptance {number:02d} {verdict}  {description}",
                      flush=True)
            return False

    return _Reporter()


def test_criterion_01_dimension_ladder(capfd):
    with _announce(1, "dimension ladder 36 -> 16 -> ... -> 1 over 20 seeds", capfd):
        assert len(cb.XY_MONOMIALS) == 36
        assert cb.base_system(cb.STANDARD_NODES).dim == 16
        for seed in SEEDS:
            rng = random.Random(seed)
            lines = [cb.random_line_in_fiber(rng) for _ in range(5)]
            sys_ = cb.base_system(cb.STANDARD_NODES)
            dims = [sys_.dim]
            for lf in lines:
                sys_ = cb.impose_line(sys_, lf)
                dims.append(sys_.dim)
            assert dims == [16, 13, 10, 7, 4, 1], f"seed {seed}: {dims}"
            # one cut by all 15 line rows gives the ladder's basis exactly
            assert sys_ == cb.zeta(lines)[1], f"seed {seed}"


def test_criterion_02_degree_of_double_cover(capfd, blowup, P):
    with _announce(2, "degree 2 of the half-anticanonical map, two routes", capfd):
        blowup_route, segre_route = chow.verify_deg_h_two_ways(blowup, P)
        assert blowup_route == 2
        assert segre_route == 2
        # the Segre route is c1^2 - c2 = 5 - 3 on the nose
        assert P.c1.pairing(P.c1) - P.c2 == 2


def test_criterion_03_blowup_table(capfd, table):
    with _announce(3, "exceptional intersection table on the blown-up bundle", capfd):
        assert table[(4, 0, 0, 0)] == -4
        assert table[(3, 1, 0, 0)] == 4
        assert table[(3, 0, 1, 0)] == 0
        assert table[(3, 0, 0, 1)] == 0
        assert table[(2, 2, 0, 0)] == 0
        assert table[(2, 0, 2, 0)] == 0
        assert table[(2, 0, 0, 2)] == 0


def test_criterion_04_canonical_and_chi(capfd, blowup, P, euler):
    with _announce(4, "K_P, K_B^2 = 8, chi(O_B) = 6, c2(B) = 64", capfd):
        kp, _ = chow.canonical_classes(blowup)
        assert kp == blowup.divisor({"H1": -3, "H2": -3, "N": 3})
        assert chow.kb_squared(blowup) == 8
        assert chow.koszul_chi_B(P) == 6
        e = euler
        assert e["e_B"] == 64
        assert 12 * e["chi_B"] == e["K_B^2"] + e["e_B"]


def test_criterion_05_euler_numbers_and_pencil_count(capfd, euler):
    with _announce(5, "Euler numbers and the 77 singular pencil members", capfd):
        e = euler
        assert e["e_S"] == 7
        assert e["g_C"] == 6
        assert e["e_C"] == -10
        assert e["e_Q"] == 4
        assert e["e_Q0"] == 5
        assert e["e_P"] == 21
        assert e["singular_members"] == 77
        assert e["singular_members"] == e["e_P"] + e["e_B"] - 2 * e["e_Q"]


def test_criterion_06_double_line_count(capfd, euler):
    with _announce(6, "chi-chain and relation give 32 double lines", capfd):
        chain = moduli.chi_of_Y_chain()
        assert chain["omega_class"] == (3, 1)
        assert chain["h0_omega_ambient"] == 20
        assert chain["chi"] == 13
        e_lambda = moduli.lambda_degree_from_family(chain["chi"])
        assert e_lambda == 18
        e_prime = euler["singular_members"]
        assert moduli.solve_double_line_count(e_lambda, e_prime) == 32
        assert moduli.solve_double_line_count(
            e_lambda, e_prime, unreduced=True) == 32


def test_criterion_07_degree_nine_lemma(capfd):
    with _announce(7, "degree-9 intersection lemma and psi-degree 9", capfd):
        assert moduli.degree_nine_lemma() == 9
        assert moduli.psi_degree_via_Z() == 9


def test_criterion_08_triple_pencil_numbers(capfd, curves):
    with _announce(8, "triple-pencil numbers (54, 231, 0, 96) = 3x single", capfd):
        single, triple = curves["single"], curves["triple"]
        keys = ("lambda", "delta0_prime", "delta0_dblprime", "delta0_ram")
        assert tuple(triple[k] for k in keys) == (54, 231, 0, 96)
        assert all(triple[k] == 3 * single[k] for k in keys)


def test_criterion_09_slope_pipeline(capfd, curves):
    with _announce(9, "slope bounds 53/10 and 13/2", capfd):
        sweeping = curves["sweeping"]
        assert moduli.slope_bound("full", sweeping) == (30, 159, Fraction(53, 10))
        lam, boundary, bound = moduli.slope_bound("u4", sweeping)
        assert (lam, boundary, bound) == (30, 195, Fraction(13, 2))


def test_criterion_10_constructive_certificates(capfd):
    with _announce(10, "full nodality certificates over 20 seeds", capfd):
        for seed in SEEDS:
            inst = cb.construct_instance(seed)
            assert len(inst.node_certificates) == 4
            for cert in inst.node_certificates:
                assert cert.is_node
            for u, y in zip(inst.nodes, inst.fiber_singular_points):
                assert QMatrix.from_ints(inst.A.evaluated(u)).rank() == 2
                assert inst.Q.evaluate({"x": u, "y": y}) == 0
            for lf in inst.marked_lines:
                cb.residual_line(inst.A, lf)  # exact division must succeed


def test_verification_suites_all_green():
    # not one of the ten criteria, but the CLI must agree with all of them
    report = run_checks("all")
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]
