"""Tests of the benchmark's oracles against hand-worked cases.

Run from the repository root:  python3 -m pytest bench
"""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as O  # noqa: E402
import workloads  # noqa: E402

F = Fraction


def test_milnor_orlik_du_val():
    assert O.milnor_orlik(O.du_val_weights("E", 8)) == 8
    assert O.milnor_orlik(O.du_val_weights("A", 11)) == 11
    assert [O.milnor_orlik(O.du_val_weights("D", n)) for n in (4, 7, 11)] == [4, 7, 11]
    assert O.milnor_orlik(O.du_val_weights("E", 6)) == 6
    assert O.milnor_orlik(O.du_val_weights("E", 7)) == 7


def test_milnor_orlik_brieskorn_pham():
    # x^3 + y^4 + z^5: mu = 2 * 3 * 4 = 24, and tau = mu (quasi-homogeneous)
    assert O.milnor_orlik(O.brieskorn_weights((3, 4, 5))) == 24
    assert O.milnor_orlik(O.brieskorn_weights((2, 2, 20))) == 19


def test_du_val_weights_make_the_normal_form_homogeneous():
    for family, index in [("A", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]:
        weights = O.du_val_weights(family, index)
        for mono in O.du_val_normal_form(family, index):
            assert sum(w * e for w, e in zip(weights, mono)) == 1


def test_exceptional_unimodal_numbers():
    assert O.exceptional_numbers("E12") == (12, 11)
    assert O.exceptional_numbers("Z11") == (11, 10)
    assert O.exceptional_numbers("S12") == (12, 11)
    assert O.exceptional_numbers("U12") == (12, 11)
    for principal, modulus, weights in O.EXCEPTIONAL_UNIMODAL.values():
        assert all(sum(w * e for w, e in zip(weights, m)) == 1 for m in principal)
        assert sum(w * e for w, e in zip(weights, modulus)) > 1


def test_non_isolated_germs():
    assert O.singular_along_z_axis({(2, 0, 0): F(1), (0, 2, 0): F(1)})
    assert O.singular_along_z_axis({(1, 1, 1): F(1)})
    assert not O.singular_along_z_axis({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 3): F(1)})


def test_t1_basis_of_the_quotient_cubic():
    # x^3 + y^3 + z^3 under 1/2(1,1,1): odd monomials of {x^i y^j z^k : i, j, k < 2}
    assert O.brieskorn_t1_basis((3, 3, 3), (1, 1, 1), 2, 12) == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)
    }
    # below degree 3 the class x*y*z is cut off by m^3
    assert O.brieskorn_t1_basis((3, 3, 3), (1, 1, 1), 2, 3) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    # trivial action: the whole Milnor algebra of x^2 + y^3 + z^4, mu = 6
    assert len(O.brieskorn_t1_basis((2, 3, 4), (0, 0, 0), 1, 12)) == 6


def test_in_m2_image_linear_part():
    f = {(2, 0, 0): F(1), (0, 3, 0): F(1), (0, 0, 4): F(1)}
    assert O.in_m2_image(f, {(1, 0, 0): F(5), (0, 2, 0): F(1)}, 3)
    assert not O.in_m2_image(f, {(0, 1, 0): F(1)}, 3)
    assert not O.in_m2_image(f, {(0, 0, 0): F(1), (2, 0, 0): F(1)}, 3)
    # f = x*y: the partials y and x span every linear form
    assert O.in_m2_image({(1, 1, 0): F(1), (0, 0, 3): F(1)}, {(1, 0, 0): F(2), (0, 1, 0): F(-1)}, 3)
    assert not O.in_m2_image({(1, 1, 0): F(1), (0, 0, 3): F(1)}, {(0, 0, 1): F(1)}, 3)


def test_weighted_projective_data():
    # X_15 in P(1,2,3,5,5): -K = O(1) with the single section x
    weights = (1, 2, 3, 5, 5)
    assert O.anticanonical_degree(weights, 15) == 1
    assert O.count_monomials(weights, 1) == 1
    assert O.count_monomials((1, 1, 1, 1, 1), 1) == 5
    assert O.count_monomials((1, 1, 2), 2) == 4  # x^2, x*y, y^2, z
    assert O.wellformed(weights)
    assert not O.wellformed((1, 2, 2, 2, 2))


def test_vertex_rule_on_x15():
    # x^15 + x*y^7 + z^5 + t^3 + w^3 in P(1,2,3,5,5)
    terms = {(15, 0, 0, 0, 0): F(1), (1, 7, 0, 0, 0): F(1), (0, 0, 5, 0, 0): F(1),
             (0, 0, 0, 3, 0): F(1), (0, 0, 0, 0, 3): F(1)}
    weights = (1, 2, 3, 5, 5)
    assert O.vertex_expectation(terms, weights, 0) == {"on_hypersurface": False}
    assert O.vertex_expectation(terms, weights, 1) == {
        "on_hypersurface": True, "quasi_smooth": True, "eliminated_index": 0, "type": "1/2(1,1,1)"
    }
    assert O.vertex_expectation(terms, weights, 2) == {"on_hypersurface": False}


def test_kawamata_blow_up():
    assert O.kawamata_discrepancy(5) == F(1, 5)
    # x*y + z^5 on 1/5(2,3,1) has weight 1 for v = (2,3,1)/5
    elephant = {(1, 1, 0): F(1), (0, 0, 5): F(1)}
    assert O.weighted_order(elephant, (2, 3, 1), 5) == 1
    assert O.kawamata_discrepancy(5) - O.weighted_order(elephant, (2, 3, 1), 5) == F(-4, 5)


def test_linear_change_and_render():
    changed = O.linear_change({(2, 0, 0): F(1)}, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert changed == {(2, 0, 0): F(1), (1, 1, 0): F(2), (0, 2, 0): F(1)}
    assert O.render({(1, 2, 0): F(-3, 2)}, ("x", "y", "z")) == "(-3/2)*x*y^2"


def test_inputs_depend_on_the_seed_alone():
    def inputs(name, seed):
        return [op.args for op in workloads.build(name, seed)]

    for name in workloads.WORKLOADS:
        assert inputs(name, 3) == inputs(name, 3)
        assert inputs(name, 3) != inputs(name, 4)


def test_one_round_matches_the_oracles():
    for name in ("local-algebra", "cli-inventory"):
        for op in workloads.build(name, 1):
            assert op.check(op.call()), (name, op.kind, op.args)
