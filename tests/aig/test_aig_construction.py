"""Tests for AIG construction, structural hashing and basic queries."""

import pickle

import pytest

from repro.aig.aig import Aig, AigError, NodeType
from repro.aig.literals import CONST0, CONST1, lit_not, lit_var
from repro.aig.simulate import output_bits


def test_empty_aig():
    aig = Aig("empty")
    assert aig.size == 0
    assert aig.num_pis() == 0
    assert aig.num_pos() == 0
    assert aig.depth() == 0
    aig.check()


def test_add_pi_returns_positive_literal():
    aig = Aig()
    literal = aig.add_pi("x")
    assert literal % 2 == 0
    assert aig.is_pi(lit_var(literal))
    assert aig.pi_name(0) == "x"


def test_structural_hashing_merges_identical_gates():
    aig = Aig()
    x, y = aig.add_pi(), aig.add_pi()
    first = aig.add_and(x, y)
    second = aig.add_and(y, x)  # commutative
    assert first == second
    assert aig.size == 1


def test_trivial_simplifications():
    aig = Aig()
    x = aig.add_pi()
    assert aig.add_and(x, CONST0) == CONST0
    assert aig.add_and(CONST0, x) == CONST0
    assert aig.add_and(x, CONST1) == x
    assert aig.add_and(x, x) == x
    assert aig.add_and(x, lit_not(x)) == CONST0
    assert aig.size == 0


def test_make_or_uses_de_morgan(tiny_aig):
    # f = (x & y) | (x & z): three AND nodes in total.
    assert tiny_aig.size == 3
    assert tiny_aig.num_pos() == 1


def test_make_xor_truth_table():
    aig = Aig()
    x, y = aig.add_pi(), aig.add_pi()
    aig.add_po(aig.make_xor(x, y), "xor")
    values = [output_bits(aig, [a, b])[0] for a in (0, 1) for b in (0, 1)]
    assert values == [0, 1, 1, 0]


def test_make_xnor_and_nand_nor():
    aig = Aig()
    x, y = aig.add_pi(), aig.add_pi()
    aig.add_po(aig.make_xnor(x, y), "xnor")
    aig.add_po(aig.make_nand(x, y), "nand")
    aig.add_po(aig.make_nor(x, y), "nor")
    rows = {
        (0, 0): (1, 1, 1),
        (0, 1): (0, 1, 0),
        (1, 0): (0, 1, 0),
        (1, 1): (1, 0, 0),
    }
    for (a, b), expected in rows.items():
        assert tuple(output_bits(aig, [a, b])) == expected


def test_make_mux():
    aig = Aig()
    s, t, f = aig.add_pi("s"), aig.add_pi("t"), aig.add_pi("f")
    aig.add_po(aig.make_mux(s, t, f), "y")
    assert output_bits(aig, [1, 1, 0])[0] == 1
    assert output_bits(aig, [1, 0, 1])[0] == 0
    assert output_bits(aig, [0, 1, 0])[0] == 0
    assert output_bits(aig, [0, 0, 1])[0] == 1


def test_nary_constructors_handle_edge_cases():
    aig = Aig()
    x = aig.add_pi()
    assert aig.make_and_n([]) == CONST1
    assert aig.make_or_n([]) == CONST0
    assert aig.make_xor_n([]) == CONST0
    assert aig.make_and_n([x]) == x
    assert aig.make_or_n([x]) == x


def test_nary_and_matches_reference():
    aig = Aig()
    inputs = [aig.add_pi() for _ in range(5)]
    aig.add_po(aig.make_and_n(inputs), "all")
    assert output_bits(aig, [1] * 5)[0] == 1
    assert output_bits(aig, [1, 1, 0, 1, 1])[0] == 0


def test_fanout_tracking(tiny_aig):
    x_node = tiny_aig.pis()[0]
    # x feeds both AND gates.
    assert tiny_aig.fanout_count(x_node) == 2


def test_po_reference_counting():
    aig = Aig()
    x, y = aig.add_pi(), aig.add_pi()
    g = aig.add_and(x, y)
    aig.add_po(g)
    aig.add_po(lit_not(g))
    assert aig.po_ref_count(lit_var(g)) == 2
    assert aig.fanout_count(lit_var(g)) == 2


def test_levels_and_depth():
    aig = Aig()
    x, y, z = aig.add_pi(), aig.add_pi(), aig.add_pi()
    g1 = aig.add_and(x, y)
    g2 = aig.add_and(g1, z)
    aig.add_po(g2)
    assert aig.level(lit_var(g1)) == 1
    assert aig.level(lit_var(g2)) == 2
    assert aig.depth() == 2


def _three_pi_two_and():
    aig = Aig("p")
    x, y, z = aig.add_pi(), aig.add_pi(), aig.add_pi()
    aig.add_po(aig.add_and(aig.add_and(x, y), z))
    return aig


def test_pickle_is_canonical_regardless_of_level_queries():
    queried, untouched = _three_pi_two_and(), _three_pi_two_and()
    assert queried.depth() == 2
    assert pickle.dumps(queried) == pickle.dumps(untouched)
    # Levels are rebuilt after unpickling and the bytes do not change.
    clone = pickle.loads(pickle.dumps(queried))
    assert pickle.dumps(clone) == pickle.dumps(untouched)
    assert clone.depth() == 2
    assert pickle.dumps(clone) == pickle.dumps(untouched)
    # An edit straight after unpickling, before any level query.
    fresh = pickle.loads(pickle.dumps(untouched))
    x, _, z = fresh.pi_literals()
    assert fresh.level(lit_var(fresh.add_and(x, lit_not(z)))) == 1
    assert fresh.depth() == 2



def test_check_rejects_bad_literal():
    aig = Aig()
    aig.add_pi()
    with pytest.raises(AigError):
        aig.add_and(2, 999)


def test_node_type_queries(tiny_aig):
    assert tiny_aig.node_type(0) == NodeType.CONST
    assert tiny_aig.is_const(0)
    pi = tiny_aig.pis()[0]
    assert tiny_aig.is_pi(pi)
    and_node = next(iter(tiny_aig.nodes()))
    assert tiny_aig.is_and(and_node)


def test_stats_and_repr(tiny_aig):
    stats = tiny_aig.stats()
    assert stats == {"pis": 3, "pos": 1, "ands": 3, "depth": 2}
    assert "tiny" in repr(tiny_aig)


def test_copy_preserves_function_and_interface(small_random_aig):
    clone = small_random_aig.copy()
    assert clone.num_pis() == small_random_aig.num_pis()
    assert clone.num_pos() == small_random_aig.num_pos()
    assert clone.size <= small_random_aig.size  # strash can only merge
    from repro.aig.equivalence import check_equivalence

    assert check_equivalence(small_random_aig, clone)


def test_copy_with_mapping_covers_all_live_nodes(small_random_aig):
    clone, node_map = small_random_aig.copy_with_mapping()
    for node in small_random_aig.nodes():
        assert node in node_map
        assert clone.has_node(node_map[node])


def test_edge_list_matches_size(tiny_aig):
    edges = tiny_aig.edge_list()
    assert len(edges) == 2 * tiny_aig.size
    for source, target, inverted in edges:
        assert tiny_aig.has_node(source)
        assert tiny_aig.is_and(target)
        assert isinstance(inverted, bool)


def test_to_networkx_exports_all_nodes(tiny_aig):
    graph = tiny_aig.to_networkx()
    # const + 3 PIs + 3 ANDs + 1 PO marker node
    assert graph.number_of_nodes() == 8
    assert graph.number_of_edges() == 2 * tiny_aig.size + tiny_aig.num_pos()


def test_cleanup_removes_dangling_nodes():
    aig = Aig()
    x, y, z = aig.add_pi(), aig.add_pi(), aig.add_pi()
    used = aig.add_and(x, y)
    aig.add_and(used, z)  # dangling
    aig.add_po(used)
    removed = aig.cleanup()
    assert removed == 1
    assert aig.size == 1
    aig.check()
