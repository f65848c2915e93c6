"""Property-based tests of the AIG data structure and its invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig, AigCycleError
from repro.aig.equivalence import check_equivalence
from repro.aig.literals import lit_var
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.synth.rewrite_lib import RewriteLibrary
from repro.aig.truth import cut_truth_table, table_mask

aig_specs = st.builds(
    RandomAigSpec,
    num_pis=st.integers(min_value=3, max_value=8),
    num_pos=st.integers(min_value=1, max_value=3),
    num_ands=st.integers(min_value=5, max_value=60),
    redundancy=st.floats(min_value=0.0, max_value=0.8),
    xor_fraction=st.floats(min_value=0.0, max_value=0.3),
    mux_fraction=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=40, deadline=None)
@given(aig_specs)
def test_random_aig_invariants_hold(spec):
    aig = random_aig(spec)
    aig.check()
    assert aig.num_pis() == spec.num_pis
    assert aig.num_pos() == max(1, spec.num_pos)
    # No dangling nodes after generation.
    assert all(aig.fanout_count(node) > 0 for node in aig.nodes())


@settings(max_examples=25, deadline=None)
@given(aig_specs)
def test_copy_is_equivalent_and_not_larger(spec):
    aig = random_aig(spec)
    clone = aig.copy()
    clone.check()
    assert clone.size <= aig.size
    assert check_equivalence(aig, clone)


@settings(max_examples=20, deadline=None)
@given(aig_specs, st.integers(min_value=0, max_value=1_000))
def test_replace_with_equivalent_structure_preserves_function(spec, node_selector):
    """Re-synthesizing a random node's cut function and splicing it back in
    must never change the network's functionality."""
    aig = random_aig(spec)
    nodes = list(aig.nodes())
    if not nodes:
        return
    node = nodes[node_selector % len(nodes)]
    from repro.aig.cuts import local_cuts

    cuts = [cut for cut in local_cuts(aig, node, k=4) if 2 <= cut.size <= 4]
    if not cuts:
        return
    cut = cuts[0]
    table = cut_truth_table(aig, node, cut.leaves)
    fragment = RewriteLibrary().lookup(table, len(cut.leaves))
    original = aig.copy()
    output = fragment.instantiate(aig, [leaf * 2 for leaf in cut.leaves])
    from repro.aig.aig import AigCycleError

    try:
        aig.replace(node, output)
    except AigCycleError:
        return
    aig.cleanup()
    aig.check()
    assert check_equivalence(original, aig)


@settings(max_examples=25, deadline=None)
@given(aig_specs)
def test_cut_truth_tables_consistent_with_simulation(spec):
    """The cut function evaluated on PIs equals the node's simulated signature."""
    import numpy as np

    from repro.aig.simulate import exhaustive_patterns, simulate

    aig = random_aig(spec)
    if aig.num_pis() > 8 or aig.size == 0:
        return
    node = list(aig.nodes())[-1]
    leaves = list(aig.pis())
    # Only valid if the node's support is covered by all PIs (always true).
    table = cut_truth_table(aig, node, leaves)
    patterns = exhaustive_patterns(aig.num_pis())
    signature = simulate(aig, patterns, nodes=[node])[node]
    num_patterns = 1 << aig.num_pis()
    simulated = 0
    for pattern in range(num_patterns):
        word, offset = divmod(pattern, 64)
        bit = (int(signature[word]) >> offset) & 1
        simulated |= bit << pattern
    assert simulated == table & table_mask(aig.num_pis())


def _levels_from_scratch(aig):
    levels = {node: 0 for node in aig.all_live_nodes()}
    for node in aig.topological_order():
        f0, f1 = aig.fanins(node)
        levels[node] = 1 + max(levels[lit_var(f0)], levels[lit_var(f1)])
    return levels


def _assert_levels_exact(aig):
    aig.check()
    for node, level in _levels_from_scratch(aig).items():
        assert aig.level(node) == level, node


#: One edit: (kind, pick_a, pick_b, complement).  Kinds: 0 replace with any
#: live node, 1 replace with a node of ``old``'s fanout cone, 2 add_and,
#: 3 cleanup.
edits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(aig_specs, edits)
def test_bounded_cycle_check_is_exact_and_levels_stay_exact(spec, moves):
    """``replace`` raises exactly on cycles; levels stay exact after every edit."""
    aig = random_aig(spec)
    for kind, pick_a, pick_b, complement in moves:
        live = [n for n in aig.all_live_nodes() if not aig.is_const(n)]
        if kind == 3:
            aig.cleanup()
        elif kind == 2:
            first = live[pick_a % len(live)]
            second = live[pick_b % len(live)]
            aig.add_and(2 * first + complement, 2 * second)
        else:
            old = live[pick_a % len(live)]
            pool = sorted(aig.transitive_fanout(old)) if kind == 1 else []
            pool = pool or [0] + live
            new_node = pool[pick_b % len(pool)]
            if new_node == old:
                continue
            new_lit = 2 * new_node + complement
            cycle = old in aig.transitive_fanin(new_node, include_node=True)
            try:
                aig.replace(old, new_lit)
            except AigCycleError:
                assert cycle
            else:
                assert not cycle
        _assert_levels_exact(aig)
