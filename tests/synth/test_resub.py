"""Tests for resubstitution."""

import pytest

import repro.synth.resub as resub_module
from repro import Engine, Pipeline
from repro.aig.aig import Aig
from repro.aig.equivalence import check_equivalence
from repro.aig.literals import lit_var
from repro.aig.reconv_cut import reconvergence_driven_cut
from repro.synth.resub import ResubParams, _collect_window, _window_fanout, find_resub_candidate
from repro.synth.scripts import resub_pass


def _shared_divisor_example():
    """g re-derives m & n with its own structure; m and n already exist."""
    aig = Aig()
    a, b, c, d = (aig.add_pi(x) for x in "abcd")
    m = aig.add_and(a, d)
    n = aig.add_and(a, aig.make_or(b, c))
    i = aig.add_and(m, n)
    g = aig.add_and(a, aig.add_and(d, aig.make_or(b, c)))
    aig.add_po(i, "i")
    aig.add_po(g, "g")
    return aig, lit_var(g)


def test_zero_resub_found_for_shared_function():
    aig, g_node = _shared_divisor_example()
    candidate = find_resub_candidate(aig, g_node)
    assert candidate is not None
    assert candidate.operation == "rs"
    assert candidate.gain >= 1


def test_resub_application_preserves_function():
    aig, g_node = _shared_divisor_example()
    original = aig.copy()
    before = aig.size
    candidate = find_resub_candidate(aig, g_node)
    candidate.apply(aig)
    aig.cleanup()
    aig.check()
    assert aig.size < before
    assert check_equivalence(original, aig)


def test_one_resub_with_two_divisors():
    aig = Aig()
    a, b, c, d = (aig.add_pi(x) for x in "abcd")
    left = aig.add_and(a, b)
    right = aig.add_and(c, d)
    aig.add_po(left, "l")
    aig.add_po(right, "r")
    # target = (a·b)·(c·d) built through a different association order so it
    # does not hash onto AND(left, right).
    target = aig.add_and(aig.add_and(a, aig.add_and(b, c)), d)
    aig.add_po(target, "t")
    candidate = find_resub_candidate(aig, lit_var(target), ResubParams(max_leaves=6))
    assert candidate is not None
    original = aig.copy()
    candidate.apply(aig)
    aig.cleanup()
    aig.check()
    assert check_equivalence(original, aig)


def test_none_on_pi_and_without_divisors():
    aig = Aig()
    x, y = aig.add_pi(), aig.add_pi()
    g = aig.add_and(x, y)
    aig.add_po(g)
    assert find_resub_candidate(aig, lit_var(x)) is None
    assert find_resub_candidate(aig, lit_var(g)) is None


def test_finder_does_not_modify_network(small_random_aig):
    before = small_random_aig.edge_list()
    for node in list(small_random_aig.nodes())[:30]:
        find_resub_candidate(small_random_aig, node)
    assert small_random_aig.edge_list() == before


def test_resub_pass_reduces_and_preserves(medium_random_aig):
    original = medium_random_aig.copy()
    stats = resub_pass(medium_random_aig)
    medium_random_aig.check()
    assert stats.size_after <= stats.size_before
    assert check_equivalence(original, medium_random_aig)


def test_divisor_never_in_fanout_cone(small_random_aig):
    """Applying resubstitution must never create a cycle (guarded by TFO exclusion)."""
    for node in list(small_random_aig.nodes()):
        candidate = find_resub_candidate(small_random_aig, node)
        if candidate is not None:
            candidate.apply(small_random_aig)
            small_random_aig.check()  # would raise on a cycle
            break


def test_window_fanout_filter_excludes_window_nodes_in_the_fanout_cone():
    """t = AND(n, a) computes n's function but lies in n's fanout cone.

    Both of t's fanins are in n's window, so the filter has to remove it:
    otherwise 0-resub would replace n by t and close a cycle.
    """
    aig = Aig()
    a, b = aig.add_pi("a"), aig.add_pi("b")
    n = aig.add_and(a, b)
    t = aig.add_and(n, a)
    aig.add_po(t, "t")
    n_node, t_node = lit_var(n), lit_var(t)
    window = _collect_window(aig, reconvergence_driven_cut(aig, n_node), 120)
    assert t_node in window
    assert _window_fanout(aig, n_node, window) == {n_node, t_node}
    assert find_resub_candidate(aig, n_node) is None


@pytest.mark.parametrize(
    "design", ["b07", "b08", "b09", "b10", "b11", "b12", "c880", "c2670", "c5315"]
)
def test_window_fanout_matches_full_fanout_cone(design, monkeypatch):
    """The window-bounded walk equals ``transitive_fanout & window`` on every call."""
    calls = []

    def checked(aig, node, window):
        cone = _window_fanout(aig, node, window)
        assert cone == aig.transitive_fanout(node, include_node=True) & window
        calls.append(node)
        return cone

    monkeypatch.setattr(resub_module, "_window_fanout", checked)
    Engine.load(design).run(Pipeline.parse("rs"))
    assert calls
