import math

import numpy as np
import pytest

from modnet.interface import (
    DegenerateTraceError,
    bernoulli_module,
    table_module,
)
from modnet.network import (
    EdgeSpec,
    NetworkBuildError,
    NodeSpec,
    UninitializedNodeError,
    build_network,
)
from modnet.reference_models import CHAIN3, chain3_network
from modnet.values import discrete


def _pair(p1):
    return (1.0 - p1, p1)


def _line():
    """x1 -> x2, both Bernoulli, nothing observed."""
    nodes = [
        NodeSpec(1, bernoulli_module(0.5), name="x1"),
        NodeSpec(2, table_module(("x",), {(0,): _pair(0.2), (1,): _pair(0.9)})),
    ]
    edges = [EdgeSpec(1, "z", 2, "x")]
    return build_network(nodes, edges, {})


# -- construction-time validation ---------------------------------------------

def test_rejects_non_integer_id():
    with pytest.raises(NetworkBuildError, match="not an int"):
        build_network([NodeSpec("a", bernoulli_module(0.5))], [], {})


def test_rejects_duplicate_ids_and_names():
    with pytest.raises(NetworkBuildError, match="duplicate node id"):
        build_network(
            [NodeSpec(1, bernoulli_module(0.5)), NodeSpec(1, bernoulli_module(0.5))],
            [], {},
        )
    with pytest.raises(NetworkBuildError, match="duplicate node name"):
        build_network(
            [NodeSpec(1, bernoulli_module(0.5), name="x"),
             NodeSpec(2, bernoulli_module(0.5), name="x")],
            [], {},
        )


def test_rejects_bad_edges():
    a = NodeSpec(1, bernoulli_module(0.5))
    b = NodeSpec(2, table_module(("x",), {(0,): _pair(0.2), (1,): _pair(0.9)}))
    with pytest.raises(NetworkBuildError, match="source 9 does not exist"):
        build_network([a, b], [EdgeSpec(9, "z", 2, "x")], {})
    with pytest.raises(NetworkBuildError, match="target 9 does not exist"):
        build_network([a, b], [EdgeSpec(1, "z", 9, "x")], {})
    with pytest.raises(NetworkBuildError, match="no output port"):
        build_network([a, b], [EdgeSpec(1, "w", 2, "x")], {})
    with pytest.raises(NetworkBuildError, match="no input port"):
        build_network([a, b], [EdgeSpec(1, "z", 2, "w")], {})


def test_rejects_doubly_driven_port():
    nodes = [
        NodeSpec(1, bernoulli_module(0.5)),
        NodeSpec(2, bernoulli_module(0.5)),
        NodeSpec(3, table_module(("x",), {(0,): _pair(0.2), (1,): _pair(0.9)})),
    ]
    edges = [EdgeSpec(1, "z", 3, "x"), EdgeSpec(2, "z", 3, "x")]
    with pytest.raises(NetworkBuildError, match="driven twice"):
        build_network(nodes, edges, {})


def test_rejects_unbound_input():
    nodes = [NodeSpec(1, table_module(("x",), {(0,): _pair(0.5), (1,): _pair(0.5)}))]
    with pytest.raises(NetworkBuildError, match="unbound"):
        build_network(nodes, [], {})


def test_rejects_cycle():
    two_in = table_module(
        ("x",), {(0,): _pair(0.5), (1,): _pair(0.5)}
    )
    nodes = [NodeSpec(1, two_in), NodeSpec(2, two_in)]
    edges = [EdgeSpec(1, "z", 2, "x"), EdgeSpec(2, "z", 1, "x")]
    with pytest.raises(NetworkBuildError, match="cycle"):
        build_network(nodes, edges, {})


def test_rejects_malformed_observations():
    a = NodeSpec(1, bernoulli_module(0.5))
    with pytest.raises(NetworkBuildError, match="unknown node"):
        build_network([a], [], {9: {"z": discrete(1)}})
    with pytest.raises(NetworkBuildError, match="exactly ports"):
        build_network([a], [], {1: {"w": discrete(1)}})
    with pytest.raises(NetworkBuildError, match="not a Value"):
        build_network([a], [], {1: {"z": 1}})


# -- structure queries ---------------------------------------------------------

def test_topology_and_naming():
    net = chain3_network()
    assert net.node_ids() == (1, 2, 3)
    assert [c.id for c in net.node(1).children] == [2]
    assert net.node(3).children == ()
    assert [i for i in net.node_ids() if not net.is_observed(i)] == [1, 2]
    assert net.is_observed(3) and not net.is_observed(1)
    assert net.name_of(1) == "X1"
    assert net.id_of("X2") == 2
    with pytest.raises(KeyError):
        net.id_of("nope")


def test_order_is_topological_regardless_of_declaration_order():
    nodes = [
        NodeSpec(2, table_module(("x",), {(0,): _pair(0.2), (1,): _pair(0.9)})),
        NodeSpec(1, bernoulli_module(0.5)),
    ]
    net = build_network(nodes, [EdgeSpec(1, "z", 2, "x")], {})
    assert net.node_ids() == (1, 2)


# -- state access and initialization -------------------------------------------

def test_uninitialized_access_raises():
    net = _line()
    for probe in (net.outputs_of, net.lookup_log_weight, net.lookup_aux):
        with pytest.raises(UninitializedNodeError):
            probe(1)


def test_initialize_populates_everything():
    net = chain3_network()
    net.initialize(np.random.default_rng(7))
    for i in net.node_ids():
        out = net.outputs_of(i)
        assert set(out) == {"z"}
        assert math.isfinite(net.lookup_log_weight(i))
    assert net.outputs_of(3)["z"].data == CHAIN3["observed_x3"]
    assert net.node(2).inputs({}) == {"x": net.outputs_of(1)["z"]}


def test_initialize_retries_until_observation_is_reachable():
    # z=1 at the child is only possible when the parent drew 1, so every
    # successful attempt must leave the parent at 1.
    net = build_network(
        [NodeSpec(1, bernoulli_module(0.5)),
         NodeSpec(2, table_module(("x",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)}))],
        [EdgeSpec(1, "z", 2, "x")],
        {2: {"z": discrete(1)}},
    )
    net.initialize(np.random.default_rng(3))
    assert net.outputs_of(1)["z"].data == 1


def test_initialize_gives_up_on_impossible_observation():
    net = build_network(
        [NodeSpec(1, bernoulli_module(0.5)),
         NodeSpec(2, table_module(("x",), {(0,): (1.0, 0.0), (1,): (1.0, 0.0)}))],
        [EdgeSpec(1, "z", 2, "x")],
        {2: {"z": discrete(1)}},
    )
    with pytest.raises(DegenerateTraceError, match="initialization failed"):
        net.initialize(np.random.default_rng(0))


def test_assemble_inputs_with_override():
    net = _line()
    net.initialize(np.random.default_rng(11))
    live = net.node(2).inputs({})
    assert live == {"x": net.outputs_of(1)["z"]}
    flipped = discrete(1 - live["x"].data)
    shadowed = net.node(2).inputs({1: {"z": flipped}})
    assert shadowed == {"x": flipped}
    # the override must not leak into stored state
    assert net.node(2).inputs({}) == live
