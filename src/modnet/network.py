"""Directed acyclic networks of modules wired port-to-port.

A network owns all mutable inference state: current outputs per node, plus the
(log-weight, aux) pair from the most recent call that produced them. The pair
lives in a single slot and is only ever replaced whole, so a log-weight can
never be paired with auxiliary state from a different call. Observed nodes
have their outputs fixed at construction and never change. Inputs are not
stored: each node derives them from its wiring and the parents' outputs.

build_network validates the description once and leaves each node with what
never changes after it: its wiring as a tuple of (input port, parent handle,
parent port) and its regenerate family (node, *children). The sampler reads
both as they are on every update; only outputs and the (log-weight, aux)
slot change.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .interface import (
    DegenerateTraceError,
    ModnetError,
    ModuleIO,
    ProbModule,
    check_log_weight,
)
from .values import Value

log = logging.getLogger("modnet.network")

# whole initialization passes tried before an observation is deemed impossible
_INIT_ATTEMPTS = 100


class NetworkBuildError(ModnetError):
    """The node/edge/observation description does not define a valid network."""


class UninitializedNodeError(ModnetError):
    """State was read from a node before initialize() populated it."""


@dataclass(frozen=True)
class NodeSpec:
    id: int
    module: ProbModule
    name: str | None = None


@dataclass(frozen=True)
class EdgeSpec:
    src: int
    src_port: str
    dst: int
    dst_port: str


class _Node:
    """A node's live state handle. wiring holds one (input port, parent
    handle, parent port) triple per input port; family is (self, *children),
    the nodes an MH update at this node regenerates, children being the
    handles of the nodes this one drives, by ascending id. Both are fixed by
    build_network."""

    __slots__ = ("id", "name", "module", "observed", "wiring", "family",
                 "outputs", "state")

    def __init__(self, spec: NodeSpec, observed: bool):
        self.id = spec.id
        self.name = spec.name if spec.name is not None else str(spec.id)
        self.module = spec.module
        self.observed = observed
        self.wiring: tuple[tuple[str, _Node, str], ...] = ()
        self.family: tuple[_Node, ...] = (self,)
        self.outputs: ModuleIO | None = None
        self.state: tuple[float, Any] | None = None  # (log-weight, aux), one slot

    @property
    def children(self) -> tuple[_Node, ...]:
        return self.family[1:]

    def inputs(self, override: Mapping[int, ModuleIO]) -> ModuleIO:
        """Inputs read through the wiring from each parent's current outputs,
        or from override (node id -> outputs) for a proposed or staged parent.
        Every parent read must be populated. Inputs are never stored; this is
        the only place they are formed."""
        inputs: ModuleIO = {}
        for dst_port, src, src_port in self.wiring:
            outputs = override.get(src.id)
            inputs[dst_port] = (src.outputs if outputs is None else outputs)[src_port]
        return inputs


class ModuleNetwork:
    """Built via build_network; see module docstring for the state protocol."""

    def __init__(self, nodes: dict[int, _Node], order: tuple[int, ...]):
        self._nodes = nodes
        self._order = order

    # -- topology ----------------------------------------------------------

    def node_ids(self) -> tuple[int, ...]:
        return self._order

    def is_observed(self, node_id: int) -> bool:
        return self.node(node_id).observed

    def name_of(self, node_id: int) -> str:
        return self.node(node_id).name

    def id_of(self, name: str) -> int:
        for node in self._nodes.values():
            if node.name == name:
                return node.id
        raise KeyError(name)

    def module_of(self, node_id: int) -> ProbModule:
        return self.node(node_id).module

    def node(self, node_id: int) -> _Node:
        """The node's live state handle, for the sampler's hot path. Writers
        replace outputs and the (log-weight, aux) slot whole, never in part."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkBuildError(f"no node with id {node_id}") from None

    # -- state access ------------------------------------------------------

    def outputs_of(self, node_id: int) -> ModuleIO:
        node = self.node(node_id)
        if node.outputs is None:
            raise UninitializedNodeError(f"node {node_id} has no outputs yet")
        return node.outputs

    def lookup_log_weight(self, node_id: int) -> float:
        node = self.node(node_id)
        if node.state is None:
            raise UninitializedNodeError(f"node {node_id} has no log-weight yet")
        return node.state[0]

    def lookup_aux(self, node_id: int) -> Any:
        node = self.node(node_id)
        if node.state is None:
            raise UninitializedNodeError(f"node {node_id} has no aux state yet")
        return node.state[1]

    # -- initialization ----------------------------------------------------

    def initialize(self, rng) -> None:
        """Populate every node in topological order.

        Unobserved nodes simulate; observed nodes regenerate their fixed
        outputs. An observed node scoring -inf (or a degenerate simulate)
        voids the attempt and the whole pass restarts, up to _INIT_ATTEMPTS
        (100) passes; then DegenerateTraceError.
        """
        for attempt in range(_INIT_ATTEMPTS):
            if self._try_initialize(rng):
                return
            log.debug("initialization attempt %d hit a zero-probability trace", attempt + 1)
        raise DegenerateTraceError(
            f"initialization failed {_INIT_ATTEMPTS} times; an observation may have "
            "probability zero under every reachable parent configuration"
        )

    def _try_initialize(self, rng) -> bool:
        # topological order: every parent's outputs are staged before a child
        staged: dict[int, ModuleIO] = {}
        slots: dict[int, tuple[float, Any]] = {}
        for i in self._order:
            node = self._nodes[i]
            inputs = node.inputs(staged)
            if node.observed:
                lw, aux = node.module.regenerate(inputs, node.outputs, rng)
                lw = check_log_weight(lw)
                if lw == -math.inf:
                    return False
                outs = node.outputs
            else:
                try:
                    outs, lw, aux = node.module.simulate(inputs, rng)
                except DegenerateTraceError:
                    return False
                node.module.check_outputs(outs)
                lw = check_log_weight(lw)
            staged[i] = outs
            slots[i] = (lw, aux)
        for i, slot in slots.items():
            node = self._nodes[i]
            if not node.observed:
                node.outputs = dict(staged[i])
            node.state = slot
        return True


def build_network(
    nodes: Iterable[NodeSpec],
    edges: Iterable[EdgeSpec],
    observations: Mapping[int, ModuleIO] | None = None,
) -> ModuleNetwork:
    """Validate and assemble a module network.

    Checks: unique ids and names, every edge endpoint exists and names a real
    port, every input port is driven by exactly one edge, the graph is acyclic,
    and observations exactly cover the output schema of existing nodes.
    """
    observations = dict(observations or {})
    specs = list(nodes)
    edge_list = list(edges)

    by_id: dict[int, _Node] = {}
    names: set[str] = set()
    for spec in specs:
        if not isinstance(spec.id, int) or isinstance(spec.id, bool):
            raise NetworkBuildError(f"node id {spec.id!r} is not an int")
        if spec.id in by_id:
            raise NetworkBuildError(f"duplicate node id {spec.id}")
        node = _Node(spec, observed=spec.id in observations)
        if node.name in names:
            raise NetworkBuildError(f"duplicate node name {node.name!r}")
        names.add(node.name)
        by_id[spec.id] = node

    for obs_id in observations:
        if obs_id not in by_id:
            raise NetworkBuildError(f"observation targets unknown node {obs_id}")

    wiring: dict[int, dict[str, tuple[_Node, str]]] = {i: {} for i in by_id}
    for e in edge_list:
        if e.src not in by_id:
            raise NetworkBuildError(f"edge source {e.src} does not exist")
        if e.dst not in by_id:
            raise NetworkBuildError(f"edge target {e.dst} does not exist")
        if e.src_port not in by_id[e.src].module.output_ports:
            raise NetworkBuildError(
                f"node {e.src} has no output port {e.src_port!r}"
            )
        if e.dst_port not in by_id[e.dst].module.input_ports:
            raise NetworkBuildError(
                f"node {e.dst} has no input port {e.dst_port!r}"
            )
        if e.dst_port in wiring[e.dst]:
            raise NetworkBuildError(
                f"input port {e.dst_port!r} of node {e.dst} is driven twice"
            )
        wiring[e.dst][e.dst_port] = (by_id[e.src], e.src_port)

    for node in by_id.values():
        missing = set(node.module.input_ports) - set(wiring[node.id])
        if missing:
            raise NetworkBuildError(
                f"node {node.id}: input ports {sorted(missing)} are unbound"
            )

    # Kahn's algorithm; whatever survives with in-degree > 0 sits on a cycle.
    children: dict[int, set[int]] = {i: set() for i in by_id}
    indeg = {}
    for node in by_id.values():
        parents = {src.id for src, _ in wiring[node.id].values()}
        for src in parents:
            children[src].add(node.id)
        indeg[node.id] = len(parents)
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order: list[int] = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        for c in sorted(children[i]):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
        ready.sort()
    if len(order) != len(by_id):
        cyclic = sorted(set(by_id) - set(order))
        raise NetworkBuildError(f"cycle detected among nodes {cyclic}")

    for obs_id, outs in observations.items():
        node = by_id[obs_id]
        if set(outs) != set(node.module.output_ports):
            raise NetworkBuildError(
                f"observation for node {obs_id} must provide exactly ports "
                f"{sorted(node.module.output_ports)}"
            )
        for port, val in outs.items():
            if not isinstance(val, Value):
                raise NetworkBuildError(
                    f"observation {obs_id}.{port} is not a Value"
                )
        node.outputs = dict(outs)

    for i, node in by_id.items():
        node.wiring = tuple((p, src, sp) for p, (src, sp) in wiring[i].items())
        node.family = (node, *(by_id[c] for c in sorted(children[i])))
    return ModuleNetwork(by_id, tuple(order))
