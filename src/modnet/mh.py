"""Single-site Metropolis-Hastings over a module network.

One update proposes a new value for one unobserved node's output, regenerates
that node and its children against the proposal, and accepts or rejects on the
change in their stored log-weights plus the proposal ratio. Because every
regenerate draws fresh auxiliary randomness, the chain is valid as long as
each module's exp(lw) is an unbiased estimate of its output probability; no
module ever needs an exact density.

run_chain runs in blocks of _BLOCK = 1024 iterations. It picks the site of
each update by random scan: one uniform choice of schedule entry per
iteration, drawn a block at a time by one rng.integers(len(schedule),
size=1024) call at iterations 0, 1024, 2048, ..., before that iteration's
update. The draw is always full, even when fewer iterations are left, so a
chain of N iterations is exactly the first N iterations of a longer chain
from the same state and generator. A one-entry schedule takes no draw at
all. At the end of each block, a last partial one included, the sink gets
that block's ChainRecords as one list, so a sink does its work once per
block and holds nothing between calls.

RNG consumption per update, in order: the proposal's own draws, then the
regenerating modules' draws (target node first, then children by ascending
id), then exactly one uniform for the accept test. The uniform is drawn even
when the decision is already forced, so the stream position never depends on
the outcome. The site choices are independent of all of these, so drawing
them ahead changes the stream but not the chain's law.

What an update reads is built once per network: build_network stores each
node's wiring as a tuple of (input port, parent, parent port) and its
regenerate family, (node, *children), which mh_update walks as it is. What
it checks is checked on every update: the target is unobserved and
initialized, the proposal's port exists, and every regenerate call checks
its own input and output ports and their value kinds (interface.require_kind).
Each regenerated log-weight is checked against the range contract by
mh_update as it comes back from the module. ExactModule.regenerate checks its
own weight as well, so an exact module's weight is checked twice; every other
backend's is checked once, by mh_update alone. The range and kind checks
test the well-formed case first; anything else takes the full check, which
alone raises. On accept, the target's outputs and every touched node's
(log-weight, aux) pair are swapped in together, written straight to the node
handles with no second check; inputs are never stored, since each node
derives them from its parents' outputs. On reject, nothing is touched: the
discarded call results simply go out of scope.

UpdateInfo and ChainRecord are named tuples: one of each is built per
iteration, with tuple.__new__ as a named tuple's own _make does, so each
costs what a plain tuple does. A proposal whose port is
named and exists is used as is; any other goes through resolve_port, so the
configured proposals, which carry their resolved port, skip that lookup.

A ChainRecord is positional: its site values and its log-weights both
follow the network's node_ids order, whatever order the schedule lists its
sites in, so run_chain builds a record without a dict. Per call it works
out where each schedule entry's family sits in that order. It reads the site
values and stored weights again only after an accept, since nothing else
changes them, and shares those tuples with the records up to the next one;
a reject lays its regenerated weights over a copy.

The proposal constructors validate their own settings with check_domain and
check_sigma; experiment.parse_config runs the same checks on a config's
proposal entries, so a setting has one rule wherever it comes from, as do a
count (values.check_count, run_chain's iterations) and a value's kind
(interface.require_kind, which flip and gaussian_walk apply to the site).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, NamedTuple, Sequence

from . import values
from .interface import SchemaError, check_domain, check_log_weight, require_kind
from .network import ModuleNetwork, UninitializedNodeError
from .values import Value, check_count


@dataclass(frozen=True)
class SiteProposal:
    """Transition proposal for one node's output port.

    sample(current, rng) draws a candidate Value; log_density(candidate,
    current) evaluates log r(candidate; current) so that asymmetric proposals
    are handled. port may be None when the target has a single output port.
    """

    target: int
    sample: Callable[[Value, Any], Value]
    log_density: Callable[[Value, Value], float]
    port: str | None = None


# iterations per run_chain block: one scan draw and one sink call each
_BLOCK = 1024

# makes UpdateInfo and ChainRecord values without the generated __new__'s frame
_new = tuple.__new__


class UpdateInfo(NamedTuple):
    """What one update did: the site and proposed value, the fresh log-weight
    of every regenerated node (target plus children), and the outcome."""

    site: int
    proposed_value: Any
    accepted: bool
    neg_inf_proposal: bool
    log_alpha: float
    regen_log_weights: dict[int, float]


class ChainRecord(NamedTuple):
    """One iteration of trace output.

    site_values is the chain state after the update, so its series is the
    usual MCMC trace: one value per scheduled site, in net.node_ids() order
    (topological), which is also TraceWriter.site_ids and
    TraceAccumulator.site_ids. log_weights holds one weight per node in the
    same order, and total_log_weight is their sum, folded left to right.
    log_weights and total_log_weight report the evaluation the update
    performed: fresh regeneration results for the target and its children,
    stored values for untouched nodes. On an accepted iteration
    that coincides with the new state; on a rejected one it describes the
    discarded configuration (the target site at proposed_value), which is why
    the log-weight series keeps moving even while site_values sits still.
    """

    iteration: int
    site: int
    proposed_value: Any
    accepted: bool
    neg_inf_proposal: bool
    site_values: tuple
    log_weights: tuple[float, ...]
    total_log_weight: float


def resolve_port(net: ModuleNetwork, proposal: SiteProposal) -> str:
    """The output port a proposal acts on; explicit, or the node's only one."""
    ports = net.module_of(proposal.target).output_ports
    if proposal.port is not None:
        if proposal.port not in ports:
            raise SchemaError(
                f"node {proposal.target} has no output port {proposal.port!r}"
            )
        return proposal.port
    if len(ports) != 1:
        raise SchemaError(
            f"node {proposal.target} has ports {ports}; proposal must name one"
        )
    return ports[0]


def mh_update(net: ModuleNetwork, proposal: SiteProposal, rng) -> UpdateInfo:
    """One accept/reject step at proposal.target. See module docstring."""
    i = proposal.target
    node = net.node(i)
    if node.observed:
        raise SchemaError(f"node {i} is observed and cannot be a proposal site")
    if node.state is None:
        raise UninitializedNodeError(f"node {i} was never initialized")
    port = proposal.port
    if port not in node.module.output_ports:
        port = resolve_port(net, proposal)

    old_outputs = node.outputs
    old_value = old_outputs[port]
    new_value = proposal.sample(old_value, rng)
    new_outputs = {**old_outputs, port: new_value}
    override = {i: new_outputs}

    # an initialized target means an initialized network: initialize fills
    # every node's slot in one pass, so the handles below are all populated
    regen = {}
    slots = []
    delta = 0.0
    neg_inf = False
    for n in node.family:
        lw, aux = n.module.regenerate(
            n.inputs(override), new_outputs if n is node else n.outputs, rng)
        lw = check_log_weight(lw)
        regen[n.id] = lw
        slots.append((lw, aux))
        if lw == -math.inf:
            neg_inf = True
        else:
            delta += lw - n.state[0]

    if neg_inf:
        log_alpha = -math.inf
    else:
        log_alpha = (
            proposal.log_density(old_value, new_value)
            - proposal.log_density(new_value, old_value)
            + delta
        )

    # One uniform per update regardless of outcome, drawn after all
    # regenerations, so the stream stays aligned across accept paths.
    u = rng.random()
    log_s = math.log(u) if u > 0.0 else -math.inf
    accepted = log_alpha != -math.inf and log_s <= log_alpha

    if accepted:
        node.outputs = new_outputs
        for n, slot in zip(node.family, slots):
            n.state = slot

    return _new(UpdateInfo, (i, new_value.data, accepted, neg_inf, log_alpha, regen))


def run_chain(
    net: ModuleNetwork,
    schedule: Sequence[SiteProposal],
    iterations: int,
    rng,
    sink: Callable[[list[ChainRecord]], None] | None = None,
) -> None:
    """Run a random-scan site-mixture chain, handing sink the ChainRecords of
    each block of _BLOCK iterations as one list.

    Each iteration picks a schedule entry uniformly. The picks are drawn
    1,024 at a time, with one rng.integers(len(schedule), size=1024) call at
    iterations 0, 1024, 2048, ..., before that iteration's update. The last
    draw is full too, so the records of a chain of N iterations are the
    first N records of any longer chain run from the same network state and
    generator. A one-entry schedule takes no draw: rng.integers(1) returns
    zeros without advancing the generator, so skipping it leaves the stream
    as it was. sink is called once per block, after its last update: with
    1,024 records, or fewer for a last partial block, and not at all for
    zero iterations. iterations is a count (values.check_count), least 0.
    """
    iterations = check_count("iterations", iterations, least=0)
    if not schedule:
        raise ValueError("schedule is empty")
    for prop in schedule:
        if net.is_observed(prop.target):
            raise SchemaError(f"schedule targets observed node {prop.target}")
    site_ports = {p.target: resolve_port(net, p) for p in schedule}
    ids = net.node_ids()
    # site values in node order, as the sinks read them
    sites = [(net.node(s), site_ports[s]) for s in ids if s in site_ports]
    nodes = [net.node(j) for j in ids]
    position = {j: k for k, j in enumerate(ids)}
    # where each schedule entry's regenerated weights go in a record, in the
    # order of its target's family, which is the order of regen_log_weights
    family_at = [tuple(position[n.id] for n in net.node(p.target).family)
                 for p in schedule]

    # Stored weights and site values change only on an accept, so a record
    # shares their tuples with the records before it until the next one.
    row = stored = None
    for start in range(0, iterations, _BLOCK):
        picks = (rng.integers(len(schedule), size=_BLOCK).tolist()
                 if len(schedule) > 1 else repeat(0))
        block = []
        for it, k in zip(range(start, min(start + _BLOCK, iterations)), picks):
            info = mh_update(net, schedule[k], rng)
            if sink is None:
                continue
            accepted = info.accepted
            if accepted or row is None:
                row = tuple([n.outputs[p].data for n, p in sites])
                stored = tuple([n.state[0] for n in nodes])
            if accepted:
                lws = stored
            else:
                lws = list(stored)
                for pos, lw in zip(family_at[k], info.regen_log_weights.values()):
                    lws[pos] = lw
                lws = tuple(lws)
            total = 0.0
            for lw in lws:
                total += lw
            block.append(_new(ChainRecord, (it, info.site, info.proposed_value,
                                            accepted, info.neg_inf_proposal,
                                            row, lws, total)))
        if sink is not None:
            sink(block)


# -- proposal library -------------------------------------------------------


def flip_proposal(target: int, port: str | None = None) -> SiteProposal:
    """Deterministic 0/1 flip; symmetric, so the ratio term vanishes."""

    flipped = (values.discrete(1), values.discrete(0))
    where = f"flip proposal at node {target}"

    def sample(current: Value, rng) -> Value:
        v = require_kind(current, values.DISCRETE, where).data
        if v not in (0, 1):
            raise SchemaError(f"{where}: needs a current value in {{0, 1}}, got {v}")
        return flipped[v]

    def log_density(candidate: Value, current: Value) -> float:
        return 0.0 if candidate.data == 1 - current.data else -math.inf

    return SiteProposal(target, sample, log_density, port)


def check_sigma(sigma) -> float:
    """A gaussian_walk step size: a finite number > 0, not a bool."""
    if (isinstance(sigma, bool) or not isinstance(sigma, (int, float))
            or not 0 < sigma < math.inf):
        raise ValueError("'sigma' must be a finite number > 0")
    return float(sigma)


def discrete_uniform_proposal(
    target: int, domain: Sequence[int], port: str | None = None
) -> SiteProposal:
    """Uniform redraw over a finite domain; may repropose the current value."""
    domain = check_domain(domain)
    log_p = -math.log(len(domain))
    choices = tuple(values.discrete(v) for v in domain)

    def sample(current: Value, rng) -> Value:
        return choices[int(rng.integers(len(choices)))]

    def log_density(candidate: Value, current: Value) -> float:
        return log_p if candidate.data in domain else -math.inf

    return SiteProposal(target, sample, log_density, port)


def gaussian_walk_proposal(
    target: int, sigma: float, port: str | None = None
) -> SiteProposal:
    """Random walk on a real-valued output."""
    sigma = check_sigma(sigma)
    where = f"gaussian_walk proposal at node {target}"

    def sample(current: Value, rng) -> Value:
        x = require_kind(current, values.REAL, where).data
        return values.real(x + sigma * rng.standard_normal())

    def log_density(candidate: Value, current: Value) -> float:
        t = (candidate.data - current.data) / sigma
        return -0.5 * math.log(2.0 * math.pi) - math.log(sigma) - 0.5 * t * t

    return SiteProposal(target, sample, log_density, port)
