"""Tests for the per-node navigation ledger and its memory charging."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.core.navigation import NavLedger
from tests.nav_ledger_reference import FullRechargeLedger


def make_agent(aid=1):
    return Agent(aid, 0, MemoryModel(k=16, max_degree=8))


class TestNavLedger:
    def test_create_and_get(self):
        ledger = NavLedger()
        owner = make_agent()
        rec = ledger.create(3, owner, parent_port=2, occupied=True)
        assert ledger.has(3)
        assert ledger.get(3) is rec
        assert ledger.owner(3) is owner
        assert rec.parent_port == 2

    def test_duplicate_create_rejected(self):
        ledger = NavLedger()
        owner = make_agent()
        ledger.create(0, owner)
        with pytest.raises(ValueError):
            ledger.create(0, owner)

    def test_charge_appears_in_owner_memory(self):
        ledger = NavLedger()
        owner = make_agent()
        before = owner.memory.current_bits
        ledger.create(1, owner, parent_port=4, occupied=True, forward_count=2)
        assert owner.memory.current_bits > before

    def test_update_unknown_field_rejected(self):
        ledger = NavLedger()
        owner = make_agent()
        ledger.create(1, owner)
        with pytest.raises(AttributeError):
            ledger.update(1, bogus=1)

    def test_child_group_chunk_limit(self):
        ledger = NavLedger()
        owner = make_agent()
        ledger.create(1, owner)
        for port in (1, 2, 3):
            ledger.append_child_port(1, port)
        with pytest.raises(ValueError):
            ledger.append_child_port(1, 4)

    def test_sibling_group_chunk_limit(self):
        ledger = NavLedger()
        owner = make_agent()
        ledger.create(1, owner)
        ledger.append_sibling_port(1, 5)
        ledger.append_sibling_port(1, 6)
        with pytest.raises(ValueError):
            ledger.append_sibling_port(1, 7)

    def test_transfer_moves_charge(self):
        ledger = NavLedger()
        old, new = make_agent(1), make_agent(2)
        base_old = old.memory.current_bits
        base_new = new.memory.current_bits
        ledger.create(2, old, parent_port=1, occupied=True)
        charged = old.memory.current_bits - base_old
        assert charged > 0
        ledger.transfer(2, new)
        assert old.memory.current_bits == base_old
        assert new.memory.current_bits == base_new + charged
        assert ledger.owner(2) is new

    def test_owner_with_constant_records_stays_logarithmic(self):
        """An agent owning O(1) records uses O(log(k+Δ)) bits (Lemma 9 regime)."""
        model = MemoryModel(k=4096, max_degree=2048)
        owner = Agent(1, 0, model)
        ledger = NavLedger()
        for node in range(4):  # own node + 3 covered nodes, the worst case
            ledger.create(
                node,
                owner,
                parent_port=7,
                occupied=(node == 0),
                forward_count=3,
                child_group=[1, 2, 3],
                next_anchor=4,
                sibling_group=[5, 6],
            )
        assert owner.memory.peak_in_log_units() < 60


PORTS = st.integers(1, 8)
#: A value strategy per record field, shaped like the values the drivers store.
FIELD_VALUES = {
    "parent_port": st.none() | PORTS,
    "depth_parity": st.integers(0, 1),
    "occupied": st.booleans(),
    "forward_count": st.integers(0, 8),
    "leaf_child_count": st.integers(0, 8),
    "leaf_anchor_port": st.none() | PORTS,
    "child_group": st.lists(PORTS, max_size=3),
    "next_anchor": st.none() | PORTS,
    "latest_anchor": st.none() | PORTS,
    "sibling_group": st.lists(PORTS, max_size=2),
    "sibling_next_anchor": st.none() | PORTS,
    "rt_initialized": st.booleans(),
    "rt_is_anchor": st.booleans(),
    "rt_queue": st.lists(PORTS, max_size=4),
    "rt_anchor_port": st.none() | PORTS,
}
#: Some fields with values, passed in any order: ``update`` must charge them
#: in ``_RECORD_FIELDS`` order whatever order the keywords come in.
CHANGES = st.fixed_dictionaries({}, optional=FIELD_VALUES).flatmap(
    lambda changes: st.permutations(list(changes.items())).map(dict)
)
NODES = st.integers(0, 4)
OWNERS = st.integers(0, 2)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("create"), NODES, OWNERS, CHANGES),
        st.tuples(st.just("update"), NODES, OWNERS, CHANGES),
        st.tuples(st.just("append_child_port"), NODES, OWNERS, PORTS),
        st.tuples(st.just("append_sibling_port"), NODES, OWNERS, PORTS),
        st.tuples(st.just("transfer"), NODES, OWNERS, st.none()),
    ),
    max_size=40,
)


def apply(ledger, agents, op):
    kind, node, owner, arg = op
    if kind == "create":
        ledger.create(node, agents[owner], **arg)
    elif kind == "update":
        ledger.update(node, **arg)
    elif kind == "transfer":
        ledger.transfer(node, agents[owner])
    else:
        getattr(ledger, kind)(node, arg)


def applicable(ledger, op):
    """Skip operations the drivers never issue: a second create, an operation
    on a missing record, or an append past the chunk limit (which raises)."""
    kind, node, _owner, _arg = op
    if kind == "create":
        return not ledger.has(node)
    if not ledger.has(node):
        return False
    record = ledger.get(node)
    if kind == "append_child_port":
        return len(record.child_group) < 3
    if kind == "append_sibling_port":
        return len(record.sibling_group) < 2
    return True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(OPS)
def test_charges_match_the_full_recharge_after_every_operation(ops):
    """Charging only the changed fields leaves every owner's current and peak
    bits (and stored values) where a full recharge of the record puts them."""
    model = MemoryModel(k=16, max_degree=8)
    ledger, agents = NavLedger(), [Agent(i, 0, model) for i in (1, 2, 3)]
    oracle, oracle_agents = FullRechargeLedger(), [Agent(i, 0, model) for i in (1, 2, 3)]
    for op in ops:
        if not applicable(ledger, op):
            continue
        apply(ledger, agents, op)
        apply(oracle, oracle_agents, op)
        for agent, expected in zip(agents, oracle_agents):
            assert agent.memory.current_bits == expected.memory.current_bits, op
            assert agent.memory.peak_bits == expected.memory.peak_bits, op
            assert agent.memory.snapshot() == expected.memory.snapshot(), op
