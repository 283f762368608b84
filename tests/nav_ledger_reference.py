"""Full-recharge reference implementation of ``NavLedger`` memory charging.

``FullRechargeLedger`` is the navigation ledger as shipped before updates
charged only the fields they change: every ``create``, ``update`` and
``transfer`` rewrites all of the record's memory names in ``_RECORD_FIELDS``
order (23 writes per record).  The property suite uses it as the oracle the
shipped ledger must match, owner by owner, in ``current_bits``, ``peak_bits``
and stored values after every operation.
"""

from __future__ import annotations

from typing import Dict

from repro.agents.agent import Agent
from repro.core.navigation import _MAX_LIST_LEN, _RECORD_FIELDS, NavRecord


class FullRechargeLedger:
    """Per-node records, each fully recharged to its owner on every change."""

    def __init__(self) -> None:
        self._records: Dict[int, NavRecord] = {}
        self._owners: Dict[int, Agent] = {}

    def create(self, node: int, owner: Agent, **initial) -> NavRecord:
        record = NavRecord(**initial)
        self._records[node] = record
        self._owners[node] = owner
        self._charge(node, owner, record)
        return record

    def transfer(self, node: int, new_owner: Agent) -> None:
        record = self._records[node]
        self._discharge(node, self._owners[node])
        self._owners[node] = new_owner
        self._charge(node, new_owner, record)

    def update(self, node: int, **changes) -> None:
        record = self._records[node]
        for name, value in changes.items():
            setattr(record, name, value)
        self._charge(node, self._owners[node], record)

    def append_child_port(self, node: int, port: int) -> None:
        self.update(node, child_group=self._records[node].child_group + [port])

    def append_sibling_port(self, node: int, port: int) -> None:
        self.update(node, sibling_group=self._records[node].sibling_group + [port])

    @staticmethod
    def _field_names(node: int):
        for name, kind, is_list in _RECORD_FIELDS:
            if is_list:
                for i in range(_MAX_LIST_LEN[name]):
                    yield f"nav[{node}].{name}[{i}]", kind, name, i
            else:
                yield f"nav[{node}].{name}", kind, name, None

    def _charge(self, node: int, owner: Agent, record: NavRecord) -> None:
        for mem_name, kind, attr, index in self._field_names(node):
            value = getattr(record, attr)
            if index is not None:
                value = value[index] if index < len(value) else None
            if value is None:
                owner.memory.declare(mem_name, kind)
                owner.memory.write(mem_name, None)
            else:
                owner.memory.write(mem_name, value, kind)

    def _discharge(self, node: int, owner: Agent) -> None:
        for mem_name, kind, _attr, _index in self._field_names(node):
            owner.memory.declare(mem_name, kind)
            owner.memory.write(mem_name, None)
