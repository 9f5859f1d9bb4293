"""The Smart Contract Library (SCL, Section 6).

Developers subclass :class:`SmartContract` and implement functions as
methods registered with :func:`modify_function` / :func:`read_function`
decorators. Modify functions receive a :class:`ContractContext` whose
CRDT APIs create I-confluent operations (Table 1); read functions
retrieve CRDT values from the ledger with no side effects.

Determinism contract: a modify function must derive its write-set
*only* from the invocation parameters and the client's clock — never
from local state — because every endorsing organization must produce an
identical write-set for the transaction to assemble (Section 4, commit
phase). The context enforces this by refusing reads during modify
execution.

Channels: several applications can share one network, each installed
on a named channel. A channel scopes the contract id
(``"<channel>:<contract_id>"``, the routing key of proposals, commits
and reads) and the contract's object ids (``"<channel>/<object_id>"``,
prefixed by :class:`ContractContext` on writes and reads), so two
channels running the same application keep disjoint state in an
organization's one ledger. The default channel leaves both bare.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.crdt.clock import OpClock
from repro.crdt.operation import TYPE_GCOUNTER, TYPE_MAP, TYPE_MVREGISTER, Operation
from repro.errors import ContractError

#: The channel a contract is installed on unless another is named; its
#: contract and object ids stay bare.
DEFAULT_CHANNEL = "default"


def scoped_contract_id(channel_id: str, contract_id: str) -> str:
    """The network-wide unique contract id for a channel-bound contract
    (idempotent: an id already scoped to the channel is kept)."""
    if channel_id == DEFAULT_CHANNEL or contract_id.startswith(f"{channel_id}:"):
        return contract_id
    return f"{channel_id}:{contract_id}"


class StateReader:
    """Read access to an organization's application state."""

    def __init__(self, read_callback: Callable[[str, tuple], Any]) -> None:
        self._read = read_callback

    def read(self, object_id: str, path: Iterable[str] = ()) -> Any:
        """Table 1's read API: resolved CRDT value, no side effects."""
        return self._read(object_id, tuple(path))


class ContractContext:
    """Execution context handed to smart-contract functions.

    For modify functions it accumulates the write-set; for read
    functions it exposes :attr:`state`. On a non-default ``channel``
    every object id the contract names, written or read, is prefixed
    with ``"<channel>/"``.
    """

    def __init__(
        self,
        client_id: str,
        clock: OpClock,
        state: Optional[StateReader] = None,
        allow_reads: bool = False,
        channel: str = DEFAULT_CHANNEL,
    ) -> None:
        self.client_id = client_id
        self.clock = clock
        self._prefix = "" if channel == DEFAULT_CHANNEL else f"{channel}/"
        if state is not None and self._prefix:
            read, prefix = state.read, self._prefix
            state = StateReader(lambda object_id, path: read(prefix + object_id, path))
        self._state = state
        self._allow_reads = allow_reads
        self._write_set: List[Operation] = []

    # -- CRDT modification APIs (Table 1) ---------------------------------

    def add_value(self, object_id: str, value: float, path: Iterable[str] = ()) -> None:
        """G-Counter ``AddValue(value, clock)``."""
        self._emit(object_id, path, value, TYPE_GCOUNTER)

    def insert_value(self, object_id: str, key: str, value: Any, path: Iterable[str] = ()) -> None:
        """CRDT Map ``InsertValue(key, value, clock)``.

        The inserted value behaves as an MV-Register at ``key`` (null
        deletes); ``path`` addresses a nested map.
        """
        self._emit(object_id, tuple(path) + (str(key),), value, TYPE_MVREGISTER)

    def assign_value(self, object_id: str, value: Any, path: Iterable[str] = ()) -> None:
        """MV-Register ``AssignValue(value, clock)``."""
        self._emit(object_id, path, value, TYPE_MVREGISTER)

    def create_map(self, object_id: str, key: str, path: Iterable[str] = ()) -> None:
        """Create a nested map under ``key`` (for complex structures)."""
        self._emit(object_id, path, str(key), TYPE_MAP)

    def _emit(self, object_id: str, path: Iterable[str], value: Any, value_type: str) -> None:
        self._write_set.append(
            Operation(
                object_id=self._prefix + object_id,
                path=tuple(str(part) for part in path),
                value=value,
                value_type=value_type,
                clock=self.clock,
                op_index=len(self._write_set),
            )
        )

    # -- reads ---------------------------------------------------------------

    @property
    def state(self) -> StateReader:
        if not self._allow_reads:
            raise ContractError(
                "modify functions must not read state: endorsing organizations may "
                "hold divergent replicas and would produce mismatching write-sets"
            )
        if self._state is None:
            raise ContractError("no state reader attached to this context")
        return self._state

    # -- results ------------------------------------------------------------

    def write_set(self) -> List[Operation]:
        return list(self._write_set)

    def write_set_wire(self) -> List[Dict[str, Any]]:
        return [op.to_wire() for op in self._write_set]


def modify_function(func: Callable) -> Callable:
    """Mark a contract method as a modify function."""
    func._scl_kind = "modify"
    return func


def read_function(func: Callable) -> Callable:
    """Mark a contract method as a read function."""
    func._scl_kind = "read"
    return func


class SmartContract:
    """Base class for OrderlessChain smart contracts."""

    contract_id: str = ""
    #: Set by ``Organization.install_contract``.
    channel: str = DEFAULT_CHANNEL

    def __init__(self) -> None:
        if not self.contract_id:
            raise ContractError(f"{type(self).__name__} must set contract_id")
        self._functions: Dict[str, tuple[str, Callable]] = {}
        for name in dir(self):
            attr = getattr(self, name)
            kind = getattr(attr, "_scl_kind", None)
            if kind is not None:
                self._functions[name] = (kind, attr)

    def functions(self) -> Dict[str, str]:
        """Function name -> kind ("modify" or "read")."""
        return {name: kind for name, (kind, _) in sorted(self._functions.items())}

    def function_kind(self, function: str) -> str:
        if function not in self._functions:
            raise ContractError(f"{self.contract_id}: unknown function {function!r}")
        return self._functions[function][0]

    def execute(self, context: ContractContext, function: str, params: Dict[str, Any]) -> Any:
        """Invoke a contract function with the given context."""
        if function not in self._functions:
            raise ContractError(f"{self.contract_id}: unknown function {function!r}")
        _, bound = self._functions[function]
        return bound(context, **params)


__all__ = [
    "DEFAULT_CHANNEL",
    "ContractContext",
    "SmartContract",
    "StateReader",
    "modify_function",
    "read_function",
    "scoped_contract_id",
]
