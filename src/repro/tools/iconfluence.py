"""Empirical invariant-confluence checking for smart contracts.

"Developers who define the logic for creating operations in a smart
contract must implement the identified invariants as I-confluent
operations" (Section 7) — and the paper's Discussion points to tools
like Lucy "for determining whether invariant conditions are
I-confluent". This module provides a lightweight, empirical version of
that check for contracts written against the SCL:

given a set of invocations and an invariant predicate over the
application state, it executes the contract to obtain the write-sets,
then replays them in many interleavings — different total orders and
different replica partitions that heal by exchanging write-sets, as
anti-entropy does — and verifies that

1. **convergence** — every order yields the same final state
   (commutativity, Lemma 6.1), and
2. **invariant preservation** — the invariant holds in every reachable
   intermediate state on every replica (the I-confluence condition:
   invariants must survive partial delivery, not just the final state).

A failed check returns a concrete counterexample. The check is
empirical, not a proof: passing means no violation was found over the
sampled interleavings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.contract import ContractContext, SmartContract
from repro.crdt.clock import LamportClock
from repro.crdt.operation import Operation
from repro.crdt.store import CRDTStore

Invocation = Tuple[str, str, Dict[str, Any]]  # (client_id, function, params)
Invariant = Callable[[CRDTStore], bool]


@dataclass
class IConfluenceReport:
    """Outcome of an empirical I-confluence check."""

    convergent: bool
    invariant_preserved: bool
    trials: int
    violation: Optional[str] = None
    write_set_count: int = 0

    @property
    def i_confluent(self) -> bool:
        """The headline verdict: convergent and invariant-preserving."""
        return self.convergent and self.invariant_preserved


def _execute_invocations(
    contract: SmartContract, invocations: Sequence[Invocation]
) -> List[List[Operation]]:
    """Run each invocation through the contract; collect write-sets."""
    clocks: Dict[str, LamportClock] = {}
    write_sets: List[List[Operation]] = []
    for client_id, function, params in invocations:
        clock = clocks.setdefault(client_id, LamportClock(client_id))
        context = ContractContext(client_id, clock.tick())
        contract.execute(context, function, dict(params))
        write_sets.append(context.write_set())
    return write_sets


def _apply_with_invariant(
    write_sets: Sequence[List[Operation]], invariant: Optional[Invariant]
) -> Tuple[CRDTStore, Optional[int]]:
    """Apply write-sets in order; return the store and the index of the
    first write-set after which the invariant failed (or None)."""
    store = CRDTStore()
    for index, write_set in enumerate(write_sets):
        store.apply(write_set)
        if invariant is not None and not invariant(store):
            return store, index
    return store, None


def check_iconfluence(
    contract: SmartContract,
    invocations: Sequence[Invocation],
    invariant: Optional[Invariant] = None,
    trials: int = 50,
    seed: int = 0,
) -> IConfluenceReport:
    """Empirically check a contract's I-confluence.

    Args:
        contract: the smart contract under test.
        invocations: ``(client_id, function, params)`` transactions; a
            client's invocations keep their submission (happened-
            before) order within every sampled interleaving, because
            the protocol assembles each client's transactions with
            strictly increasing clocks.
        invariant: predicate over a :class:`CRDTStore`; ``None`` checks
            convergence only.
        trials: number of random interleavings (plus partition/heal
            schedules) to sample.
        seed: RNG seed for reproducibility.
    """
    rng = random.Random(seed)
    write_sets = _execute_invocations(contract, invocations)
    baseline_store, violated_at = _apply_with_invariant(write_sets, invariant)
    baseline = baseline_store.snapshot()
    if violated_at is not None:
        return IConfluenceReport(
            convergent=True,
            invariant_preserved=False,
            trials=0,
            violation=(
                f"invariant violated already in submission order, after write-set "
                f"{violated_at} ({invocations[violated_at]})"
            ),
            write_set_count=len(write_sets),
        )

    indexed = list(enumerate(write_sets))
    clients = [invocation[0] for invocation in invocations]
    for trial in range(trials):
        order = _client_order_preserving_shuffle(indexed, clients, rng)
        # (a) one replica receiving this order.
        store, violated_at = _apply_with_invariant([ws for _, ws in order], invariant)
        if violated_at is not None:
            original_index = order[violated_at][0]
            return IConfluenceReport(
                convergent=True,
                invariant_preserved=False,
                trials=trial + 1,
                violation=(
                    f"invariant violated in a reordered delivery after transaction "
                    f"{invocations[original_index]}"
                ),
                write_set_count=len(write_sets),
            )
        if store.snapshot() != baseline:
            return IConfluenceReport(
                convergent=False,
                invariant_preserved=True,
                trials=trial + 1,
                violation="reordered delivery produced a divergent final state",
                write_set_count=len(write_sets),
            )
        # (b) two replicas, partitioned delivery, then the partition
        # heals: left receives the write-sets only right had.
        split = rng.randint(0, len(order))
        left, _ = _apply_with_invariant([ws for _, ws in order[:split]], invariant)
        right, violated_at = _apply_with_invariant([ws for _, ws in order[split:]], invariant)
        if violated_at is not None:
            original_index = order[split + violated_at][0]
            return IConfluenceReport(
                convergent=True,
                invariant_preserved=False,
                trials=trial + 1,
                violation=(
                    f"invariant violated on a partitioned replica after transaction "
                    f"{invocations[original_index]}"
                ),
                write_set_count=len(write_sets),
            )
        for _, write_set in order[split:]:
            left.apply(write_set)
        if invariant is not None and not invariant(left):
            return IConfluenceReport(
                convergent=True,
                invariant_preserved=False,
                trials=trial + 1,
                violation="invariant violated after healing two partitions",
                write_set_count=len(write_sets),
            )
        if left.snapshot() != baseline:
            return IConfluenceReport(
                convergent=False,
                invariant_preserved=True,
                trials=trial + 1,
                violation="partition healing produced a divergent final state",
                write_set_count=len(write_sets),
            )
    return IConfluenceReport(
        convergent=True,
        invariant_preserved=True,
        trials=trials,
        write_set_count=len(write_sets),
    )


def _client_order_preserving_shuffle(
    indexed: List[Tuple[int, List[Operation]]],
    clients: Sequence[str],
    rng: random.Random,
) -> List[Tuple[int, List[Operation]]]:
    """Shuffle write-sets, keeping each client's own order intact.

    A client's later transactions carry higher Lamport clocks and are
    sent after earlier ones, so any *network* reordering still delivers
    per-client sequences in order relative to... other replicas may see
    them in any order; we model the general case where cross-client
    order is arbitrary but each client's stream stays FIFO per replica
    (endorsement and commit round-trips serialize a client's own
    transactions).
    """
    per_client: Dict[str, List[Tuple[int, List[Operation]]]] = {}
    for (index, write_set), client in zip(indexed, clients):
        per_client.setdefault(client, []).append((index, write_set))
    # Interleave the per-client queues randomly.
    queues = [list(items) for items in per_client.values()]
    result: List[Tuple[int, List[Operation]]] = []
    while queues:
        queue = rng.choice(queues)
        result.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return result


__all__ = ["IConfluenceReport", "check_iconfluence"]
