"""Layer kernels: direct timing of each layer's public functions.

One number per kernel, nanoseconds per operation, on fixed inputs. A
kernel is a ``prepare`` function: it builds fresh inputs (untimed) and
returns the closure that is timed. Each kernel runs :data:`BATCHES`
times and reports the fastest batch — the program is deterministic and
single-threaded, so a slower batch only says the host was busy.

These are the layer-local instruments. They explain a change in the
end-to-end ``wall_s``; they never stand in for it (see README.md,
"How the metrics interact").
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Callable, Dict, List, Tuple

BATCHES = 5
SMOKE_SHRINK = 50

Prepare = Callable[[], Callable[[], Any]]


def _best_ns_per_op(prepare: Prepare, ops: int) -> float:
    best = float("inf")
    for _ in range(BATCHES):
        run = prepare()
        started = time.perf_counter_ns()
        run()
        best = min(best, time.perf_counter_ns() - started)
    return best / ops


# -- shared inputs -----------------------------------------------------------


def _transaction_wire(op_count: int = 8, endorsers: int = 4) -> Dict[str, Any]:
    """A transaction-shaped payload: the dominant serialization input.

    The endorsements embed the *same* write-set list, as the protocol's
    wire forms do, so one pass already reuses cached fragments.
    """
    write_set = [
        {
            "object_id": f"obj{index}",
            "path": [],
            "value": index + 1,
            "value_type": "gcounter",
            "clock": {"client_id": "client0", "counter": 1},
            "op_index": index,
        }
        for index in range(op_count)
    ]
    return {
        "proposal": {
            "client_id": "client0",
            "contract_id": "synthetic",
            "function": "modify",
            "params": {"objects": op_count},
            "clock": {"client_id": "client0", "counter": 1},
        },
        "write_set": write_set,
        "endorsements": [
            {
                "org_id": f"org{index}",
                "proposal_id": "client0:1",
                "write_set": write_set,
                "signature": "ab" * 32,
            }
            for index in range(endorsers)
        ],
        "client_signature": "cd" * 32,
    }


def _gcounter_ops(count: int, objects: int = 4, start: int = 0):
    from repro.crdt.clock import OpClock
    from repro.crdt.operation import Operation

    return [
        Operation(f"obj{index % objects}", (), 1, "gcounter", OpClock("client0", start + index + 1))
        for index in range(count)
    ]


def _endorsed_transaction(quorum: int = 8):
    """A real {quorum of 16} transaction and an organization to check it."""
    from repro.api import ExperimentConfig, build_network
    from repro.core.contract import ContractContext
    from repro.core.transaction import Endorsement, Proposal, Transaction

    net = build_network(
        ExperimentConfig(num_orgs=16, quorum=quorum, obj_count=4, scale=20.0, seed=0)
    )
    client = net.clients[0]
    params = {"object_indexes": [0, 1, 2, 3], "ops_per_object": 1, "crdt_type": "gcounter"}
    proposal = Proposal(client.client_id, "synthetic", "modify", params, client.clock.tick())
    context = ContractContext(client.client_id, proposal.clock)
    org = net.organizations[0]
    org.contracts["synthetic"].execute(context, "modify", params)
    write_set = context.write_set_wire()
    endorsements = [
        Endorsement.create(endorser.identity, proposal.proposal_id, write_set)
        for endorser in net.organizations[:quorum]
    ]
    transaction = Transaction.assemble(client.identity, proposal, write_set, endorsements)
    return org, transaction


def _digest_ids(skip_offset: int, clients: int = 10, per_client: int = 100) -> List[str]:
    """1 k transaction ids over 10 clients with 1 % of counters missing."""
    return [
        f"client{client}:{counter}"
        for client in range(clients)
        for counter in range(1, per_client + 1)
        if counter % 100 != skip_offset
    ]


# -- kernels -----------------------------------------------------------------


def sim_event(ops: int) -> Tuple[Prepare, int]:
    from repro.sim.core import Simulator

    def prepare():
        sim = Simulator()

        def tick() -> None:
            if sim.processed_events < ops:
                sim.schedule(0.001, tick)

        for _ in range(32):  # keep the heap non-trivially sized
            sim.schedule(0.0, tick)
        return sim.run

    return prepare, ops


def sim_process_step(ops: int) -> Tuple[Prepare, int]:
    from repro.sim.core import Simulator

    workers = 32
    steps = max(1, ops // workers)

    def prepare():
        sim = Simulator()

        def worker():
            for _ in range(steps):
                yield sim.timeout(0.001)

        for _ in range(workers):
            sim.process(worker())
        return sim.run

    return prepare, workers * steps


def net_send_deliver(ops: int) -> Tuple[Prepare, int]:
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.sim.core import Simulator

    def prepare():
        sim = Simulator()
        network = Network(sim, random.Random(7))
        received = [0]

        def handler(_message) -> None:
            received[0] += 1

        for index in range(8):
            network.register(f"node{index}", handler)

        def run() -> None:
            for index in range(ops):
                network.send(
                    Message(f"node{index % 8}", f"node{(index + 1) % 8}", "bench", {"seq": index})
                )
            sim.run()
            if received[0] != ops:
                raise RuntimeError(f"delivered {received[0]} of {ops} messages")

        return run

    return prepare, ops


def crypto_canonical_fresh(ops: int) -> Tuple[Prepare, int]:
    from repro.crypto.hashing import canonical_bytes

    def prepare():
        payloads = [_transaction_wire() for _ in range(ops)]

        def run() -> None:
            for payload in payloads:
                canonical_bytes(payload)

        return run

    return prepare, ops


def crypto_canonical_repeat(ops: int) -> Tuple[Prepare, int]:
    from repro.crypto.hashing import canonical_bytes

    def prepare():
        payload = _transaction_wire()
        canonical_bytes(payload)

        def run() -> None:
            for _ in range(ops):
                canonical_bytes(payload)

        return run

    return prepare, ops


def _signing_identity():
    from repro.crypto.identity import CertificateAuthority

    ca = CertificateAuthority()
    return ca, ca.enroll("org0", "organization", seed=b"org0")


def crypto_sign(ops: int) -> Tuple[Prepare, int]:
    _, identity = _signing_identity()

    def prepare():
        payloads = [
            {"transaction_id": f"client0:{index}", "digest": "ab" * 32} for index in range(ops)
        ]

        def run() -> None:
            for payload in payloads:
                identity.sign(payload)

        return run

    return prepare, ops


def crypto_verify_fresh(ops: int) -> Tuple[Prepare, int]:
    """One signature checked against content-equal payload copies: the
    shape commit validation produces at every organization."""
    ca, identity = _signing_identity()
    signature = identity.sign({"transaction_id": "client0:1", "digest": "ab" * 32})

    def prepare():
        payloads = [{"transaction_id": "client0:1", "digest": "ab" * 32} for _ in range(ops)]

        def run() -> None:
            for payload in payloads:
                if not ca.verify("org0", payload, signature):
                    raise RuntimeError("valid signature rejected")

        return run

    return prepare, ops


def crypto_verify_repeat(ops: int) -> Tuple[Prepare, int]:
    ca, identity = _signing_identity()
    payload = {"transaction_id": "client0:1", "digest": "ab" * 32}
    signature = identity.sign(payload)

    def prepare():
        def run() -> None:
            for _ in range(ops):
                if not ca.verify("org0", payload, signature):
                    raise RuntimeError("valid signature rejected")

        return run

    return prepare, ops


def crdt_apply_gcounter(ops: int) -> Tuple[Prepare, int]:
    from repro.crdt.store import CRDTStore

    def prepare():
        store = CRDTStore()
        batches = [[operation] for operation in _gcounter_ops(ops)]

        def run() -> None:
            for batch in batches:
                store.apply(batch)

        return run

    return prepare, ops


def crdt_apply_mvregister(ops: int, writers: int = 64) -> Tuple[Prepare, int]:
    """Assign to a register holding ``writers`` concurrent values; each
    write overwrites its own client's value, so the width stays put."""
    from repro.crdt.clock import OpClock
    from repro.crdt.operation import Operation
    from repro.crdt.store import CRDTStore

    def write(index: int):
        return Operation(
            "reg", (), index, "mvregister", OpClock(f"client{index % writers}", index // writers + 1)
        )

    def prepare():
        store = CRDTStore()
        store.apply([write(index) for index in range(writers)])
        batches = [[write(index)] for index in range(writers, writers + ops)]

        def run() -> None:
            for batch in batches:
                store.apply(batch)

        return run

    return prepare, ops


def crdt_apply_map(ops: int) -> Tuple[Prepare, int]:
    from repro.crdt.clock import OpClock
    from repro.crdt.operation import Operation
    from repro.crdt.store import CRDTStore

    def prepare():
        store = CRDTStore()
        batches = [
            [
                Operation(
                    "map", (f"key{index % 256}",), index, "mvregister", OpClock("client0", index + 1)
                )
            ]
            for index in range(ops)
        ]

        def run() -> None:
            for batch in batches:
                store.apply(batch)

        return run

    return prepare, ops


def ledger_commit(ops: int) -> Tuple[Prepare, int]:
    """``Ledger.commit`` of a valid 4-operation transaction."""
    from repro.ledger.ledger import Ledger

    def prepare():
        ledger = Ledger()
        commits = [
            (f"client0:{index}", _gcounter_ops(4, start=4 * index), _transaction_wire(4))
            for index in range(ops)
        ]

        def run() -> None:
            for transaction_id, operations, payload in commits:
                ledger.commit(transaction_id, operations, payload, valid=True)

        return run

    return prepare, ops


def ledger_snapshot(ops: int) -> Tuple[Prepare, int]:
    """``state_snapshot`` of a ledger holding ``ops`` operations."""
    from repro.ledger.ledger import Ledger

    transactions = max(1, ops // 4)
    ledger = Ledger()
    for index in range(transactions):
        ledger.commit(
            f"client0:{index}", _gcounter_ops(4, objects=8, start=4 * index), {"n": index}, valid=True
        )

    def prepare():
        return ledger.state_snapshot

    return prepare, 4 * transactions


def core_txn_from_wire(ops: int) -> Tuple[Prepare, int]:
    from repro.core.transaction import Transaction

    _, transaction = _endorsed_transaction()
    wire = transaction.to_wire()

    def prepare():
        def run() -> None:
            for _ in range(ops):
                Transaction.from_wire(wire)

        return run

    return prepare, ops


def core_validate_txn(ops: int) -> Tuple[Prepare, int]:
    """``Organization.validate_transaction`` of a {8 of 16} transaction
    rebuilt from content-equal fresh wire copies, as each organization
    sees it arrive."""
    from repro.core.transaction import Transaction

    org, transaction = _endorsed_transaction()
    encoded = json.dumps(transaction.to_wire())

    def prepare():
        copies = [Transaction.from_wire(json.loads(encoded)) for _ in range(ops)]

        def run() -> None:
            for copy in copies:
                valid, reason = org.validate_transaction(copy)
                if not valid:
                    raise RuntimeError(f"valid transaction rejected: {reason}")

        return run

    return prepare, ops


def core_digest_add(ops: int) -> Tuple[Prepare, int]:
    from repro.core.antientropy import WatermarkDigest

    ids = _digest_ids(skip_offset=37)
    rounds = max(1, ops // len(ids))

    def prepare():
        def run() -> None:
            for _ in range(rounds):
                digest = WatermarkDigest()
                for txn_id in ids:
                    digest.add(txn_id)

        return run

    return prepare, rounds * len(ids)


def _digest_pair():
    from repro.core.antientropy import WatermarkDigest

    mine, theirs = WatermarkDigest(), WatermarkDigest()
    for txn_id in _digest_ids(skip_offset=37):
        mine.add(txn_id)
    for txn_id in _digest_ids(skip_offset=73):
        theirs.add(txn_id)
    return mine, theirs


def core_digest_difference(ops: int) -> Tuple[Prepare, int]:
    mine, theirs = _digest_pair()

    def prepare():
        def run() -> None:
            for _ in range(ops):
                if len(list(mine.difference(theirs))) != 10:
                    raise RuntimeError("digest difference is wrong")

        return run

    return prepare, ops


def core_digest_wire(ops: int) -> Tuple[Prepare, int]:
    from repro.core.antientropy import WatermarkDigest

    mine, _ = _digest_pair()

    def prepare():
        def run() -> None:
            for _ in range(ops):
                if len(WatermarkDigest.from_wire(mine.to_wire())) != len(mine):
                    raise RuntimeError("digest wire round trip lost ids")

        return run

    return prepare, ops


def contracts_execute(ops: int) -> Tuple[Prepare, int]:
    from repro.contracts.synthetic import SyntheticContract
    from repro.core.contract import ContractContext
    from repro.crdt.clock import OpClock

    contract = SyntheticContract()
    params = {"object_indexes": [0, 1, 2, 3], "ops_per_object": 1, "crdt_type": "gcounter"}

    def prepare():
        def run() -> None:
            for index in range(ops):
                context = ContractContext("client0", OpClock("client0", index + 1))
                contract.execute(context, "modify", params)

        return run

    return prepare, ops


# Metric name -> (kernel, operations per batch at full size). Sizes put
# each batch at roughly 20-60 ms on the reference box.
KERNELS: Dict[str, Tuple[Callable[[int], Tuple[Prepare, int]], int]] = {
    "sim.event_ns": (sim_event, 40_000),
    "sim.process_step_ns": (sim_process_step, 10_000),
    "net.send_deliver_ns": (net_send_deliver, 5_000),
    "crypto.canonical_fresh_ns": (crypto_canonical_fresh, 300),
    "crypto.canonical_repeat_ns": (crypto_canonical_repeat, 50_000),
    "crypto.sign_ns": (crypto_sign, 5_000),
    "crypto.verify_fresh_ns": (crypto_verify_fresh, 5_000),
    "crypto.verify_repeat_ns": (crypto_verify_repeat, 20_000),
    "crdt.apply_gcounter_ns": (crdt_apply_gcounter, 20_000),
    "crdt.apply_mvregister_ns": (crdt_apply_mvregister, 1_000),
    "crdt.apply_map_ns": (crdt_apply_map, 10_000),
    "ledger.commit_ns": (ledger_commit, 400),
    "ledger.snapshot_ns_per_op": (ledger_snapshot, 4_000),
    "core.txn_from_wire_ns": (core_txn_from_wire, 2_000),
    "core.validate_txn_ns": (core_validate_txn, 300),
    "core.digest_add_ns": (core_digest_add, 20_000),
    "core.digest_difference_ns": (core_digest_difference, 500),
    "core.digest_wire_ns": (core_digest_wire, 500),
    "contracts.execute_ns": (contracts_execute, 1_500),
}


def run_kernels(smoke: bool = False) -> Dict[str, float]:
    """Every kernel's best ns/op; ``smoke`` runs them at 1/50 size."""
    results: Dict[str, float] = {}
    for name, (kernel, ops) in KERNELS.items():
        prepare, counted = kernel(max(1, ops // SMOKE_SHRINK) if smoke else ops)
        results[name] = _best_ns_per_op(prepare, counted)
    return results


__all__ = ["BATCHES", "KERNELS", "run_kernels"]
