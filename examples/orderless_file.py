"""OrderlessFile: trusted distributed file storage with receipt audits.

Two users sync files through the OrderlessFile contract; a concurrent
write to the same path surfaces as a conflict (both versions kept, as
a sync service would show "conflicted copies"). The client archives
its commit receipts and later audits an organization's ledger — a
tampered ledger is caught by the receipt's block hash (Section 4).

Run:  python examples/orderless_file.py
"""

from repro import OrderlessChainNetwork
from repro.bench.config import ExperimentConfig
from repro.core.audit import audit_receipt
from repro.core.transaction import Receipt
from repro.contracts import FileStorageContract

VOLUME = "team-share"


def main() -> None:
    config = ExperimentConfig(num_orgs=4, quorum=2, seed=8, scale=1)
    net = OrderlessChainNetwork(config)
    net.install_contract(FileStorageContract)
    print(f"OrderlessFile volume on {config.num_orgs} organizations, policy {net.policy}\n")

    alice = net.add_client("alice")
    bob = net.add_client("bob")

    def put(client, path, content):
        return net.sim.process(
            client.submit_modify(
                "file_storage",
                "put_file",
                {
                    "volume": VOLUME,
                    "path": path,
                    "content_hash": FileStorageContract.content_hash(content),
                    "size": len(content),
                },
            )
        )

    def scenario():
        yield put(alice, "/notes.md", b"alice's notes v1")
        yield put(bob, "/todo.md", b"bob's list")
        # Concurrent edit of the same path from both users.
        race_a = put(alice, "/shared.md", b"alice's draft")
        race_b = put(bob, "/shared.md", b"bob's draft")
        yield race_a
        yield race_b
        yield net.sim.timeout(5.0)  # gossip settles
        listing = yield net.sim.process(alice.submit_read("file_storage", "list_files", {"volume": VOLUME}))
        conflict = yield net.sim.process(
            alice.submit_read("file_storage", "stat_file", {"volume": VOLUME, "path": "/shared.md"})
        )
        return listing, conflict

    process = net.sim.process(scenario())
    net.run(until=60.0)
    listing, conflict = process.value
    print(f"volume listing: {listing[0]}")
    print(f"/shared.md resolves to: {conflict[0]}")
    assert isinstance(conflict[0], list) and len(conflict[0]) == 2, "both versions kept"
    print("concurrent writers' versions both survive (application-level merge)\n")

    # --- receipt audit --------------------------------------------------
    org = next(o for o in net.organizations if o.ledger.has_transaction("alice:1"))
    block = org.ledger.log.find_payload(
        lambda payload: payload.get("proposal", {}).get("client_id") == "alice"
    )
    receipt = Receipt.create(org.identity, "alice:1", block.block_hash, valid=True)
    clean = audit_receipt(receipt, org.ledger, net.ca)
    print(f"audit of {org.org_id} before tampering: clean={clean.clean}")

    org.ledger.log.tamper(block.height, {"forged": "evil content"})
    dirty = audit_receipt(receipt, org.ledger, net.ca)
    print(f"audit of {org.org_id} after tampering:  clean={dirty.clean} ({dirty.detail})")
    assert clean.clean and not dirty.clean
    print("\nretroactive ledger tampering is detected by the archived receipt")


if __name__ == "__main__":
    main()
