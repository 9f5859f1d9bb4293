"""Cold-chain monitoring across a network partition.

The paper's IoT supply-chain proof of concept: sensors record
temperatures of a shipment while it travels. Mid-journey the network
partitions (ship at sea); both sides keep accepting I-confluent
updates, and when connectivity returns the replicas merge — the CAP
behaviour Section 3 describes, made concrete.

Run:  python examples/supply_chain_monitor.py
"""

from repro import OrderlessChainNetwork
from repro.bench.config import ExperimentConfig
from repro.contracts import SupplyChainContract

SHIPMENT = "vaccines-042"


def main() -> None:
    # Every client retries and avoids organizations that misbehave.
    config = ExperimentConfig(
        num_orgs=6, quorum=2, seed=9, scale=1, max_retries=6, avoid_byzantine=True
    )
    net = OrderlessChainNetwork(config)
    net.install_contract(lambda: SupplyChainContract(max_temperature=8.0))
    print(f"supply chain on {config.num_orgs} organizations, policy {net.policy}")

    port_sensor = net.add_client("sensor-port")
    ship_sensor = net.add_client("sensor-ship")
    courier = net.add_client("courier")

    # Partition groups: the "shore" side and the "ship" side both keep
    # at least q=2 organizations, so both stay available.
    shore = set(net.node_ids[:3]) | {"sensor-port", "courier"}
    ship = set(net.node_ids[3:]) | {"sensor-ship"}

    def reading(sensor, reading_id, temperature):
        return net.sim.process(
            sensor.submit_modify(
                "supply_chain",
                "record_reading",
                {"shipment": SHIPMENT, "reading_id": reading_id, "temperature": temperature},
            )
        )

    def scenario():
        # Loading at the port: all fine.
        yield reading(port_sensor, "r1", 4.5)
        yield net.sim.process(
            courier.submit_modify(
                "supply_chain", "transfer_custody", {"shipment": SHIPMENT, "holder": "mv-aurora"}
            )
        )
        # The ship sails: partition.
        net.network.partition(shore, ship)
        print(f"t={net.sim.now:5.1f}s  ship sails - network partitioned")
        # Readings continue on BOTH sides of the partition.
        yield reading(ship_sensor, "r2", 6.0)
        yield reading(ship_sensor, "r3", 11.2)  # violation at sea!
        yield reading(port_sensor, "r4", 5.0)  # warehouse spot check logs too
        # The ship docks: partition heals, anti-entropy merges states.
        net.network.heal_partition()
        print(f"t={net.sim.now:5.1f}s  ship docks - partition healed")

    net.sim.process(scenario())
    net.run(until=90.0)

    print(f"\nreplicas converged after healing: {net.converged()}")
    org = net.organizations[0]
    reader = net.add_client("auditor")
    audit = net.sim.process(
        reader.submit_read("supply_chain", "shipment_health", {"shipment": SHIPMENT})
    )
    net.run(until=net.sim.now + 10.0)
    health = audit.value[0]
    print(f"shipment health at audit: {health}")
    assert health["readings"] == 4
    assert health["violations"] == 1
    print("the at-sea temperature violation survived the partition: "
          "the shipment is flagged")


if __name__ == "__main__":
    main()
