"""OrderlessFL: a federated-learning round on OrderlessChain.

Trainers publish model updates for a round; because every update lands
under the trainer's own key, the round is I-confluent and the
aggregate is identical on every replica regardless of arrival order.

Run:  python examples/federated_learning_round.py
"""

from repro import OrderlessChainNetwork
from repro.bench.config import ExperimentConfig
from repro.contracts import FederatedLearningContract

MODEL = "mnist-cnn"
ROUND = 1


def main() -> None:
    config = ExperimentConfig(num_orgs=4, quorum=2, seed=21, scale=1)
    net = OrderlessChainNetwork(config)
    net.install_contract(FederatedLearningContract)
    print(f"federated learning registry on {config.num_orgs} organizations\n")

    trainers = [net.add_client(f"trainer{i}") for i in range(5)]
    rng = net.rng.stream("scenario")

    def train_and_submit(trainer, base):
        # "Training" produces a small weight vector after a random delay.
        yield net.sim.timeout(rng.uniform(0.5, 6.0))
        weights = [base + 0.1 * i for i in range(4)]
        committed = yield net.sim.process(
            trainer.submit_modify(
                "federated_learning",
                "submit_update",
                {"model": MODEL, "round_id": ROUND, "weights": weights},
            )
        )
        print(f"t={net.sim.now:5.1f}s  {trainer.client_id} published update "
              f"(committed={committed})")

    for index, trainer in enumerate(trainers):
        net.sim.process(train_and_submit(trainer, float(index)))

    net.run(until=30.0)

    aggregator = net.add_client("aggregator")
    progress = net.sim.process(
        aggregator.submit_read(
            "federated_learning", "round_progress", {"model": MODEL, "round_id": ROUND}
        )
    )
    aggregate = net.sim.process(
        aggregator.submit_read(
            "federated_learning", "aggregate", {"model": MODEL, "round_id": ROUND}
        )
    )
    net.run(until=net.sim.now + 10.0)

    print(f"\nround progress (per quorum org): {progress.value}")
    print(f"federated average: {aggregate.value[0]}")
    expected = [sum(float(i) + 0.1 * w for i in range(5)) / 5 for w in range(4)]
    assert aggregate.value[0] == expected
    print(f"matches the order-independent expectation: {expected}")
    print(f"replicas converged: {net.converged()}")


if __name__ == "__main__":
    main()
