"""Workload generation.

A workload submits modify- and read-transactions at a configured total
arrival rate, uniformly spaced in time, with each transaction's kind
drawn by the modify ratio and its parameters drawn uniformly from the
application's predefined values (Section 9: 1000 clients; 1000 voters,
eight elections, eight parties; 1000 bidders, eight auctions).

Because OrderlessChain contracts and the read/write-set contracts of
the baselines take slightly different parameters, each application has
one generator producing both forms.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Tuple

from repro.bench.config import ExperimentConfig
from repro.errors import ConfigError

Invocation = Tuple[str, str, Dict[str, Any]]  # (contract_id, function, params)


class AppWorkload:
    """Parameter generator for one application."""

    def orderless_modify(self, rng: random.Random, client_id: str) -> Invocation:
        raise NotImplementedError

    def orderless_read(self, rng: random.Random, client_id: str) -> Invocation:
        raise NotImplementedError

    def baseline_modify(self, rng: random.Random, client_id: str) -> Dict[str, Any]:
        raise NotImplementedError

    def baseline_read(self, rng: random.Random, client_id: str) -> Dict[str, Any]:
        raise NotImplementedError

    def arguments(self, kind: str, orderless: bool, rng: random.Random, client_id: str) -> tuple:
        """The arguments of the client's ``submit_<kind>`` for one
        transaction: an :data:`Invocation` for OrderlessChain, a
        one-element tuple of read/write-set params for a baseline."""
        if orderless:
            make = self.orderless_modify if kind == "modify" else self.orderless_read
            return make(rng, client_id)
        make = self.baseline_modify if kind == "modify" else self.baseline_read
        return (make(rng, client_id),)


def _scaled_pool(size: int, scale: float) -> int:
    """Shrink a key pool with the scale factor.

    Dividing arrival rates by ``scale`` would divide the per-key load
    and understate contention (MVCC conflicts, per-document growth);
    shrinking the key pool by the same factor keeps per-key rates — and
    therefore conflict probabilities and state-growth rates — at their
    paper-scale values.
    """
    return max(1, round(size / scale))


class SyntheticWorkload(AppWorkload):
    """The controlled synthetic application (Table 2 rows 4-6)."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.obj_count = config.obj_count
        self.ops_per_obj = config.ops_per_obj
        self.crdt_type = config.crdt_type
        self.object_pool = max(_scaled_pool(config.object_pool, config.scale), config.obj_count)

    def _objects(self, rng: random.Random) -> list[int]:
        return rng.sample(range(self.object_pool), self.obj_count)

    def orderless_modify(self, rng: random.Random, client_id: str) -> Invocation:
        return (
            "synthetic",
            "modify",
            {
                "object_indexes": self._objects(rng),
                "ops_per_object": self.ops_per_obj,
                "crdt_type": self.crdt_type,
            },
        )

    def orderless_read(self, rng: random.Random, client_id: str) -> Invocation:
        return ("synthetic", "read", {"object_indexes": self._objects(rng)})

    def baseline_modify(self, rng: random.Random, client_id: str) -> Dict[str, Any]:
        return {"object_indexes": self._objects(rng), "client_id": client_id}

    def baseline_read(self, rng: random.Random, client_id: str) -> Dict[str, Any]:
        return {"object_indexes": self._objects(rng)}


class VotingWorkload(AppWorkload):
    """Voting: each client is a voter; uniform election/party choice."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.elections = [f"e{i}" for i in range(_scaled_pool(config.elections, config.scale))]
        self.parties = [f"party{i}" for i in range(config.parties)]

    def _pick(self, rng: random.Random) -> Tuple[str, str]:
        return rng.choice(self.elections), rng.choice(self.parties)

    def orderless_modify(self, rng: random.Random, client_id: str) -> Invocation:
        election, party = self._pick(rng)
        return ("voting", "vote", {"party": party, "election": election})

    def orderless_read(self, rng: random.Random, client_id: str) -> Invocation:
        election, party = self._pick(rng)
        return ("voting", "read_vote_count", {"party": party, "election": election})

    def baseline_modify(self, rng: random.Random, client_id: str) -> Dict[str, Any]:
        election, party = self._pick(rng)
        return {"voter": client_id, "party": party, "election": election}

    def baseline_read(self, rng: random.Random, client_id: str) -> Dict[str, Any]:
        election, party = self._pick(rng)
        return {"party": party, "election": election}


class AuctionWorkload(AppWorkload):
    """Auction: each client is a bidder with a growing cumulative bid."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.auctions = [f"a{i}" for i in range(_scaled_pool(config.auctions, config.scale))]
        # bidder -> auction -> cumulative bid (the state-based
        # FabricCRDT baseline sends cumulative values).
        self._cumulative: Dict[str, Dict[str, float]] = {}

    def _bid(self, rng: random.Random, client_id: str) -> Tuple[str, float, float]:
        auction = rng.choice(self.auctions)
        amount = float(rng.randint(1, 10))
        per_client = self._cumulative.setdefault(client_id, {})
        per_client[auction] = per_client.get(auction, 0.0) + amount
        return auction, amount, per_client[auction]

    def orderless_modify(self, rng: random.Random, client_id: str) -> Invocation:
        auction, amount, _ = self._bid(rng, client_id)
        return ("auction", "bid", {"auction": auction, "amount": amount})

    def orderless_read(self, rng: random.Random, client_id: str) -> Invocation:
        return ("auction", "get_highest_bid", {"auction": rng.choice(self.auctions)})

    def baseline_modify(self, rng: random.Random, client_id: str) -> Dict[str, Any]:
        auction, amount, cumulative = self._bid(rng, client_id)
        return {
            "auction": auction,
            "bidder": client_id,
            "amount": amount,
            "cumulative": cumulative,
        }

    def baseline_read(self, rng: random.Random, client_id: str) -> Dict[str, Any]:
        return {"auction": rng.choice(self.auctions)}


class ChannelWorkload(AppWorkload):
    """An application workload addressed to one channel.

    Wraps a plain :class:`AppWorkload` and rewrites the contract id of
    every OrderlessChain invocation to the channel-scoped form
    (``"<channel>:<contract_id>"``, see
    :func:`repro.core.contract.scoped_contract_id`), so mixed-application
    traffic reaches the contract installed on that channel. Baselines have no channels, so it
    has no baseline forms.
    """

    def __init__(self, channel_id: str, inner: AppWorkload) -> None:
        self.channel_id = channel_id
        self.inner = inner

    def _scope(self, invocation: Invocation) -> Invocation:
        from repro.core.contract import scoped_contract_id

        contract_id, function, params = invocation
        return scoped_contract_id(self.channel_id, contract_id), function, params

    def orderless_modify(self, rng: random.Random, client_id: str) -> Invocation:
        return self._scope(self.inner.orderless_modify(rng, client_id))

    def orderless_read(self, rng: random.Random, client_id: str) -> Invocation:
        return self._scope(self.inner.orderless_read(rng, client_id))


def make_workload(config: ExperimentConfig) -> AppWorkload:
    if config.app == "synthetic":
        return SyntheticWorkload(config)
    if config.app == "voting":
        return VotingWorkload(config)
    if config.app == "auction":
        return AuctionWorkload(config)
    raise ConfigError(f"unknown app {config.app!r}")


__all__ = [
    "AppWorkload",
    "AuctionWorkload",
    "ChannelWorkload",
    "Invocation",
    "SyntheticWorkload",
    "VotingWorkload",
    "make_workload",
]
