"""Baseline systems the paper compares against (Section 9).

* :mod:`repro.baselines.fabric` — Hyperledger Fabric:
  execute → order (Solo ordering service) → MVCC-validate → commit;
* :mod:`repro.baselines.fabric_crdt` — FabricCRDT: the ordering
  pipeline of Fabric, but commits merge state-based JSON CRDTs instead
  of performing MVCC validation;
* :mod:`repro.baselines.bidl` — BIDL: a central sequencer plus
  parallel execution and coordination-based consensus, designed for
  data-center networks;
* :mod:`repro.baselines.sync_hotstuff` — Sync HotStuff: synchronous
  leader-based BFT state-machine replication (commit after 2Δ).

As in the paper, these are reimplementations of each system's
*concepts* (the coordination structure that determines performance),
not of every production feature. Each system file keeps only that
structure; all four run on one skeleton in
:mod:`repro.baselines.common` — one network shell
(:class:`BaselineNetwork`, built like every network straight from the
:class:`~repro.bench.config.ExperimentConfig`), one ordered-log source
with its repair protocol (:class:`~repro.baselines.common.OrderedLog`)
and one client per pipeline shape (submit-and-await for BIDL and Sync
HotStuff, endorse-order-await for the Fabric pair). :data:`BASELINES`
maps each system name to its network class.
"""

from repro.baselines.bidl import BIDLNetwork
from repro.baselines.common import BaselineNetwork
from repro.baselines.fabric import FabricNetwork
from repro.baselines.fabric_crdt import FabricCRDTNetwork
from repro.baselines.sync_hotstuff import SyncHotStuffNetwork

# System name (``ExperimentConfig.system``) → network class.
BASELINES = {
    cls.system: cls
    for cls in (FabricNetwork, FabricCRDTNetwork, BIDLNetwork, SyncHotStuffNetwork)
}

__all__ = [
    "BASELINES",
    "BIDLNetwork",
    "BaselineNetwork",
    "FabricCRDTNetwork",
    "FabricNetwork",
    "SyncHotStuffNetwork",
]
