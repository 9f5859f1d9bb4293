"""The hot-path crypto caches: the encode-once memo and verify cache.

Both exist purely for speed; these tests pin the property that makes
them safe — a memoized answer is never wrong, in particular a tampered
copy of a payload or a forged signature can never be served the
original's answer.
"""

import copy
import pickle

import pytest

from repro.crdt.clock import OpClock
from repro.crdt.operation import TYPE_MVREGISTER, Operation
from repro.crypto.hashing import (
    GENESIS_HASH,
    Wire,
    canonical_bytes,
    hashing_cache_clear,
    hashing_cache_info,
)
from repro.crypto.identity import CertificateAuthority
from repro.ledger.block import Block
from tests.crypto.reference_encoder import reference_bytes


@pytest.fixture(autouse=True)
def _fresh_counters():
    hashing_cache_clear()
    yield
    hashing_cache_clear()


class TestEncodeOnce:
    def test_wire_renders_once_plain_dict_renders_every_time(self):
        wire = Wire({"op": "inc", "value": 1})
        assert canonical_bytes(wire) == canonical_bytes(wire)
        assert hashing_cache_info() == {"hits": 1, "misses": 1}
        hashing_cache_clear()
        plain = {"op": "inc", "value": 1}
        assert canonical_bytes(plain) == canonical_bytes(plain) == canonical_bytes(wire)
        assert hashing_cache_info() == {"hits": 1, "misses": 2}

    def test_wire_nodes_hit_under_fresh_plain_wrappers(self):
        # The protocol re-wraps the same write-set list in fresh outer
        # dicts (write_set_digest does exactly this): only the wrapper
        # and the list are rendered again, every operation is a hit.
        write_set = [Wire({"op": "inc", "value": index}) for index in range(4)]
        canonical_bytes({"write_set": write_set})
        assert hashing_cache_info() == {"hits": 0, "misses": 6}
        canonical_bytes({"write_set": write_set})  # fresh wrapper dict
        assert hashing_cache_info() == {"hits": 4, "misses": 8}

    def test_memoized_encoding_matches_reference(self):
        payload = Wire(
            {
                "b": [1, 2.5, True, None, "x"],
                "a": Wire({"nested": (1, 2)}),
                1: "int-key",
                "raw": b"\x00\xff",
            }
        )
        expected = reference_bytes(payload)
        assert canonical_bytes(payload) == expected
        assert canonical_bytes(payload) == expected  # slot-read path too

    def test_one_pass_renders_count_the_nodes_they_cover(self):
        # The same content, rendered by the one-pass renderers and then
        # by the generic walk (a deep plain copy, the plain header dict),
        # counts the same container nodes.
        operation = Operation("obj", ("a", "b"), {"k": [1, 2]}, TYPE_MVREGISTER, OpClock("c0", 1))
        wire = operation.to_wire()  # the operation, its clock, path and value's 2
        Block(0, GENESIS_HASH, Wire({"op": wire}), True).block_hash  # header + payload
        one_pass = hashing_cache_info()["misses"]
        hashing_cache_clear()
        canonical_bytes(Block(0, GENESIS_HASH, Wire({"op": copy.deepcopy(wire)}), True).to_wire())
        assert one_pass == hashing_cache_info()["misses"] == 7

    def test_a_clock_renders_once_for_all_its_operations(self):
        clock = OpClock("c0", 1)
        assert clock.to_wire() is clock.to_wire()
        for index in range(3):
            Operation("obj", ("k",), "v", TYPE_MVREGISTER, clock, index).to_wire()
        # Each operation and its path; the shared clock once, then hits.
        assert hashing_cache_info() == {"hits": 2, "misses": 3 * 2 + 1}

    def test_clear_resets_counters(self):
        canonical_bytes({"k": [1, 2, 3]})
        hashing_cache_clear()
        assert hashing_cache_info() == {"hits": 0, "misses": 0}


class TestWireIsImmutable:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda w: w.__setitem__("value", 2),
            lambda w: w.__delitem__("value"),
            lambda w: w.update(value=2),
            lambda w: w.pop("value"),
            lambda w: w.popitem(),
            lambda w: w.setdefault("other", 2),
            lambda w: w.clear(),
            lambda w: w.__ior__({"value": 2}),
        ],
        ids=["setitem", "delitem", "update", "pop", "popitem", "setdefault", "clear", "ior"],
    )
    def test_in_place_mutation_raises(self, mutate):
        wire = Wire({"op": "inc", "value": 1})
        before = canonical_bytes(wire)
        with pytest.raises(TypeError):
            mutate(wire)
        assert wire == {"op": "inc", "value": 1}
        assert canonical_bytes(wire) == before

    every_way_to_copy = pytest.mark.parametrize(
        "duplicate",
        [
            copy.copy,
            copy.deepcopy,
            dict,
            lambda w: {**w},
            lambda w: w.copy(),
            lambda w: w | {},
            lambda w: pickle.loads(pickle.dumps(w)),
        ],
        ids=["copy", "deepcopy", "dict", "unpack", "dict.copy", "or", "pickle"],
    )

    @every_way_to_copy
    def test_copies_are_plain_dicts_without_a_stale_fragment(self, duplicate):
        inner = Wire({"value": 1})
        wire = Wire({"op": "inc", "inner": inner, "items": [1, 2]})
        original = canonical_bytes(wire)  # fills both slots
        clone = duplicate(wire)
        assert type(clone) is dict and clone == wire
        clone["op"] = "dec"  # a copy is free to be edited ...
        assert canonical_bytes(clone) == reference_bytes(clone) != original
        assert canonical_bytes(wire) == original  # ... the original is not touched

    @every_way_to_copy
    def test_copies_carry_no_decoded_object(self, duplicate):
        wire = Operation("obj", ("k",), "v", TYPE_MVREGISTER, OpClock("c0", 1)).to_wire()
        decoded = Operation.from_wire(wire)  # fills the slot
        assert type(wire) is Wire and wire.decoded is decoded
        clone = duplicate(wire)
        assert type(clone) is dict and not hasattr(clone, "decoded")
        clone["value"] = "tampered"
        assert Operation.from_wire(clone).value == "tampered"
        assert Operation.from_wire(clone) is not Operation.from_wire(clone)
        assert Operation.from_wire(wire) is decoded and decoded.value == "v"

    def test_deepcopy_and_pickle_also_unwrap_nested_wires(self):
        wire = Wire({"inner": Wire({"value": 1})})
        canonical_bytes(wire)
        for clone in (copy.deepcopy(wire), pickle.loads(pickle.dumps(wire))):
            assert type(clone["inner"]) is dict
            clone["inner"]["value"] = 2
            assert canonical_bytes(clone) == b'{"inner":{"value":2}}'


class TestVerifyCache:
    def _ca_and_identity(self):
        ca = CertificateAuthority()
        identity = ca.enroll("org1", "organization", seed=b"org1-seed")
        return ca, identity

    def test_repeat_verification_is_cached(self):
        ca, identity = self._ca_and_identity()
        payload = {"digest": "abc", "proposal_id": "c0:1"}
        signature = identity.sign(payload)
        assert ca.verify("org1", payload, signature)
        assert ca.verify_cache_misses == 1
        assert ca.verify("org1", payload, signature)
        assert ca.verify_cache_hits == 1
        assert ca.verify_cache_misses == 1

    def test_forged_signature_is_never_served_as_valid(self):
        ca, identity = self._ca_and_identity()
        payload = {"digest": "abc", "proposal_id": "c0:1"}
        signature = identity.sign(payload)
        assert ca.verify("org1", payload, signature)  # warm the cache
        forged = signature[:-1] + ("0" if signature[-1] != "0" else "1")
        assert not ca.verify("org1", payload, forged)
        # The forged outcome is cached too — still as invalid.
        assert not ca.verify("org1", payload, forged)

    def test_tampered_payload_is_never_served_as_valid(self):
        ca, identity = self._ca_and_identity()
        payload = {"digest": "abc", "proposal_id": "c0:1"}
        signature = identity.sign(payload)
        assert ca.verify("org1", payload, signature)
        assert not ca.verify("org1", {"digest": "abd", "proposal_id": "c0:1"}, signature)

    def test_revocation_wins_over_a_cached_valid_outcome(self):
        ca, identity = self._ca_and_identity()
        payload = {"digest": "abc", "proposal_id": "c0:1"}
        signature = identity.sign(payload)
        assert ca.verify("org1", payload, signature)
        ca.revoke("org1")
        assert not ca.verify("org1", payload, signature)

    def test_unknown_identity_is_not_cached(self):
        ca, _ = self._ca_and_identity()
        assert not ca.verify("ghost", {"x": 1}, "sig")
        assert ca.verify_cache_misses == 0
        assert ca.verify_cache_hits == 0

    def test_cache_epoch_eviction(self):
        ca, identity = self._ca_and_identity()
        ca.VERIFY_CACHE_MAX = 4
        signatures = []
        for index in range(6):
            payload = {"digest": str(index), "proposal_id": f"c0:{index}"}
            signatures.append((payload, identity.sign(payload)))
            assert ca.verify("org1", payload, signatures[-1][1])
        assert len(ca._verify_cache) <= 4
        # Evicted entries simply re-verify — still correct.
        for payload, signature in signatures:
            assert ca.verify("org1", payload, signature)
