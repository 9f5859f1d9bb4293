"""Property-based tests for the ledger substrate."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ledger import HashChainLog

keys = st.text(alphabet="abcdef/0123456789", min_size=1, max_size=8)


class TestHashChainProperties:
    @settings(deadline=None)
    @given(st.lists(st.dictionaries(keys, st.integers(), max_size=3), max_size=20))
    def test_appended_chain_always_verifies(self, payloads):
        log = HashChainLog()
        for payload in payloads:
            log.append(payload, valid=True)
        log.verify()
        assert len(log) == len(payloads)

    @settings(deadline=None)
    @given(
        st.lists(st.dictionaries(keys, st.integers(), max_size=2), min_size=2, max_size=12),
        st.data(),
    )
    def test_any_non_head_tamper_is_detected(self, payloads, data):
        import pytest

        from repro.errors import LedgerError

        log = HashChainLog()
        for payload in payloads:
            log.append(payload, valid=True)
        victim = data.draw(st.integers(min_value=0, max_value=len(payloads) - 2))
        log.tamper(victim, {"tampered": True})
        with pytest.raises(LedgerError):
            log.verify()

    @settings(deadline=None)
    @given(st.lists(st.integers(), min_size=1, max_size=15))
    def test_head_hash_is_deterministic_function_of_history(self, history):
        a, b = HashChainLog(), HashChainLog()
        for item in history:
            a.append({"n": item}, valid=True)
            b.append({"n": item}, valid=True)
        assert a.head_hash == b.head_hash
        b2 = HashChainLog()
        for item in history[:-1]:
            b2.append({"n": item}, valid=True)
        b2.append({"n": history[-1], "extra": 1}, valid=True)
        assert a.head_hash != b2.head_hash
