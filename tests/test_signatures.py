"""Unit tests for repro.core.signatures."""

import pytest

from repro.core.signatures import (
    LastTouchSignature,
    REALISTIC_SIGNATURES,
    SignatureConfig,
    TRACE_STUDY_SIGNATURES,
    fold_hash,
    hash_combine,
)


class TestHashing:
    def test_deterministic(self):
        assert hash_combine(0, 0x1234) == hash_combine(0, 0x1234)

    def test_order_sensitive(self):
        a = hash_combine(hash_combine(0, 1), 2)
        b = hash_combine(hash_combine(0, 2), 1)
        assert a != b

    def test_stays_within_64_bits(self):
        value = 0
        for i in range(100):
            value = hash_combine(value, i)
            assert 0 <= value < (1 << 64)

    def test_fold_hash_within_bits(self):
        for bits in (8, 23, 32):
            folded = fold_hash(0xDEADBEEFCAFEBABE, bits)
            assert 0 <= folded < (1 << bits)

    def test_fold_hash_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            fold_hash(1, 0)


class TestSignatureConfig:
    def test_paper_realistic_encoding(self):
        assert REALISTIC_SIGNATURES.trace_hash_bits == 23
        assert REALISTIC_SIGNATURES.address_tag_bits == 15
        assert REALISTIC_SIGNATURES.confidence_bits == 2
        # Section 5.6: 42-bit signature-cache entries.
        assert REALISTIC_SIGNATURES.signature_cache_entry_bits == 42
        # ~5 bytes per stored signature.
        assert REALISTIC_SIGNATURES.stored_bytes == 5

    def test_trace_study_uses_32_bit_keys(self):
        assert TRACE_STUDY_SIGNATURES.trace_hash_bits == 32

    def test_truncate_key_respects_width(self):
        config = SignatureConfig(trace_hash_bits=16)
        assert 0 <= config.truncate_key(0xFFFFFFFFFFFF) < (1 << 16)

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            SignatureConfig(trace_hash_bits=0)


class TestLastTouchSignature:
    def test_fields(self):
        signature = LastTouchSignature(key=12, predicted_address=0x1000, confidence=2)
        assert signature.key == 12 and signature.predicted_address == 0x1000

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            LastTouchSignature(key=-1, predicted_address=0)
        with pytest.raises(ValueError):
            LastTouchSignature(key=0, predicted_address=-1)
