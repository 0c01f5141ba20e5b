"""The checkpoint payload codec pipeline: framing, codecs, integrity.

The contract: for every codec, ``decode(encode(x))`` is bitwise ``x`` across
dtypes, shapes and chunk boundaries; the null codec stores the raw bytes
verbatim inside the frames (so the ablation isolates framing cost); and any
truncation or corruption of an encoded stream fails loudly with
:class:`CodecError` — never silently decodes to wrong bytes.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.codec import (
    CodecError,
    DEFAULT_CHUNK_BYTES,
    codec_names,
    decode_frame_into,
    encoded_frame,
    get_codec,
)
from repro.codec.codecs import ShuffleDeflateCodec, shuffle_chunk
from repro.codec.framing import _chunk_size
from repro.tiers.array_pool import ArrayPool
from repro.tiers.file_store import payload_digest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a tier-1 dependency
    HAVE_HYPOTHESIS = False

CODECS = ("null", "shuffle-deflate")
DTYPES = (np.float16, np.float32, np.float64, np.int32, np.int64, np.uint8)
CHUNK = 1 << 12  # small chunk so modest arrays span several chunks


def _sample(rng, dtype, n):
    if np.issubdtype(dtype, np.floating):
        return (rng.standard_normal(n) * 3).astype(dtype)
    return rng.integers(-100, 100, size=n).astype(dtype)


def _raw_bytes(array):
    return np.ascontiguousarray(array).reshape(-1).view(np.uint8).tobytes()


def _fp32_payload(rng, kind, n):
    """FP32 optimizer-state shapes: Gaussian, exact zeros, FP16-quantized."""
    if kind == "zeros":
        return np.zeros(n, dtype=np.float32)
    values = rng.standard_normal(n).astype(np.float32) * 0.02
    if kind == "fp16-quantized":
        return values.astype(np.float16).astype(np.float32)
    return values


class _PlainDeflateCodec(ShuffleDeflateCodec):
    """``shuffle-deflate`` as first written: byte-shuffle + ``zlib.compress(level=1)``.

    Same codec name, so its frames are exactly what checkpoints written
    before the run-length encoder hold.
    """

    def encode_chunk(self, chunk, itemsize, scratch):
        return zlib.compress(shuffle_chunk(chunk, itemsize, scratch), 1)


class TestRoundTrip:
    @pytest.mark.parametrize("codec_name", CODECS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_round_trip_across_dtypes(self, codec_name, dtype, rng):
        codec = get_codec(codec_name)
        a = _sample(rng, dtype, 1000)
        out = np.empty_like(a)
        digest = decode_frame_into(encoded_frame(a, codec, chunk_bytes=CHUNK), out)
        assert np.array_equal(a, out)
        assert digest == payload_digest(memoryview(np.ascontiguousarray(a).reshape(-1)))

    @pytest.mark.parametrize("codec_name", CODECS)
    @pytest.mark.parametrize(
        "num_elements",
        [0, 1, 7, CHUNK // 4 - 1, CHUNK // 4, CHUNK // 4 + 1, 3 * (CHUNK // 4) + 5],
    )
    def test_round_trip_at_chunk_boundaries(self, codec_name, num_elements, rng):
        """Sizes straddling every chunk boundary, fp32 (4 B/elem, CHUNK/4 per chunk)."""
        codec = get_codec(codec_name)
        a = _sample(rng, np.float32, num_elements)
        out = np.empty_like(a)
        decode_frame_into(encoded_frame(a, codec, chunk_bytes=CHUNK), out)
        assert np.array_equal(a, out)

    @pytest.mark.parametrize("codec_name", CODECS)
    def test_round_trip_2d_shape(self, codec_name, rng):
        codec = get_codec(codec_name)
        a = _sample(rng, np.float32, 600).reshape(20, 30)
        out = np.empty_like(a)
        decode_frame_into(encoded_frame(a, codec, chunk_bytes=CHUNK), out)
        assert np.array_equal(a, out)

    @pytest.mark.parametrize("codec_name", CODECS)
    def test_pooled_buffers_are_recycled(self, codec_name, rng):
        codec = get_codec(codec_name)
        pool = ArrayPool()
        a = _sample(rng, np.float32, 10_000)
        frame = encoded_frame(a, codec, pool=pool, chunk_bytes=CHUNK)
        out = np.empty_like(a)
        decode_frame_into(frame, out)
        pool.release(frame)
        assert np.array_equal(a, out)
        assert pool.outstanding_count == 0, "encode/decode stranded pooled scratch"

    @pytest.mark.parametrize("payload", ["normal", "zeros", "fp16-quantized"])
    def test_encode_is_deterministic(self, payload, rng):
        """Identical raw bytes → identical streams (content-addressing relies on it)."""
        a = _fp32_payload(rng, payload, 5000)
        codec = get_codec("shuffle-deflate")
        first = encoded_frame(a, codec, chunk_bytes=CHUNK)
        second = encoded_frame(a.copy(), codec, chunk_bytes=CHUNK)
        assert first.tobytes() == second.tobytes()


class TestNullCodecAblation:
    def test_null_codec_stores_raw_bytes_verbatim(self, rng):
        """Frames only — the stored chunk payloads are bitwise the raw bytes."""
        a = _sample(rng, np.float32, 3000)
        frame = encoded_frame(a, get_codec("null"), chunk_bytes=CHUNK)
        blob = frame.tobytes()
        raw = _raw_bytes(a)
        # Every raw chunk appears verbatim in the stream, in order.
        offset = 0
        for start in range(0, len(raw), CHUNK):
            piece = raw[start : start + CHUNK]
            found = blob.find(piece, offset)
            assert found >= 0, "null codec transformed a chunk"
            offset = found + len(piece)
        # Framing overhead is bounded: header + one small record per chunk.
        assert len(blob) - len(raw) < 128 + 64 * (len(raw) // CHUNK + 1)

    def test_shuffle_deflate_compresses_structured_state(self, rng):
        """FP16-quantized masters + zeroed optimizer state: the 2x regime."""
        codec = get_codec("shuffle-deflate")
        quantized = (rng.standard_normal(50_000) * 0.02).astype(np.float16).astype(np.float32)
        zeros = np.zeros(50_000, dtype=np.float32)
        for array, floor in ((quantized, 1.8), (zeros, 20.0)):
            frame = encoded_frame(array, codec)
            assert array.nbytes / frame.nbytes > floor


class TestPlainDeflateCompatibility:
    """Frames of the plain level-1 encoder stay readable; the run-length
    encoder is never larger on the payloads it exists for."""

    @pytest.mark.parametrize("payload", ["normal", "zeros", "fp16-quantized"])
    def test_plain_deflate_frame_decodes_bitwise(self, payload, rng):
        a = _fp32_payload(rng, payload, 20_000)
        old = encoded_frame(a, _PlainDeflateCodec(), chunk_bytes=CHUNK)
        new = encoded_frame(a, get_codec("shuffle-deflate"), chunk_bytes=CHUNK)
        assert old.tobytes() != new.tobytes(), "the two encoders must differ to test anything"
        from_old, from_new = np.empty_like(a), np.empty_like(a)
        old_digest = decode_frame_into(old, from_old)
        assert old_digest == decode_frame_into(new, from_new)
        assert old_digest == payload_digest(memoryview(a))
        assert from_old.tobytes() == a.tobytes()
        assert from_new.tobytes() == a.tobytes()

    @pytest.mark.parametrize("payload", ["zeros", "fp16-quantized"])
    def test_run_length_frames_are_no_larger(self, payload, rng):
        a = _fp32_payload(rng, payload, 1 << 18)  # one 1 MiB default chunk
        old = encoded_frame(a, _PlainDeflateCodec())
        new = encoded_frame(a, get_codec("shuffle-deflate"))
        assert new.nbytes <= old.nbytes

    def test_checkpoint_written_by_plain_deflate_restores_bitwise(
        self, tmp_path, rng, monkeypatch
    ):
        from repro.core.config import MLPOffloadConfig, TierConfig
        from repro.core.engine import MLPOffloadEngine
        from repro.train.adam import AdamConfig
        from repro.train.sharding import build_shard_layout, flat_views

        total, subgroup = 4_000, 1_000
        for name in ("nvme", "pfs"):
            (tmp_path / name).mkdir()

        def config():
            return MLPOffloadConfig(
                tiers=(
                    TierConfig("nvme", str(tmp_path / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
                    TierConfig("pfs", str(tmp_path / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
                ),
                subgroup_size=subgroup,
                host_cache_bytes=2 * subgroup * 12,  # dirty residue gets staged
                checkpoint_dir=str(tmp_path / "ckpt"),
                checkpoint_codec="shuffle-deflate",
                adam=AdamConfig(lr=1e-3),
            )

        layout = build_shard_layout(total, num_ranks=1, subgroup_size=subgroup)
        views = flat_views(None, layout, 0)
        initial = rng.standard_normal(total).astype(np.float32)
        plain_chunks = []

        def plain_encode(self, chunk, itemsize, scratch):
            plain_chunks.append(chunk.size)
            return _PlainDeflateCodec.encode_chunk(self, chunk, itemsize, scratch)

        monkeypatch.setattr(ShuffleDeflateCodec, "encode_chunk", plain_encode)
        with MLPOffloadEngine(config(), layout, rank=0) as engine:
            engine.initialize(initial.copy())
            fp16 = initial.astype(np.float16)
            for _ in range(2):
                grad = rng.standard_normal(total).astype(np.float16)
                for index, view in views.items():
                    engine.on_backward_gradient(index, grad[view])
                engine.on_microbatch_complete()
                engine.run_update(fp16)
            engine.save_checkpoint(fp16, wait=True)
            master = engine.fetch_master_params()
        monkeypatch.undo()
        assert plain_chunks, "no staged payload went through the plain encoder"

        with MLPOffloadEngine(config(), layout, rank=0) as resumed:
            restored = resumed.restore_checkpoint()
            assert restored.fp16_params.tobytes() == fp16.tobytes()
            assert resumed.fetch_master_params().tobytes() == master.tobytes()


class TestIntegrity:
    @pytest.fixture
    def frame(self, rng):
        a = _sample(rng, np.float32, 4000)
        return a, encoded_frame(a, get_codec("shuffle-deflate"), chunk_bytes=CHUNK)

    def test_truncated_stream_raises(self, frame):
        a, stream = frame
        for cut in (3, stream.size // 2, stream.size - 1):
            with pytest.raises(CodecError, match="truncated"):
                decode_frame_into(stream[:cut].copy(), np.empty_like(a))

    def test_corrupt_chunk_payload_raises(self, frame):
        a, stream = frame
        bad = stream.copy()
        bad[-1] ^= 0xFF  # inside the last chunk's compressed payload
        with pytest.raises(CodecError):
            decode_frame_into(bad, np.empty_like(a))

    def test_bit_flip_that_decompresses_fails_digest(self, frame):
        """Even a flip zlib tolerates must die on the per-chunk digest."""
        a, stream = frame
        # Flip the recorded digest itself: decode succeeds, digest check must fire.
        from repro.codec.framing import _GEOM_FMT, _HEAD_FMT
        import struct

        offset = struct.calcsize(_HEAD_FMT) + len(b"shuffle-deflate") + struct.calcsize(_GEOM_FMT)
        bad = stream.copy()
        bad[offset + 16] ^= 0xFF  # digest field of the first chunk record
        with pytest.raises(CodecError, match="integrity"):
            decode_frame_into(bad, np.empty_like(a))

    def test_corrupt_chunk_geometry_cannot_inflate_allocation(self, frame):
        """A bit-rotted chunk_bytes header must fail as CodecError — never as
        a runaway multi-terabyte scratch allocation (MemoryError)."""
        from repro.codec.framing import _GEOM_FMT, _HEAD_FMT
        import struct

        a, stream = frame
        geom_offset = struct.calcsize(_HEAD_FMT) + len(b"shuffle-deflate")
        bad = stream.copy()
        # chunk_bytes is the u64 right after the itemsize byte: blow it up.
        # The scratch is clamped to the payload size, so decode must either
        # reject the frame or still deliver digest-verified correct bytes —
        # never attempt a terabyte allocation.
        struct.pack_into("<Q", memoryview(bad), geom_offset + 1, 1 << 40)
        try:
            out = np.empty_like(a)
            decode_frame_into(bad, out)
            assert np.array_equal(out, a)
        except CodecError:
            pass
        # A zero itemsize (or misaligned chunk) is rejected outright.
        bad2 = stream.copy()
        bad2[geom_offset] = 0
        with pytest.raises(CodecError, match="geometry"):
            decode_frame_into(bad2, np.empty_like(a))
        bad3 = stream.copy()
        struct.pack_into("<Q", memoryview(bad3), geom_offset + 1, 3)  # not a multiple of 4
        with pytest.raises(CodecError, match="geometry"):
            decode_frame_into(bad3, np.empty_like(a))

    def test_unaligned_chunk_raw_len_rejected(self, frame):
        """A corrupt raw_len that is not a multiple of itemsize must fail as
        CodecError, not escape as a numpy reshape ValueError."""
        from repro.codec.framing import _GEOM_FMT, _HEAD_FMT
        import struct

        a, stream = frame
        rec_offset = struct.calcsize(_HEAD_FMT) + len(b"shuffle-deflate") + struct.calcsize(_GEOM_FMT)
        bad = stream.copy()
        struct.pack_into("<Q", memoryview(bad), rec_offset, 6)  # itemsize is 4
        with pytest.raises(CodecError, match="multiple of itemsize"):
            decode_frame_into(bad, np.empty_like(a))

    def test_wrong_destination_size_raises(self, frame):
        a, stream = frame
        with pytest.raises(CodecError, match="raw bytes"):
            decode_frame_into(stream, np.empty(a.size - 1, dtype=a.dtype))

    def test_bad_magic_raises(self, frame):
        a, stream = frame
        bad = stream.copy()
        bad[0] ^= 0xFF
        with pytest.raises(CodecError, match="magic"):
            decode_frame_into(bad, np.empty_like(a))

    def test_unknown_codec_rejected(self):
        with pytest.raises(CodecError, match="unknown codec"):
            get_codec("no-such-codec")
        assert "raw" in codec_names()

    def test_uninstalled_gated_codec_names_the_missing_package(self):
        # "zstd" is a *known* codec that may simply not be installed; the
        # error must say so instead of pretending the name is gibberish.
        if "zstd" in codec_names():
            pytest.skip("zstd is installed here; the gated arm is covered elsewhere")
        with pytest.raises(CodecError, match="installed"):
            get_codec("zstd")


def test_chunk_size_aligns_to_itemsize():
    assert _chunk_size(8, DEFAULT_CHUNK_BYTES) % 8 == 0
    assert _chunk_size(4, 10) == 8
    assert _chunk_size(8, 3) == 8  # never below one element


if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        dtype=st.sampled_from(DTYPES),
        codec_name=st.sampled_from(CODECS),
        num_elements=st.integers(min_value=0, max_value=5000),
        chunk_bytes=st.integers(min_value=1, max_value=1 << 14),
    )
    def test_property_round_trip(data, dtype, codec_name, num_elements, chunk_bytes):
        """Any dtype × size × chunk granularity round-trips bitwise."""
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        a = _sample(rng, dtype, num_elements)
        out = np.empty_like(a)
        frame = encoded_frame(a, get_codec(codec_name), chunk_bytes=chunk_bytes)
        digest = decode_frame_into(frame, out)
        assert np.array_equal(a, out)
        assert digest == payload_digest(memoryview(np.ascontiguousarray(a).reshape(-1)))
