"""Zero-copy compression codec pipeline for checkpoint payloads.

The checkpoint writer encodes staged blobs (dirty optimizer-state residue
and the FP16 working parameters) through a block codec as it drains them —
overlapped with the next training iteration — and the restore path decodes
them chunk by chunk through pooled scratch buffers, verifying per-chunk
digests as it goes.  See :mod:`repro.codec.codecs` for the codecs (byte
shuffle + run-length DEFLATE, plus the null-codec ablation) and
:mod:`repro.codec.framing` for the self-describing chunked frame format.
"""

from repro.codec.codecs import (
    Codec,
    CodecError,
    Lz4Codec,
    NullCodec,
    RAW_CODEC,
    ShuffleDeflateCodec,
    ZstdCodec,
    codec_names,
    get_codec,
    register_codec,
)
from repro.codec.framing import (
    DEFAULT_CHUNK_BYTES,
    decode_frame_into,
    encoded_frame,
)

__all__ = [
    "Codec",
    "CodecError",
    "DEFAULT_CHUNK_BYTES",
    "Lz4Codec",
    "NullCodec",
    "RAW_CODEC",
    "ShuffleDeflateCodec",
    "ZstdCodec",
    "codec_names",
    "decode_frame_into",
    "encoded_frame",
    "get_codec",
    "register_codec",
]
