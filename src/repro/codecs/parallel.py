"""Band-parallel encode on a thread pool.

The vectorised capture→encode hot path is single-threaded; this
module spreads one update's encode across cores the way
ShAppliT spreads one shared surface's encode work across executors
(and pigz spreads one deflate stream across threads).  An
:class:`EncodePool` owns one :class:`~concurrent.futures.ThreadPoolExecutor`;
every band is a closure over a numpy view of the caller's array, so no
pixel is copied to reach a worker.  The band work is numpy ufuncs plus
``zlib``, and both release the GIL, so the threads really run in
parallel.

Two pipelines shard into horizontal **bands**:

* **PNG** — :func:`encode_png_parallel`.  Scanline filtering is band-
  composable (each row's predictors and MSAD choice reach exactly one
  raw row up, see :func:`repro.codecs.png.filters.filter_image`), so
  every band filters independently and the reassembled scanline stream
  is byte-identical to the serial path.  Each band then deflates its
  scanlines as a *raw* deflate member (non-final bands end on a
  ``Z_SYNC_FLUSH`` byte boundary, the last band emits the final block);
  the members are concatenated behind one zlib header and the per-band
  Adler-32 checksums combined (:func:`adler32_combine`), producing a
  standard single-stream zlib IDAT — the pigz construction.
* **Lossy DCT** — :func:`encode_lossy_parallel`.  8×8 blocks never
  cross a block-aligned band boundary, so each band's quantised
  coefficients (:func:`repro.codecs.lossy.plane_band_coefficients`)
  concatenate into byte-identical plane streams; the entropy stage
  then reuses the parallel deflate.

A missing or closed pool, or a small image, keeps the encode on the
calling thread.  An exception raised inside a band propagates to the
caller exactly as it would on the serial path.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..obs.instrumentation import NULL
from . import lossy as lossy_mod
from .base import _check_pixels
from .lossy import block_band_rows, plane_band_coefficients
from .png.encoder import assemble_png, check_encode_input, encode_png
from .png.filters import FILTER_NONE, filter_image

#: Below this many pixel rows the dispatch overhead beats the win and
#: the encode stays on the calling thread.
MIN_PARALLEL_ROWS = 128

_ADLER_BASE = 65521


def adler32_combine(adler1: int, adler2: int, len2: int) -> int:
    """Adler-32 of ``A + B`` given ``adler32(A)``, ``adler32(B)``, ``len(B)``.

    The zlib ``adler32_combine`` identity: the low word is a plain
    modular sum and the high word shifts by ``len2`` repetitions of
    ``sum1(A)``.  Lets per-band checksums combine without ever touching
    the concatenated data.
    """
    rem = len2 % _ADLER_BASE
    sum1_a = adler1 & 0xFFFF
    sum2_a = (adler1 >> 16) & 0xFFFF
    sum1_b = adler2 & 0xFFFF
    sum2_b = (adler2 >> 16) & 0xFFFF
    sum1 = (sum1_a + sum1_b - 1) % _ADLER_BASE
    sum2 = (sum2_a + sum2_b + rem * (sum1_a - 1)) % _ADLER_BASE
    return (sum2 << 16) | sum1


def zlib_header(level: int) -> bytes:
    """The 2-byte zlib stream header ``zlib.compress(b"", level)`` emits."""
    if level in (0, 1):
        flevel = 0
    elif level < 6:
        flevel = 1
    elif level == 6:
        flevel = 2
    else:
        flevel = 3
    cmf = 0x78  # deflate, 32 KiB window
    flg = flevel << 6
    flg |= 31 - ((cmf * 256 + flg) % 31)  # FCHECK
    return struct.pack("!BB", cmf, flg)


def row_bands(height: int, bands: int) -> list[tuple[int, int]]:
    """Partition ``height`` scanlines into ≤ ``bands`` contiguous spans."""
    if bands < 1:
        raise ValueError("band count must be positive")
    bands = min(bands, height)
    per_band = -(-height // bands)
    return [
        (start, min(start + per_band, height))
        for start in range(0, height, per_band)
    ]


def deflate_band(data, level: int, final: bool) -> bytes:
    """One band as a raw deflate member, concatenatable with its peers.

    Non-final members end with ``Z_SYNC_FLUSH`` (an empty stored block
    that realigns the bit stream to a byte boundary, BFINAL clear);
    the final member emits the terminating block.  Concatenating the
    members therefore forms one well-formed deflate stream.
    """
    comp = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
    out = comp.compress(data)
    out += comp.flush(zlib.Z_FINISH if final else zlib.Z_SYNC_FLUSH)
    return out


def _zlib_stream(members: list[tuple[bytes, int, int]], level: int) -> bytes:
    """Join ``(member, adler32, length)`` band results into one zlib stream."""
    adler = 1
    for _member, band_adler, band_len in members:
        adler = adler32_combine(adler, band_adler, band_len)
    return (
        zlib_header(level)
        + b"".join(member for member, _, _ in members)
        + struct.pack("!I", adler)
    )


def _filter_band(
    pixels: np.ndarray, y0: int, y1: int, adaptive_filter: bool,
    fixed_filter: int,
) -> np.ndarray:
    """Filtered scanlines of pixel rows ``[y0, y1)`` of ``pixels``."""
    stride = pixels.shape[1] * 4
    prev_row = pixels[y0 - 1].reshape(stride) if y0 else None
    return filter_image(
        pixels[y0:y1].reshape(y1 - y0, stride),
        adaptive_filter=adaptive_filter, fixed_filter=fixed_filter,
        prev_row=prev_row,
    )


class EncodePool:
    """Band-encode threads shared by every encoder of one session.

    ``workers`` threads (``< 1`` sizes the pool to ``os.cpu_count()``:
    the calling thread blocks while its bands run, so no core is held
    back).  The pool is safe to call from several threads at once.
    ``close()`` (or the context manager) shuts the executor down and
    waits for running bands.
    """

    def __init__(self, workers: int = 0, *, obs=None) -> None:
        if workers < 1:
            workers = os.cpu_count() or 1
        self.workers = workers
        self._executor = ThreadPoolExecutor(
            workers, thread_name_prefix="encode"
        )
        self._closed = False
        #: Callers on several threads share the band counter.
        self._count_lock = threading.Lock()
        obs = obs if obs is not None else NULL
        self._g_workers = obs.gauge("encode.workers")
        self._c_bands = obs.counter("encode.bands")
        self._g_workers.set(workers)

    def close(self) -> None:
        """Shut the executor down, waiting for running bands; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        self._g_workers.set(0)

    def __enter__(self) -> "EncodePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def band_count(self, height: int, bands: int | None) -> int:
        requested = bands if bands and bands > 0 else self.workers
        return max(1, min(requested, height))

    def _map(self, band_fn, spans: list[tuple[int, int]]) -> list:
        """``band_fn(y0, y1)`` for every span on the pool, in span order."""
        with self._count_lock:
            self._c_bands.inc(len(spans))
        return list(self._executor.map(lambda span: band_fn(*span), spans))

    # -- Band pipelines ----------------------------------------------------

    def png_bands(
        self,
        pixels: np.ndarray,
        *,
        compression_level: int = 6,
        adaptive_filter: bool = True,
        fixed_filter: int = FILTER_NONE,
        bands: int | None = None,
    ) -> bytes:
        """The zlib IDAT stream of ``pixels``, filtered and deflated in bands."""
        height = pixels.shape[0]

        def band(y0: int, y1: int) -> tuple[bytes, int, int]:
            filtered = _filter_band(
                pixels, y0, y1, adaptive_filter, fixed_filter
            )
            member = deflate_band(filtered, compression_level, y1 == height)
            return member, zlib.adler32(filtered), filtered.nbytes

        spans = row_bands(height, self.band_count(height, bands))
        return _zlib_stream(self._map(band, spans), compression_level)

    def filtered_scanline_bands(
        self,
        pixels: np.ndarray,
        *,
        adaptive_filter: bool = True,
        fixed_filter: int = FILTER_NONE,
        bands: int | None = None,
    ) -> bytes:
        """The raw filtered scanline stream, reassembled from bands.

        Test/verification surface: must be byte-identical to
        :func:`repro.codecs.png.encoder.filtered_scanlines`.
        """
        height = pixels.shape[0]

        def band(y0: int, y1: int) -> bytes:
            return _filter_band(
                pixels, y0, y1, adaptive_filter, fixed_filter
            ).tobytes()

        spans = row_bands(height, self.band_count(height, bands))
        return b"".join(self._map(band, spans))

    def lossy_plane_bands(
        self, pixels: np.ndarray, quality: int, bands: int | None = None
    ) -> list[bytes]:
        """Per-channel quantised plane streams, DCT-coded in bands."""
        height = pixels.shape[0]
        spans = block_band_rows(height, self.band_count(height, bands))
        results = self._map(
            lambda y0, y1: plane_band_coefficients(pixels, quality, y0, y1),
            spans,
        )
        return [
            b"".join(band[channel] for band in results) for channel in range(3)
        ]

    def deflate_bands(
        self, data: bytes, level: int = 6, bands: int | None = None
    ) -> bytes:
        """One zlib stream of ``data``, deflated in bands."""
        view = memoryview(data)
        length = len(data)

        def band(start: int, end: int) -> tuple[bytes, int, int]:
            chunk = view[start:end]
            return (
                deflate_band(chunk, level, end == length),
                zlib.adler32(chunk),
                end - start,
            )

        spans = row_bands(length, self.band_count(length, bands))
        return _zlib_stream(self._map(band, spans), level)


# -- Codec-level entry points -------------------------------------------------


def _stays_serial(pool: EncodePool | None, height: int, bands) -> bool:
    return (
        pool is None
        or pool.closed
        or (height < MIN_PARALLEL_ROWS and bands is None)
    )


def encode_png_parallel(
    pixels: np.ndarray,
    pool: EncodePool | None,
    *,
    compression_level: int = 6,
    adaptive_filter: bool = True,
    fixed_filter: int = FILTER_NONE,
    bands: int | None = None,
    idat_chunk_size: int = 1 << 20,
) -> bytes:
    """PNG-encode across the pool; no pool or a small image runs serially.

    The decompressed IDAT (the filtered scanline stream) is byte-
    identical to :func:`~repro.codecs.png.encoder.encode_png`'s; the
    deflate framing differs (per-band members), so the container bytes
    may not match even though every decoder reconstructs identical
    pixels.
    """
    height, width = check_encode_input(pixels)
    if _stays_serial(pool, height, bands):
        return encode_png(
            pixels, compression_level=compression_level,
            adaptive_filter=adaptive_filter, fixed_filter=fixed_filter,
            idat_chunk_size=idat_chunk_size,
        )
    compressed = pool.png_bands(
        pixels, compression_level=compression_level,
        adaptive_filter=adaptive_filter, fixed_filter=fixed_filter,
        bands=bands,
    )
    return assemble_png(width, height, compressed, idat_chunk_size)


def encode_lossy_parallel(
    pixels: np.ndarray,
    pool: EncodePool | None,
    *,
    quality: int = 75,
    bands: int | None = None,
) -> bytes:
    """Lossy-DCT encode across the pool; no pool or a small image runs
    serially.

    The quantised plane streams (the pre-entropy bytes) are identical
    to the serial encoder's; only the zlib member framing differs.
    """
    _check_pixels(pixels)
    height, width = pixels.shape[:2]
    if _stays_serial(pool, height, bands):
        return lossy_mod.LossyDctCodec(quality).encode(pixels)
    planes = pool.lossy_plane_bands(pixels, quality, bands=bands)
    body = pool.deflate_bands(b"".join(planes), level=6, bands=bands)
    return lossy_mod._HEADER.pack(width, height, quality) + body
