"""Audio ingestion and features: PCM16 WAV decode, fixed-length trim/pad,
Hann STFT, HTK-mel log filterbank energies, time pooling, and a seeded
Gaussian-cluster generator used by the synthetic desk-scale streams.

Everything here is a pure function of its inputs; identical bytes in give
identical features out. `logmel` runs its STFT in scratch buffers kept per
process for each config and frame count: they are not thread-safe (clbench
runs in parallel on processes, never threads), and no returned array shares
memory with them.
"""

from __future__ import annotations

import functools
import hashlib
import os
import struct
import wave
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WavFormatError",
    "PcmClip",
    "LogMelConfig",
    "read_wav",
    "trim_pad",
    "frame_count",
    "logmel",
    "pool",
    "extract_file",
    "extract_files",
    "sample_cluster",
    "write_feature_cache",
    "read_feature_cache",
]

FEATURE_CACHE_MAGIC = b"FEA1"

POOL_MODES = ("mean-over-time", "mean-std-over-time")


class WavFormatError(ValueError):
    """Raised for files that are not mono 16-bit PCM RIFF/WAVE."""


@dataclass
class PcmClip:
    sample_rate: int
    samples: np.ndarray  # float64 in [-1, 1]


@dataclass(frozen=True)
class LogMelConfig:
    sample_rate: int = 16000
    fft_size: int = 1024
    hop: int = 512
    mel_bins: int = 64
    fmin: float = 0.0
    fmax: float | None = None  # None -> Nyquist
    log_floor: float = 1e-10
    clip_seconds: float = 10.0

    def __post_init__(self):
        fmax = self.sample_rate / 2 if self.fmax is None else self.fmax
        object.__setattr__(self, "fmax", float(fmax))
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise ValueError("need 0 <= fmin < fmax <= sample_rate/2")
        if self.hop > self.fft_size or self.hop < 1:
            raise ValueError("need 1 <= hop <= fft_size")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be > 0")


def read_wav(path) -> PcmClip:
    """Decode a mono 16-bit PCM WAV; samples scaled by 1/32768."""
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            comptype = wf.getcomptype()
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError, struct.error) as exc:
        raise WavFormatError(f"{path}: not a decodable WAV file ({exc})") from exc
    if comptype != "NONE":
        raise WavFormatError(f"{path}: compressed WAV ({comptype}) not supported")
    if n_channels != 1:
        raise WavFormatError(f"{path}: expected mono, got {n_channels} channels")
    if sampwidth != 2:
        raise WavFormatError(f"{path}: expected 16-bit PCM, got {8 * sampwidth}-bit")
    if len(raw) % 2:
        raise WavFormatError(
            f"{path}: truncated data chunk ({len(raw)} bytes, not a whole number of 16-bit samples)"
        )
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= 32768.0
    return PcmClip(sample_rate=rate, samples=samples)


def trim_pad(clip: PcmClip, clip_seconds: float) -> PcmClip:
    """Force the clip to exactly sample_rate * clip_seconds samples.

    Long clips keep their head as a view, so the result may share memory
    with `clip.samples`; short clips get trailing zeros.
    """
    if clip_seconds <= 0:
        raise ValueError("clip_seconds must be > 0")
    target = int(round(clip.sample_rate * clip_seconds))
    samples = clip.samples
    if samples.size >= target:
        samples = samples[:target]
    else:
        samples = np.concatenate([samples, np.zeros(target - samples.size)])
    return PcmClip(clip.sample_rate, samples)


def frame_count(n_samples: int, fft_size: int, hop: int) -> int:
    if n_samples < fft_size:
        raise ValueError(f"clip of {n_samples} samples shorter than one {fft_size}-sample frame")
    return 1 + (n_samples - fft_size) // hop


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def _stft_weights(cfg: LogMelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Hann window (fft_size,) and triangular HTK mel filterbank (mel_bins,
    fft_size//2 + 1) of `cfg`, built once per config and read-only."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(cfg.fft_size) / cfg.fft_size)
    edges_hz = _mel_to_hz(
        np.linspace(_hz_to_mel(cfg.fmin), _hz_to_mel(cfg.fmax), cfg.mel_bins + 2)
    )
    bin_hz = np.arange(cfg.fft_size // 2 + 1) * (cfg.sample_rate / cfg.fft_size)
    lower = edges_hz[:-2, None]
    center = edges_hz[1:-1, None]
    upper = edges_hz[2:, None]
    rising = (bin_hz - lower) / (center - lower)
    falling = (upper - bin_hz) / (upper - center)
    filterbank = np.maximum(0.0, np.minimum(rising, falling))
    window.flags.writeable = filterbank.flags.writeable = False
    return window, filterbank


@functools.lru_cache(maxsize=8)
def _stft_scratch(cfg: LogMelConfig, frames: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windowed block (64, fft_size), its spectrum (64, fft_size//2 + 1) and
    the power matrix (frames, fft_size//2 + 1), reused by every `logmel` call
    with this config and frame count, so no clip maps and faults them anew."""
    bins = cfg.fft_size // 2 + 1
    return np.empty((64, cfg.fft_size)), np.empty((64, bins), complex), np.empty((frames, bins))


def logmel(clip: PcmClip, cfg: LogMelConfig) -> np.ndarray:
    """(frames, mel_bins) natural-log mel power spectrogram.

    Hann-windowed magnitude STFT, power, HTK triangular mel filterbank,
    then ln(power + log_floor); the floor keeps silence finite.
    """
    if clip.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"clip sample rate {clip.sample_rate} != configured {cfg.sample_rate} "
            "(no resampling)"
        )
    n_frames = frame_count(clip.samples.size, cfg.fft_size, cfg.hop)  # rejects sub-frame clips
    window, filterbank = _stft_weights(cfg)
    block, spectrum, power = _stft_scratch(cfg, n_frames)
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, cfg.fft_size)[:: cfg.hop]
    # 64-frame blocks keep the STFT scratch near 0.5 MB (5 MB in one call on a
    # 10 s clip); each frame's FFT is independent, so the bits are equal
    for start in range(0, n_frames, 64):
        rows = power[start : start + 64]
        m = len(rows)
        np.multiply(frames[start : start + m], window, out=block[:m])
        np.fft.rfft(block[:m], axis=1, out=spectrum[:m])  # out= needs NumPy >= 2.0
        np.square(np.abs(spectrum[:m], out=rows), out=rows)
    # one matmul over all frames: per-block products can differ in the last bit
    out = power @ filterbank.T
    out += cfg.log_floor
    np.log(out, out=out)
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite log-mel output")
    return out


def pool(features: np.ndarray, mode: str) -> np.ndarray:
    """Collapse (frames, bins) to a fixed vector: per-bin mean, optionally
    with population std appended."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.size == 0:
        raise ValueError("features must be a non-empty (frames, bins) matrix")
    if mode == "mean-over-time":
        return features.mean(axis=0)
    if mode == "mean-std-over-time":
        return np.concatenate([features.mean(axis=0), features.std(axis=0)])
    raise ValueError(f"unknown pooling mode {mode!r}; valid: {POOL_MODES}")


def extract_file(path, cfg: LogMelConfig, mode: str = "mean-over-time") -> np.ndarray:
    """WAV file to pooled feature vector: decode, trim/pad, log-mel, pool."""
    clip = read_wav(path)
    if clip.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"{path}: sample rate {clip.sample_rate} != configured {cfg.sample_rate} "
            "(no resampling)"
        )
    return pool(logmel(trim_pad(clip, cfg.clip_seconds), cfg), mode)


def extract_files(paths, cfg: LogMelConfig, mode: str, cache, source: bytes) -> np.ndarray:
    """(len(paths), dim) pooled features of `paths`, in order.

    With a `cache` path (None: uncached) the rows come from the FEA1 file
    there when its key (sha256 of `source`, `cfg` and `mode`) and row count
    match; otherwise every clip is extracted and the file is (re)written.
    Rows always pass through float32, the cache's storage type, so a hit, a
    miss and an uncached call return equal arrays.

    A miss decodes the clips on a process pool with one worker per usable
    CPU (at most one per clip); rows come back in path order, so the result
    and the cache bytes equal a serial run's. With one CPU, off Linux, or
    inside a pool worker (a grid cell), the clips are decoded serially.
    """
    key = cache_key(source, repr(cfg).encode(), mode.encode())
    if cache is not None and os.path.exists(cache):
        cached = read_feature_cache(cache, key)
        if cached is not None and cached.shape[0] == len(paths):
            return cached
    import multiprocessing  # only a miss pays for the pool's imports

    extract = functools.partial(extract_file, cfg=cfg, mode=mode)
    # Linux forks the workers, as in harness.run_grid; without sched_getaffinity
    # (macOS, Windows) they would be spawned and re-run the caller's __main__
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(paths))
    if workers > 1 and multiprocessing.parent_process() is None:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            vectors = list(pool.map(extract, paths, chunksize=max(1, len(paths) // (4 * workers))))
    else:
        vectors = [extract(p) for p in paths]
    rows = np.vstack(vectors).astype(np.float32)
    if cache is not None:
        write_feature_cache(cache, key, rows)
    return rows.astype(np.float64)


def sample_cluster(mean, sigma: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n isotropic-Gaussian draws around a mean feature vector."""
    if sigma <= 0:
        raise ValueError("cluster sigma must be > 0")
    if n < 1:
        raise ValueError("need n >= 1 samples")
    mean = np.asarray(mean, dtype=np.float64)
    return mean[None, :] + sigma * rng.standard_normal((n, mean.size))


def cache_key(*parts: bytes) -> bytes:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def write_feature_cache(path, key: bytes, features: np.ndarray) -> None:
    """FEA1 cache: magic, 32-byte key hash, count, dim, f32 little-endian.

    The file is written under a per-process temporary name next to `path`
    and renamed into place, so concurrent writers and interrupted writes
    never leave a truncated cache behind.
    """
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError("feature cache expects a (count, dim) matrix")
    if len(key) != 32:
        raise ValueError("cache key must be a 32-byte digest")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(FEATURE_CACHE_MAGIC)
            fh.write(key)
            fh.write(struct.pack("<II", features.shape[0], features.shape[1]))
            fh.write(features.astype("<f4").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the rename
            os.unlink(tmp)


def read_feature_cache(path, expected_key: bytes):
    """Load a FEA1 cache; returns None when the key hash does not match."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != FEATURE_CACHE_MAGIC:
        raise ValueError(f"{path}: bad feature cache magic")
    key = blob[4:36]
    if key != expected_key:
        return None
    count, dim = struct.unpack_from("<II", blob, 36)
    data = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=44)
    return data.reshape(count, dim).astype(np.float64)
