import json
import math
import os
import re
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbench import audiofeat
from clbench.audiofeat import (
    LogMelConfig,
    PcmClip,
    WavFormatError,
    frame_count,
    logmel,
    pool,
    read_wav,
    sample_cluster,
    trim_pad,
)


def write_wav(path, samples_i16, rate=16000, channels=1, sampwidth=2):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(rate)
        wf.writeframes(np.asarray(samples_i16, dtype="<i2").tobytes())


def write_truncated_wav(path):
    """A 100-frame clip cut by one byte: its data chunk has an odd byte count."""
    write_wav(path, np.zeros(100, dtype=np.int16))
    path.write_bytes(path.read_bytes()[:-1])
    return path


class TestReadWav:
    def test_zero_payload(self, tmp_path):
        path = tmp_path / "zeros.wav"
        write_wav(path, np.zeros(100, dtype=np.int16))
        clip = read_wav(path)
        assert clip.sample_rate == 16000
        assert np.array_equal(clip.samples, np.zeros(100))

    def test_scaling_by_32768(self, tmp_path):
        path = tmp_path / "half.wav"
        write_wav(path, [16384])
        assert read_wav(path).samples[0] == 0.5

    def test_malformed_header_is_decode_error(self, tmp_path):
        path = tmp_path / "garbage.wav"
        path.write_bytes(b"RIFFxxxxNOTAWAVE" + b"\x00" * 64)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_truncated_data_chunk_names_the_file(self, tmp_path):
        path = write_truncated_wav(tmp_path / "cut.wav")
        with pytest.raises(WavFormatError, match=re.escape(f"{path}: truncated")):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        write_wav(path, np.zeros(64, dtype=np.int16), channels=2)
        with pytest.raises(WavFormatError, match="mono"):
            read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "low.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(16000)
            wf.writeframes(b"\x00" * 32)
        with pytest.raises(WavFormatError, match="16-bit"):
            read_wav(path)


class TestTrimPad:
    def test_long_clip_truncated(self):
        clip = PcmClip(16000, np.arange(12 * 16000, dtype=np.float64))
        out = trim_pad(clip, 10.0)
        assert out.samples.size == 160000
        assert out.samples[0] == 0.0 and out.samples[-1] == 159999.0

    def test_short_clip_zero_padded(self):
        clip = PcmClip(16000, np.ones(7 * 16000))
        out = trim_pad(clip, 10.0)
        assert out.samples.size == 160000
        assert np.array_equal(out.samples[112000:], np.zeros(48000))

    def test_exact_length_unchanged(self):
        samples = np.random.default_rng(0).uniform(-1, 1, 160000)
        out = trim_pad(PcmClip(16000, samples), 10.0)
        assert np.array_equal(out.samples, samples)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            trim_pad(PcmClip(16000, np.zeros(10)), 0)


def mel_centers_oracle(cfg):
    # independent HTK mel computation: mel = 2595 log10(1 + f/700)
    lo = 2595.0 * math.log10(1.0 + cfg.fmin / 700.0)
    hi = 2595.0 * math.log10(1.0 + cfg.fmax / 700.0)
    mels = np.linspace(lo, hi, cfg.mel_bins + 2)[1:-1]
    return 700.0 * (10.0 ** (mels / 2595.0) - 1.0)


def logmel_oracle(samples, cfg):
    """`logmel` as one STFT call over every frame of `samples`."""
    window, filterbank = audiofeat._stft_weights(cfg)
    frames = np.lib.stride_tricks.sliding_window_view(samples, cfg.fft_size)[:: cfg.hop]
    power = np.abs(np.fft.rfft(frames * window, axis=1)) ** 2
    return np.log(power @ filterbank.T + cfg.log_floor)


class TestLogMel:
    def test_silence_hits_the_floor(self):
        cfg = LogMelConfig()
        out = logmel(PcmClip(16000, np.zeros(160000)), cfg)
        assert np.all(out == math.log(cfg.log_floor))

    def test_frame_count_matches_formula(self):
        cfg = LogMelConfig()
        out = logmel(PcmClip(16000, np.zeros(160000)), cfg)
        assert out.shape == (1 + (160000 - 1024) // 512, 64)

    def test_sine_peaks_at_nearest_mel_bin(self):
        cfg = LogMelConfig()
        t = np.arange(4 * 16000) / 16000.0
        clip = PcmClip(16000, 0.5 * np.sin(2 * np.pi * 1000.0 * t))
        out = logmel(clip, cfg)
        expected_bin = int(np.argmin(np.abs(mel_centers_oracle(cfg) - 1000.0)))
        assert np.all(out.argmax(axis=1) == expected_bin)

    def test_amplitude_scale_shifts_log_power(self):
        # power is amplitude squared: x10 amplitude -> +ln(100) where the
        # signal dominates the floor
        cfg = LogMelConfig()
        t = np.arange(2 * 16000) / 16000.0
        small = logmel(PcmClip(16000, 0.05 * np.sin(2 * np.pi * 1000.0 * t)), cfg)
        large = logmel(PcmClip(16000, 0.5 * np.sin(2 * np.pi * 1000.0 * t)), cfg)
        dominant = small > math.log(cfg.log_floor) + 8.0
        assert np.allclose((large - small)[dominant], math.log(100.0), atol=1e-6)

    def test_sample_rate_mismatch_rejected(self):
        with pytest.raises(ValueError, match="no resampling"):
            logmel(PcmClip(8000, np.zeros(16000)), LogMelConfig(sample_rate=16000))

    def test_too_short_clip_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            logmel(PcmClip(16000, np.zeros(512)), LogMelConfig())

    @pytest.mark.parametrize("seconds", [0.1, 4.0, 10.0])  # 2, 124 and 311 frames
    def test_blocked_stft_equals_one_call(self, seconds):
        # `seconds`, every length, `seconds` again, then a second config, all
        # in this process: each call reuses the STFT scratch of earlier ones
        rng = np.random.default_rng(3)
        small = LogMelConfig(fft_size=512, hop=256)
        calls = [(LogMelConfig(), s) for s in (seconds, 0.1, 4.0, 10.0, seconds)]
        calls += [(small, seconds), (small, 10.0)]
        results = []
        for cfg, s in calls:
            samples = rng.uniform(-0.5, 0.5, int(16000 * s))
            reference = logmel_oracle(samples, cfg)
            out = logmel(PcmClip(16000, samples), cfg)
            assert np.array_equal(out, reference)
            results.append((out, reference))
        for out, reference in results:  # no result shares the scratch
            assert np.array_equal(out, reference)

    def test_pure_function(self, tmp_path):
        path = tmp_path / "tone.wav"
        rng = np.random.default_rng(5)
        write_wav(path, (rng.uniform(-0.3, 0.3, 32000) * 32767).astype(np.int16))
        cfg = LogMelConfig()
        a = logmel(trim_pad(read_wav(path), 2.0), cfg)
        b = logmel(trim_pad(read_wav(path), 2.0), cfg)
        assert np.array_equal(a, b)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_white_noise_power_grows_linearly(self, seed):
        # total STFT power is proportional to frame count for stationary noise
        cfg = LogMelConfig(fft_size=256, hop=128)
        rng = np.random.default_rng(seed)
        noise = rng.normal(scale=0.1, size=64000)

        def total_power(n):
            idx = np.arange(cfg.fft_size)[None, :] + cfg.hop * np.arange(
                frame_count(n, cfg.fft_size, cfg.hop)
            )[:, None]
            window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(cfg.fft_size) / cfg.fft_size)
            return np.sum(np.abs(np.fft.rfft(noise[:n][idx] * window, axis=1)) ** 2)

        short, long = total_power(32000), total_power(64000)
        frames_ratio = frame_count(64000, 256, 128) / frame_count(32000, 256, 128)
        assert abs(long / short - frames_ratio) / frames_ratio < 0.10


class TestFrameCount:
    @given(
        st.integers(6, 12),  # log2 fft
        st.integers(1, 4096),
        st.integers(0, 200000),
    )
    @settings(max_examples=100, deadline=None)
    def test_formula(self, log_fft, hop, extra):
        fft = 2**log_fft
        hop = min(hop, fft)
        n = fft + extra
        count = frame_count(n, fft, hop)
        assert count == 1 + (n - fft) // hop
        # last frame fits, one more would not
        assert (count - 1) * hop + fft <= n
        assert count * hop + fft > n

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            frame_count(100, 128, 64)


class TestPool:
    def test_constant_matrix(self):
        features = np.full((7, 4), 3.25)
        assert np.array_equal(pool(features, "mean-over-time"), np.full(4, 3.25))
        out = pool(features, "mean-std-over-time")
        assert np.array_equal(out, np.concatenate([np.full(4, 3.25), np.zeros(4)]))

    def test_two_frame_population_std(self):
        features = np.array([[0.0], [2.0]])
        out = pool(features, "mean-std-over-time")
        assert np.array_equal(out, [1.0, 1.0])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant_over_frames(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(9, 5))
        shuffled = features[rng.permutation(9)]
        for mode in audiofeat.POOL_MODES:
            np.testing.assert_allclose(pool(features, mode), pool(shuffled, mode), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool(np.zeros((0, 4)), "mean-over-time")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            pool(np.zeros((2, 2)), "max")


class TestSynthFeatures:
    def test_vanishing_sigma_returns_means(self):
        mean = np.array([1.0, -2.0])
        x = sample_cluster(mean, 1e-300, 3, np.random.default_rng(0))
        assert np.array_equal(x, np.tile(mean, (3, 1)))

    def test_nearest_mean_separates_distant_clusters(self):
        means = [np.zeros(8), np.concatenate([[10.0], np.zeros(7)])]
        rng = np.random.default_rng(3)
        x = np.vstack([sample_cluster(m, 1.0, 500, rng) for m in means])
        labels = np.repeat([0, 1], 500)
        d0 = np.linalg.norm(x - means[0], axis=1)
        d1 = np.linalg.norm(x - means[1], axis=1)
        pred = (d1 < d0).astype(int)
        assert np.mean(pred == labels) > 0.99

    def test_same_seed_reproduces(self):
        x1 = sample_cluster(np.ones(4), 2.0, 10, np.random.default_rng(9))
        x2 = sample_cluster(np.ones(4), 2.0, 10, np.random.default_rng(9))
        assert np.array_equal(x1, x2)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            sample_cluster(np.zeros(3), 0.0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_cluster(np.zeros(3), -1.0, 5, np.random.default_rng(0))


class TestFeatureCache:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "features.fea1"
        key = audiofeat.cache_key(b"manifest-content")
        features = np.random.default_rng(0).normal(size=(5, 3))
        audiofeat.write_feature_cache(path, key, features)
        assert path.read_bytes()[:4] == b"FEA1"
        loaded = audiofeat.read_feature_cache(path, key)
        np.testing.assert_allclose(loaded, features, atol=1e-6)  # f32 storage

    def test_key_mismatch_returns_none(self, tmp_path):
        path = tmp_path / "features.fea1"
        audiofeat.write_feature_cache(path, audiofeat.cache_key(b"a"), np.zeros((2, 2)))
        assert audiofeat.read_feature_cache(path, audiofeat.cache_key(b"b")) is None

    def test_failed_write_keeps_previous_cache(self, tmp_path):
        path = tmp_path / "features.fea1"
        key = audiofeat.cache_key(b"manifest-content")
        audiofeat.write_feature_cache(path, key, np.ones((3, 2)))
        before = path.read_bytes()
        # an object matrix passes the shape checks, then fails its f32
        # conversion after the header is written
        unconvertible = np.array([[1.0, "not a number"]], dtype=object)
        with pytest.raises(ValueError):
            audiofeat.write_feature_cache(path, key, unconvertible)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["features.fea1"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fea1"
        path.write_bytes(b"NOPE" + b"\x00" * 48)
        with pytest.raises(ValueError, match="magic"):
            audiofeat.read_feature_cache(path, audiofeat.cache_key(b"a"))


def test_extract_file_pipeline(tmp_path):
    path = tmp_path / "clip.wav"
    t = np.arange(16000) / 16000.0
    write_wav(path, (0.4 * np.sin(2 * np.pi * 440.0 * t) * 32767).astype(np.int16))
    vector = audiofeat.extract_file(path, LogMelConfig(), "mean-std-over-time")
    assert vector.shape == (128,)
    assert np.all(np.isfinite(vector))


def test_extract_file_sample_rate_mismatch(tmp_path):
    path = tmp_path / "8k.wav"
    write_wav(path, np.zeros(8000, dtype=np.int16), rate=8000)
    with pytest.raises(ValueError, match="no resampling"):
        audiofeat.extract_file(path, LogMelConfig(sample_rate=16000))


def write_clips(directory, count, seed=0):
    """`count` distinct one-second noise clips, clip0.wav ... in order."""
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        path = directory / f"clip{i}.wav"
        write_wav(path, (rng.uniform(-0.3, 0.3, 16000) * 32767).astype(np.int16))
        paths.append(str(path))
    return paths


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def pools_started(monkeypatch):
    """max_workers of every ProcessPoolExecutor the code under test creates."""
    import concurrent.futures

    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return started


class TestPooledExtraction:
    CFG = LogMelConfig(clip_seconds=1.0)

    def extract(self, monkeypatch, cpus, paths, cache):
        use_cpus(monkeypatch, cpus)
        return audiofeat.extract_files(paths, self.CFG, "mean-std-over-time", str(cache), b"src")

    def test_pooled_rows_and_cache_equal_serial(self, tmp_path, monkeypatch, pools_started):
        paths = write_clips(tmp_path / "clips", 16)
        paths.insert(5, paths[2])  # a clip listed twice keeps both rows
        serial = self.extract(monkeypatch, 1, paths, tmp_path / "serial.fea1")
        assert pools_started == []
        pooled = self.extract(monkeypatch, 2, paths, tmp_path / "pooled.fea1")  # chunks of 2
        assert pools_started == [2]
        assert serial.shape == (17, 2 * self.CFG.mel_bins)
        assert np.array_equal(pooled, serial)
        assert np.array_equal(pooled[5], pooled[2])
        assert (tmp_path / "pooled.fea1").read_bytes() == (tmp_path / "serial.fea1").read_bytes()

    def test_workers_capped_at_clip_count(self, tmp_path, monkeypatch, pools_started):
        paths = write_clips(tmp_path / "clips", 2)
        self.extract(monkeypatch, 8, paths, tmp_path / "f.fea1")
        assert pools_started == [2]

    def test_without_sched_getaffinity_stays_serial(self, tmp_path, monkeypatch, pools_started):
        paths = write_clips(tmp_path / "clips", 2)
        monkeypatch.delattr(os, "sched_getaffinity")
        audiofeat.extract_files(paths, self.CFG, "mean-over-time", None, b"src")
        assert pools_started == []

    def test_corrupt_clip_raises_and_writes_no_cache(self, tmp_path, monkeypatch, pools_started):
        paths = write_clips(tmp_path / "clips", 8)
        (tmp_path / "clips" / "clip4.wav").write_bytes(b"RIFF\x00\x00\x00\x00WAVEjunk")
        with pytest.raises(WavFormatError, match=re.escape(paths[4])):
            self.extract(monkeypatch, 2, paths, tmp_path / "f.fea1")
        assert pools_started == [2]
        assert sorted(os.listdir(tmp_path)) == ["clips"]  # no cache, no temp file

    def test_corrupt_clip_cli_error_matches_serial(self, tmp_path, monkeypatch, capsys):
        from clbench.cli import EXIT_RUNTIME, main

        clips = tmp_path / "clips"
        write_clips(clips, 8)
        classes = [{"label": label, "train_glob": str(clips / pattern), "test_glob": str(clips / "clip7.wav"),
                    "train_count": 3, "test_count": 1}
                   for label, pattern in (("a", "clip[0-2].wav"), ("b", "clip[3-5].wav"))]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"scenario": "DI", "tasks": [{"classes": classes}]}))
        for corrupt in (lambda path: path.write_bytes(b"RIFF\x00\x00\x00\x00WAVEjunk"),
                        write_truncated_wav):
            corrupt(clips / "clip4.wav")
            errors = []
            for cpus in (1, 2):
                use_cpus(monkeypatch, cpus)
                assert main(["extract-features", "--manifest", str(manifest)]) == EXIT_RUNTIME
                errors.append(capsys.readouterr().err)
            assert "clip4.wav" in errors[0]
            assert errors[1] == errors[0]
            assert not os.path.exists(f"{manifest}.fea1")

    def test_rows_equal_per_clip_oracle(self, tmp_path, monkeypatch, pools_started):
        # the whole WAV feature path, bit for bit against its plain per-clip
        # expressions: clips longer than, shorter than and exactly 10 s
        cfg, mode = LogMelConfig(), "mean-std-over-time"
        rng = np.random.default_rng(11)
        paths = []
        for i, seconds in enumerate((12.0, 7.0, 10.0, 10.3)):
            paths.append(str(tmp_path / f"clip{i}.wav"))
            write_wav(paths[-1], (rng.uniform(-0.4, 0.4, int(16000 * seconds)) * 32767).astype(np.int16))

        def oracle(path):
            with wave.open(path, "rb") as wf:
                raw = wf.readframes(wf.getnframes())
            samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
            if samples.size >= 160000:
                samples = samples[:160000].copy()
            else:
                samples = np.concatenate([samples, np.zeros(160000 - samples.size)])
            return pool(logmel_oracle(samples, cfg), mode)

        expected = np.vstack([oracle(p) for p in paths])
        assert np.array_equal(np.vstack([audiofeat.extract_file(p, cfg, mode) for p in paths]), expected)
        expected = expected.astype(np.float32).astype(np.float64)  # the FEA1 storage type
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            assert np.array_equal(audiofeat.extract_files(paths, cfg, mode, None, b"src"), expected)
        assert pools_started == [2]


def _extract_in_worker(paths, cfg):
    """Run in a pool worker with many CPUs on offer and pools forbidden."""
    import concurrent.futures

    def forbidden(*args, **kwargs):
        raise AssertionError("a pool worker started a nested pool")

    os.sched_getaffinity = lambda pid: set(range(4))
    concurrent.futures.ProcessPoolExecutor = forbidden
    return audiofeat.extract_files(paths, cfg, "mean-over-time", None, b"src")


def test_pool_worker_extracts_serially(tmp_path, monkeypatch):
    import concurrent.futures
    import multiprocessing

    paths = write_clips(tmp_path / "clips", 4)
    cfg = LogMelConfig(clip_seconds=1.0)
    use_cpus(monkeypatch, 1)
    serial = audiofeat.extract_files(paths, cfg, "mean-over-time", None, b"src")
    context = multiprocessing.get_context("fork")  # the worker patches only its own copy
    with concurrent.futures.ProcessPoolExecutor(max_workers=1, mp_context=context) as outer:
        nested = outer.submit(_extract_in_worker, paths, cfg).result(timeout=120)
    assert np.array_equal(nested, serial)
