"""Streaming deserialization and shard fan-in (`load_from`,
`merge_serialized`) -- the service-facing additions to core/serialize."""

from __future__ import annotations

import io
import os
import socket
import threading

import numpy as np
import pytest

from repro.core import serialize
from repro.core.errors import ConfigurationError
from repro.core.framework import QuantileFramework

PHIS = [0.1, 0.5, 0.9]


def make_framework(seed=0, n=20_000, epsilon=0.02):
    fw = QuantileFramework.from_accuracy(epsilon=epsilon, n=n)
    fw.extend(np.random.default_rng(seed).permutation(n).astype(float))
    return fw


class TestLoadFrom:
    def test_pipe(self):
        """A pipe is non-seekable: the regression `load` cannot see."""
        fw = make_framework()
        payload = serialize.dumps(fw)
        read_fd, write_fd = os.pipe()
        writer = threading.Thread(
            target=lambda: (os.write(write_fd, payload),
                            os.close(write_fd))
        )
        writer.start()
        with os.fdopen(read_fd, "rb") as fh:
            out = serialize.load_from(fh)
        writer.join()
        assert out.quantiles(PHIS) == fw.quantiles(PHIS)
        assert out.error_bound() == fw.error_bound()

    def test_socket(self):
        fw = make_framework(seed=3)
        payload = serialize.dumps(fw)
        a, b = socket.socketpair()
        try:
            writer = threading.Thread(
                target=lambda: (a.sendall(payload), a.close())
            )
            writer.start()
            with b.makefile("rb") as fh:
                out = serialize.load_from(fh)
            writer.join()
            assert out.quantiles(PHIS) == fw.quantiles(PHIS)
        finally:
            b.close()

    def test_does_not_consume_past_payload(self):
        """Frames can be concatenated: each load stops at its own end."""
        fw1, fw2 = make_framework(seed=1), make_framework(seed=2)
        stream = io.BytesIO(serialize.dumps(fw1) + serialize.dumps(fw2))
        out1 = serialize.load_from(stream)
        out2 = serialize.load_from(stream)
        assert stream.read() == b""
        assert out1.quantiles(PHIS) == fw1.quantiles(PHIS)
        assert out2.quantiles(PHIS) == fw2.quantiles(PHIS)

    def test_matches_load(self, tmp_path):
        fw = make_framework(seed=9)
        path = tmp_path / "sketch.bin"
        with open(path, "wb") as fh:
            serialize.dump(fw, fh)
        with open(path, "rb") as fh:
            via_load = serialize.load(fh)
        with open(path, "rb") as fh:
            via_load_from = serialize.load_from(fh)
        assert via_load.quantiles(PHIS) == via_load_from.quantiles(PHIS)


class TestMergeSerialized:
    def test_fan_in_is_certified_and_no_looser_than_absorb(self):
        """merge_serialized over shard payloads is §4.9's recombination:
        the union's exact ranks sit within its bound, the bound is no
        looser than an ``absorb`` fold of the same payloads, and the
        payloads' bytes stay as they were."""
        n_shards, per_shard = 4, 10_000
        n = n_shards * per_shard
        rng = np.random.default_rng(5)
        data = rng.permutation(n).astype(float)  # rank of v is v + 1
        payloads = []
        for part in np.split(data, n_shards):
            fw = QuantileFramework.from_accuracy(epsilon=0.02, n=n)
            fw.extend(part)
            payloads.append(serialize.dumps(fw))
        sent = list(payloads)

        merged = serialize.merge_serialized(payloads)
        assert merged.n == n
        assert payloads == sent
        bound = merged.error_bound()
        for phi in (0.01, *PHIS, 0.99):
            target = min(max(int(np.ceil(phi * n)), 1), n)
            assert abs(merged.quantile(phi) + 1 - target) <= bound

        fold = serialize.loads(payloads[0])
        for payload in payloads[1:]:
            fold.absorb(serialize.loads(payload))
        assert 0 < bound <= fold.error_bound()

    def test_single_payload(self):
        fw = make_framework(seed=8)
        merged = serialize.merge_serialized([serialize.dumps(fw)])
        assert merged.quantiles(PHIS) == fw.quantiles(PHIS)

    def test_empty_iterable_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            serialize.merge_serialized([])

    def test_accepts_generator(self):
        fws = [make_framework(seed=s, n=5_000) for s in (1, 2)]
        merged = serialize.merge_serialized(
            serialize.dumps(fw) for fw in fws
        )
        assert merged.n == 10_000
