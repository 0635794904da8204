"""Unit tests for repro.sim.endpoint and repro.sim.gridftp."""

import pytest

from repro.sim.endpoint import Endpoint, EndpointType
from repro.sim.gridftp import GridFTPConfig, TransferRequest
from repro.sim.storage import StorageSystem


def _endpoint(**kw):
    storage = StorageSystem(name="e:store", read_bps=1e9, write_bps=1e9)
    defaults = dict(
        name="EP",
        site="S",
        etype=EndpointType.GCS,
        nic_bps=1.25e9,
        storage=storage,
        n_dtn=2,
        cpu_cores=8,
        core_bps=1e9,
        oversubscription_penalty=0.1,
    )
    defaults.update(kw)
    return Endpoint(**defaults)


class TestEndpoint:
    def test_nic_capacity_scales_with_pool(self):
        ep = _endpoint()
        assert ep.nic_capacity == pytest.approx(2.5e9)

    def test_cpu_capacity_flat_until_cores(self):
        ep = _endpoint()
        assert ep.cpu_capacity(0) == pytest.approx(8e9)
        assert ep.cpu_capacity(8) == pytest.approx(8e9)

    def test_cpu_capacity_declines_when_oversubscribed(self):
        ep = _endpoint()
        assert ep.cpu_capacity(18) == pytest.approx(8e9 / 2.0)
        caps = [ep.cpu_capacity(n) for n in range(8, 100, 8)]
        assert caps == sorted(caps, reverse=True)

    def test_resource_names_unique(self):
        ep = _endpoint()
        names = {
            ep.nic_in_resource,
            ep.nic_out_resource,
            ep.cpu_resource,
            ep.read_resource,
            ep.write_resource,
        }
        assert len(names) == 5
        assert all(n.startswith("EP:") for n in names)

    def test_validation(self):
        with pytest.raises(ValueError):
            _endpoint(nic_bps=0.0)
        with pytest.raises(ValueError):
            _endpoint(n_dtn=0)
        with pytest.raises(ValueError):
            _endpoint(cpu_cores=0)
        with pytest.raises(ValueError):
            _endpoint(tcp_window_bytes=0.0)
        ep = _endpoint()
        with pytest.raises(ValueError):
            ep.cpu_capacity(-1)


class TestTransferRequest:
    def test_effective_concurrency_min_c_nf(self):
        r = TransferRequest(src="A", dst="B", total_bytes=1e9, n_files=3, concurrency=8)
        assert r.effective_concurrency == 3
        r2 = TransferRequest(src="A", dst="B", total_bytes=1e9, n_files=100, concurrency=8)
        assert r2.effective_concurrency == 8

    def test_stream_count(self):
        r = TransferRequest(
            src="A", dst="B", total_bytes=1e9, n_files=10, concurrency=4, parallelism=4
        )
        assert r.n_streams == 16
        # A 16-stream transfer with C=16 P=1 uses more processes (the §4.3.1
        # example of why S and G are distinct features).
        r2 = TransferRequest(
            src="A", dst="B", total_bytes=1e9, n_files=100, concurrency=16, parallelism=1
        )
        assert r2.n_streams == 16
        assert r2.effective_concurrency > r.effective_concurrency

    def test_avg_file_bytes(self):
        r = TransferRequest(src="A", dst="B", total_bytes=1e9, n_files=4)
        assert r.avg_file_bytes == pytest.approx(2.5e8)

    def test_overhead_amortised_by_concurrency(self):
        cfg = GridFTPConfig(startup_s=2.0, per_file_s=0.1, per_dir_s=0.5)
        r1 = TransferRequest(
            src="A", dst="B", total_bytes=1e9, n_files=100, n_dirs=2, concurrency=1
        )
        r4 = TransferRequest(
            src="A", dst="B", total_bytes=1e9, n_files=100, n_dirs=2, concurrency=4
        )
        assert r1.overhead_seconds(cfg) == pytest.approx(2.0 + 10.0 + 1.0)
        assert r4.overhead_seconds(cfg) == pytest.approx(2.0 + 2.5 + 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransferRequest(src="A", dst="A", total_bytes=1.0)
        with pytest.raises(ValueError):
            TransferRequest(src="A", dst="B", total_bytes=0.0)
        with pytest.raises(ValueError):
            TransferRequest(src="A", dst="B", total_bytes=1.0, n_files=0)
        with pytest.raises(ValueError):
            TransferRequest(src="A", dst="B", total_bytes=1.0, concurrency=0)

    @pytest.mark.parametrize(
        "size", [float("nan"), float("inf"), float("-inf")]
    )
    def test_nonfinite_total_bytes_rejected(self, size):
        """NaN slips past ``total_bytes <= 0`` and inf is positive; both
        would be served as a NaN rate, so the request must refuse them."""
        with pytest.raises(ValueError, match="finite"):
            TransferRequest(src="A", dst="B", total_bytes=size)


class TestGridFTPConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridFTPConfig(startup_s=-1.0)
        with pytest.raises(ValueError):
            GridFTPConfig(integrity_discount=0.0)
        with pytest.raises(ValueError):
            GridFTPConfig(integrity_discount=1.5)
        with pytest.raises(ValueError):
            GridFTPConfig(default_concurrency=0)
