"""Extension bench: submission-time prediction accuracy (scheduling use),
plus serving throughput of the vectorized batch prediction engine."""

from conftest import MIN_SAMPLES

from repro.harness import exp_online
from repro.serve import run_serve_bench


def test_bench_serve_throughput(benchmark):
    """1k concurrent requests against a 10k-transfer active window: one
    batch call must beat answering them one ``predict`` call at a time
    by >= 10x while producing the same rates."""
    result = benchmark.pedantic(
        run_serve_bench,
        kwargs={"n_active": 10_000, "n_requests": 1_000, "n_endpoints": 40},
        rounds=1,
        iterations=1,
    )
    print("\n" + result.render())
    assert result.speedup >= 10.0
    assert result.max_abs_diff == 0.0


def test_bench_online(study, benchmark):
    result = benchmark.pedantic(
        exp_online.run,
        args=(study,),
        kwargs={"min_samples": MIN_SAMPLES, "max_eval": 120},
        rounds=1,
        iterations=1,
    )
    print("\n" + result.render())
    m = result.metrics
    # The paper's scheduling use case only works if prediction without
    # future knowledge stays accurate: require single-digit online MdAPE
    # and at worst a modest penalty over the retrospective evaluation.
    assert m["median_online_mdape"] < 10.0
    assert m["online_penalty_factor"] < 3.0
