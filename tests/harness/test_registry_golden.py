"""Golden pins for every registered experiment.

All 20 experiments run once, over one shared quick (4-day) study with the
CLI's ``--quick`` overrides, exactly as ``repro-experiments --quick``
does.  Each experiment is pinned by two SHA-256 digests: one over its
``metrics`` in float hex (a one-ULP change anywhere in ``core``, ``ml``
or ``harness`` that reaches a headline number fails it), and one over
its full rendered text (table, ASCII figures, rounded metrics, notes).

A digest that moves is a change to a paper result: explain it, then
re-record with
``PYTHONPATH=src python tests/harness/test_registry_golden.py``.
"""

import hashlib
import json

import pytest

from repro.harness.registry import EXPERIMENTS, QUICK_OVERRIDES, run_experiments
from repro.harness.runners import StudyConfig

# experiment id -> (metrics digest, render digest), first 16 hex chars.
GOLDEN = {
    "overview": ("57c17c974295574a", "ed8984573b6b5d15"),
    "table1": ("f4dd598b1b2af2a3", "3ac9d777855c00bf"),
    "figure3": ("44136fa355b3678a", "8b40ce02d40ecc60"),
    "figure4": ("44136fa355b3678a", "007b2db0d0568b1a"),
    "figure5": ("046621049eb5878f", "ddc50f9facb8735e"),
    "figure6": ("bb76fcefb491a6bc", "ad2184f93e81abd6"),
    "perfsonar": ("24f386c3a0037538", "a276011f8c9d3702"),
    "table3": ("5ba3346cba5aabc3", "1aebda021ed0c775"),
    "table4": ("24adb49158c3604f", "34a518633e30bfb3"),
    "table5": ("76c4a0bf94270d1f", "0d8704694213cf40"),
    "figure8": ("944816bc5cdd710e", "bf6b86960cf22db6"),
    "figure9": ("088941c452fcdb25", "e5281f1ec74dde48"),
    "figure10": ("cde0c72aa9128368", "531d8b874596c06c"),
    "figure11": ("604fbdaf4a77c369", "2b4cfe7fb810de3d"),
    "figure12": ("0333b263fccfa6ee", "dbdc9d2b77025489"),
    "figure13": ("ae93504b730445b1", "a8b74dea99de380e"),
    "single_model": ("7aa77ca9a5a7d035", "32af6d6ace31801e"),
    "lmt": ("59594d36e15d00d8", "f4951f3f23e8f4d2"),
    "online": ("0553df9ec30d3707", "7aabb736b3127f80"),
    "tunables": ("62fe82ac3481680b", "7a2f17f8e2689612"),
}


def _digests(result) -> tuple[str, str]:
    metrics = json.dumps(
        {k: float(v).hex() for k, v in result.metrics.items()},
        sort_keys=True,
    )
    return (
        hashlib.sha256(metrics.encode()).hexdigest()[:16],
        hashlib.sha256(result.render().encode()).hexdigest()[:16],
    )


def _run_registry() -> dict[str, tuple[str, str]]:
    runs = run_experiments(
        list(EXPERIMENTS), config=StudyConfig.quick(), workers=1,
        overrides=QUICK_OVERRIDES,
    )
    failed = {run.experiment_id: run.error for run in runs if not run.ok}
    assert not failed, failed
    return {run.experiment_id: _digests(run.result) for run in runs}


@pytest.fixture(scope="module")
def digests():
    return _run_registry()


def test_every_experiment_is_pinned():
    assert set(GOLDEN) == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_metrics_digest(digests, experiment_id):
    assert digests[experiment_id][0] == GOLDEN[experiment_id][0]


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_render_digest(digests, experiment_id):
    assert digests[experiment_id][1] == GOLDEN[experiment_id][1]


if __name__ == "__main__":
    for eid, (metrics, render) in _run_registry().items():
        print(f'    "{eid}": ("{metrics}", "{render}"),')
