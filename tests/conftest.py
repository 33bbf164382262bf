import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ctxsent.backend import BackendConfig, MockBackend, MockOracleParams
from ctxsent.datamodel import POLARITIES, Sample

settings.register_profile("ci", derandomize=True, max_examples=100)
settings.load_profile("ci")

FIXTURES = Path(__file__).parent / "fixtures"


def make_samples(n: int, seed: int = 0) -> list[Sample]:
    """Synthetic labelled samples with unique sentences."""
    samples = []
    for i in range(n):
        gold = POLARITIES[(i + seed) % 3]
        samples.append(
            Sample(
                id=f"s{i:05d}",
                split="test",
                sentence=f"Synthetic sample {i:05d} about topic {(i * 7 + seed) % 13}.",
                gold=gold,
            )
        )
    return samples


def make_mock_backend(
    seed: int = 7,
    base_accuracy: float = 0.7,
    hard_context_accuracy: float = 0.85,
    **kwargs,
) -> MockBackend:
    params = MockOracleParams(
        seed=seed,
        base_accuracy=base_accuracy,
        hard_context_accuracy=hard_context_accuracy,
        **kwargs,
    )
    return MockBackend(BackendConfig(kind="mock", model_id="mock-test", mock=params))


def same_columns(a, b) -> bool:
    """Whether two column sets of one type hold the same values: arrays bit for bit, other fields by ==."""
    if type(a) is not type(b):
        return False
    for name in vars(a):
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            if not (x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()):
                return False
        elif x != y:
            return False
    return True


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def tiny30_path() -> Path:
    return FIXTURES / "tiny30.jsonl"


def write_config(path: Path, **overrides) -> Path:
    """Write a mock-backed run config pointing output at path's directory."""
    config = {
        "dataset": {"path": str(FIXTURES / "tiny30.jsonl"), "adapter": "canonical-jsonl"},
        "level": "sentence",
        "generator_backend": {"kind": "mock", "model_id": "mock-generator"},
        "classifier_backend": {"kind": "mock", "model_id": "mock-classifier"},
        "knowledge_types": ["historical"],
        "fusion": {"alpha": 0.3, "beta": 0.45, "strategy": "cf"},
        "out_dir": str(path.parent / "out"),
        "run_id": "run",
        "seed": 11,
    }
    config.update(overrides)
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path
