import json
import os

import pytest

from seqcoupon import simulator
from seqcoupon.domain import CouponConfig, CouponSet, ItemRecord
from seqcoupon.learner import LearnerConfig
from seqcoupon.simulator import GroundTruth, SimConfig, generate_catalog, run_rct
from seqcoupon.uplift import fit_predictor_pair

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def load_golden(name: str):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return json.load(fh)


def standard_menu(purpose: str, validity_h: float = 72.0) -> CouponSet:
    return CouponSet(
        arms=(
            CouponConfig.none(),
            CouponConfig(discount_pct=5, validity_hours=validity_h, cap_yen=1000),
            CouponConfig(discount_pct=10, validity_hours=validity_h, cap_yen=2000),
            CouponConfig(discount_pct=15, validity_hours=validity_h, cap_yen=3000),
        ),
        purpose=purpose,
    )


@pytest.fixture(scope="session")
def round1_menu() -> CouponSet:
    return standard_menu("round1")


@pytest.fixture(scope="session")
def round2_menu() -> CouponSet:
    return standard_menu("round2")


@pytest.fixture(scope="session")
def fixture_item() -> ItemRecord:
    fields = load_golden("encodings.json")["item"]
    return ItemRecord(**fields)


@pytest.fixture(scope="session")
def small_world(round1_menu, round2_menu):
    """A 4k-item catalog with a randomized two-round log, shared across tests."""
    config = SimConfig(n_items=4000, rng_seed=3)
    gt = GroundTruth(config)
    items = generate_catalog(config)
    probs = [0.25] * 4
    log1, survivors, log2 = run_rct(
        gt, items, round1_menu, round2_menu, probs, probs, seed=3
    )
    return {
        "config": config,
        "gt": gt,
        "items": items,
        "log1": log1,
        "survivors": survivors,
        "log2": log2,
    }


@pytest.fixture(scope="session")
def trained_pair(small_world, round1_menu, round2_menu):
    return fit_predictor_pair(
        small_world["items"],
        small_world["log1"],
        small_world["log2"],
        round1_menu,
        round2_menu,
        config_first=LearnerConfig(kind="logistic", learning_rate=1.0, epochs=300),
        config_second=LearnerConfig(kind="boosted_stumps", learning_rate=0.4, max_stumps=20),
    )


@pytest.fixture
def cleared_serial_columns(monkeypatch):
    """No kept id, seller-id or key columns, so the next catalog drawn builds and hashes its own."""
    monkeypatch.setattr(simulator, "_kept", ())
