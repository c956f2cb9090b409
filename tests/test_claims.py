import numpy as np
import pytest

from semistatic.claims import (
    asian_call,
    claim_breakpoints,
    claim_payout,
    claim_payout_grid,
    custom_claim,
    knockout_call,
    load_claim_table,
    lookback_call,
    lookback_digital,
    vanilla_call,
)

import oracles


def test_knockout_barrier_branch():
    claim = knockout_call(2350.0, 2400.0)
    assert claim_payout(claim, (2450.0, 2500.0)) == 0.0
    # strict inequality: at the barrier the option is dead
    assert claim_payout(claim, (2400.0, 2500.0)) == 0.0
    assert claim_payout(claim, (2399.0, 2500.0)) == pytest.approx(150.0)


def test_asian_at_the_strike():
    assert claim_payout(asian_call(2350.0), (2300.0, 2400.0)) == 0.0


def test_digital_weak_inequality():
    claim = lookback_digital(2350.0, 10.0)
    assert claim_payout(claim, (2300.0, 2360.0)) == 10.0
    assert claim_payout(claim, (2350.0, 2300.0)) == 10.0  # X1 == K pays
    assert claim_payout(claim, (2300.0, 2340.0)) == 0.0


def test_lookback_takes_the_max():
    assert claim_payout(lookback_call(2350.0), (2400.0, 2300.0)) == pytest.approx(50.0)


def test_wrong_path_length_rejected():
    with pytest.raises(ValueError):
        claim_payout(vanilla_call(2350.0), (2400.0,))


def test_pointwise_dominance_and_nonnegativity():
    rng = np.random.default_rng(11)
    ko = knockout_call(2350.0, 2400.0)
    vc = vanilla_call(2350.0)
    lb = lookback_call(2350.0)
    asian = asian_call(2350.0)
    for _ in range(500):
        path = tuple(rng.uniform(1500.0, 3000.0, size=2))
        k, v, l, a = (claim_payout(c, path) for c in (ko, vc, lb, asian))
        assert 0.0 <= k <= v <= l
        assert 0.0 <= a <= l


def test_grid_evaluation_matches_scalar():
    rng = np.random.default_rng(3)
    points = rng.uniform(1200.0, 3200.0, size=(64, 2))
    # the strike and barrier themselves, where the inequalities decide
    points[:4] = [(2350.0, 2350.0), (2400.0, 2500.0), (2300.0, 2350.0), (2350.0, 2300.0)]
    for claim in (vanilla_call(2350.0), knockout_call(2350.0, 2400.0),
                  asian_call(2350.0), lookback_call(2350.0), lookback_digital(2350.0)):
        grid_vals = claim_payout_grid(claim, points)
        scalar_vals = [oracles.claim_payout(claim, p) for p in points]
        np.testing.assert_array_equal(grid_vals, scalar_vals)
        assert [claim_payout(claim, p) for p in points] == scalar_vals


def test_breakpoints():
    ko = claim_breakpoints(knockout_call(2350.0, 2400.0))
    assert [(b.value, b.kind) for b in ko[0]] == [(2400.0, "jump")]
    assert [(b.value, b.kind) for b in ko[1]] == [(2350.0, "kink")]

    vc = claim_breakpoints(vanilla_call(2350.0))
    assert vc[0] == []
    assert [(b.value, b.kind) for b in vc[1]] == [(2350.0, "kink")]

    dig = claim_breakpoints(lookback_digital(2350.0))
    for period in dig:
        assert [(b.value, b.kind) for b in period] == [(2350.0, "jump")]

    asian = claim_breakpoints(asian_call(2350.0))
    assert all(b.kind == "kink" and b.value == 2350.0 for period in asian for b in period)


def test_custom_claim_lookup_and_csv(tmp_path):
    table = {(2300.0, 2400.0): 12.5, (2300.0, 2500.0): 0.0}
    claim = custom_claim(table)
    assert claim_payout(claim, (2300.0, 2400.0)) == 12.5
    with pytest.raises(KeyError):
        claim_payout(claim, (2300.0, 2450.0))
    assert claim_breakpoints(claim) == [[], []]

    path = tmp_path / "claim.csv"
    path.write_text("x1,x2,payout\n2300,2400,12.5\n2300,2500,0\n")
    loaded = load_claim_table(path)
    assert claim_payout(loaded, (2300.0, 2400.0)) == 12.5


def test_contract_size_not_applied_internally():
    small = vanilla_call(2350.0, contract_size=1.0)
    big = vanilla_call(2350.0, contract_size=100.0)
    assert claim_payout(small, (2300.0, 2400.0)) == claim_payout(big, (2300.0, 2400.0))


def test_claim_validation():
    with pytest.raises(ValueError):
        vanilla_call(-5.0)
    with pytest.raises(ValueError):
        knockout_call(2350.0, -1.0)
    with pytest.raises(ValueError):
        lookback_digital(2350.0, payout_level=0.0)


@pytest.mark.parametrize("size", [0.0, -100.0, float("nan"), float("inf")])
def test_contract_size_must_be_positive_and_finite(size):
    # at -100 every price flipped sign instead of failing
    with pytest.raises(ValueError, match="contract size"):
        knockout_call(2350.0, 2400.0, contract_size=size)
    with pytest.raises(ValueError, match="contract size"):
        custom_claim({(2300.0, 2400.0): 12.5}, contract_size=size)


@pytest.mark.parametrize("path, payout", [
    ((2300.0, 2400.0), float("nan")),
    ((2300.0, float("inf")), 1.0),
], ids=["nan-payout", "inf-level"])
def test_custom_claim_rejects_non_finite_entries(tmp_path, path, payout):
    # a nan payout used to load, and pricing then failed with a misleading
    # "interior-point start is not strictly feasible"
    with pytest.raises(ValueError, match="non-finite") as caught:
        custom_claim({(2300.0, 2500.0): 0.0, path: payout})
    assert str(path) in str(caught.value)
    table = tmp_path / "claim.csv"
    table.write_text(f"x1,x2,payout\n2300,2500,0\n{path[0]},{path[1]},{payout}\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_claim_table(table)
