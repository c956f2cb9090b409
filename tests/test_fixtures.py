import pytest
import scipy.optimize

from semistatic import cli, fixtures

# the strike ladders of the benchmark's generated chains: 113 quotes at step
# 25, and the packaged 57-quote shape at step 50
STRIKE_STEPS = (25, 50)


@pytest.mark.parametrize("seed", [20170321, 1])
@pytest.mark.parametrize("step", STRIKE_STEPS)
def test_brentq_port_is_bit_equal_to_scipy(monkeypatch, step, seed):
    # every martingale tilt of the chain: the same root, to the bit
    config = cli.load_config()
    port = fixtures._brentq
    roots = []

    def both(f, xa, xb, xtol):
        ours = port(f, xa, xb, xtol)
        roots.append((ours, scipy.optimize.brentq(f, xa, xb, xtol=xtol)))
        return ours

    monkeypatch.setattr(fixtures, "_brentq", both)
    strikes = tuple(float(k) for k in range(1500, 2501, step))
    fixtures.synthetic_chain(config.model, strikes=strikes, maturities=config.maturities,
                             qty_seed=seed)
    # one tilt per period-1 node and one for the marginal
    assert len(roots) > len(strikes)
    assert [ours for ours, _ in roots] == [ref for _, ref in roots]


def test_brentq_port_rejects_an_unbracketed_root():
    with pytest.raises(ValueError):
        fixtures._brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-14)
