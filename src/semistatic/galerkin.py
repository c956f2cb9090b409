"""Finite-dimensional program assembly: indicator basis for dynamic index
strategies, buy/sell splitting of option positions, and the proportional
transaction-cost variant on the underlying.

The decision vector is laid out as

    [x+ per quote | x- per quote | dynamic trading variables]

where the dynamic block holds, for each trading period s = 0..T-1, the index
position on each trading cell of period s's strikes (one cell at s = 0): one
free variable per cell when the index trades without cost, or nonnegative
purchase and sale legs per cell under transaction costs.  Cash is not a
variable: the agent spends the budget w on quotes at the ask (buys) or the bid
(sells) and holds the rest, cash = w - cost @ y, which costs and pays 1.  Every
grid point therefore contributes one affine loss-argument row

    a_i = claim_i - w + sum_j (price_j - payoff_ij) y_j - dynamic gain_i

with price_j the ask for a buy column and minus the bid for a sell column, and
the expected-loss objective is sum_i m_i * exp(kappa * a_i) with
kappa = risk_aversion / reference_wealth.  The program has only its boxes (and
pointwise rows, where a caller adds them); terminal wealth is w - a_i + claim_i.

The rows are never stored dense, and a quote is stored once: its buy and
sell columns ask - payoff and payoff - bid are its net column, the negated
payoff, plus one cash column of ones shared by every quote, whose
coefficient is the cash the quotes spend, ask x+ - bid x-.  The grid is a
Cartesian product, so a row index is a pair (leading point i, last-period
level t), M = M' N_T, and every such column falls in one of three factors
(``RowFactors``):

- A (M' x nA): columns constant along the last period, on the leading
  points: options of the leading maturities, the cash column, ``z0``, the
  rebalance cells of every leading period but the last, and a level column
  of -1;
- B (N_T x nB): columns constant along the leading periods, on the last
  period's levels: last-maturity options, the period-0 ``dz`` legs;
- cell slots: the columns of the last trading period's rebalance cells (and,
  with costs, of every trading period's ``dz`` legs) depend on both, but a
  row meets only the cell its leading point lies in.  They are stored as one
  (cell column, value) pair per row and slot: one slot without costs, two
  (purchase, sale) per trading period with them.

The paper's scale, 804 quotes on 401 strike levels per period (159,201
points, 1,752 columns on 949 net columns), holds its rows in 3.9 MB instead
of 2.2 GB of dense rows.  A program without a grid (a hand-built one) is the case N_T = 1:
every column in A.  ``rows`` builds the dense array on request, for tests
and reference oracles.

The assemblers read only what the columns depend on (quotes, grid, lot size,
index cost) and return the bare strategy space: budget 0, no claim, no risk
scale.  The one column kernel, ``strategy_factors``, evaluates every
variable on the levels of any period axes, the grid's factor axes or
simulated paths, and holds the drop rule: on the grid it places only the
columns a space keeps and names the rest, which ``layout.dropped`` lists.
The static-only space is the same pass without the index positions.
Everything else derives from the space by two methods, each the one place
its decision lives: ``leg`` sets the claim offsets claim_i - w, the budget
and kappa; ``epigraph`` lifts the rows to [rows | -1] for the least level t
with a_i(y) <= t (the hedging LPs, the zero claim's among them, which tests
for arbitrage) and starts t inside every row, the one LP start.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .claims import claim_payout_grid
from .instruments import option_payoff, position_bounds
from .scenario import QuadratureGrid


def trading_cells(strikes) -> tuple[tuple[float, float], ...]:
    """Half-open cells [K_n, K_(n+1)) partitioning (0, inf), with K_0 = 0 and
    the top edge at +inf.  An empty strike list yields the single full cell."""
    ks = sorted(set(float(k) for k in strikes))
    edges = [0.0] + ks + [np.inf]
    return tuple((a, b) for a, b in zip(edges, edges[1:]))


def cell_index(strikes, x) -> np.ndarray:
    """Cell number of level(s) ``x`` under the strike partition (left-closed)."""
    ks = np.asarray(sorted(set(float(k) for k in strikes)))
    return np.searchsorted(ks, np.asarray(x, dtype=float), side="right")


@dataclass(frozen=True)
class DecisionLayout:
    """Names of the decision vector: every quote, the variables in layout
    order, and the variables the column kernel left out."""

    quote_ids: tuple[str, ...]
    names: tuple[str, ...]
    dropped: tuple[str, ...] = ()

    @property
    def options(self) -> int:
        """The number of option variables, the ``buy:`` and ``sell:`` names,
        which come before the dynamic block."""
        return sum(n.startswith(("buy:", "sell:")) for n in self.names)

    def holdings(self, y: np.ndarray) -> list[tuple[str, float]]:
        """(name, value) pairs of ``y``: each quote's net option count, buys
        less sells, in chain order with zeros included, then each dynamic
        variable (z0/z-cells or dz legs) by name."""
        first = self.options
        net = dict.fromkeys(self.quote_ids, 0.0)
        for name, value in zip(self.names[:first], y[:first].tolist()):
            tag, _, qid = name.partition(":")
            net[qid] += value if tag == "buy" else -value
        return [*net.items(), *zip(self.names[first:], y[first:].tolist())]


class NetLayout(NamedTuple):
    """The variables in net order, [plain | buys | sells], against the N net
    coordinates, [plain | quote nets | cash] in ``positions``."""

    plain: int              # p: variables that are factor columns of their own
    quotes: int             # J: quotes with both sides, one net coordinate each
    positions: np.ndarray   # (N,) factor column of each net coordinate
    to_factor: np.ndarray   # (N,) its inverse permutation
    variables: np.ndarray   # (n,) program column of each variable
    ask: np.ndarray         # (J,)
    bid: np.ndarray         # (J,)


@dataclass(frozen=True, eq=False)
class RowFactors:
    """The loss rows R (M, n) of a program as three factors on net columns.

    A quote's buy and sell variables x+ and x- enter every row only through
    its net position u = x+ - x- and the cash they spend, t = ask x+ - bid x-.
    The factors therefore hold R_net (M, N) with R = R_net P: per quote one
    net column, its negated payoff, one cash column of ones for all of them,
    and the other variables' columns as they are.  P maps the n program
    variables to the N = J + 1 + r net coordinates (u, t, the rest) of J such
    quotes and r other variables.  A quote with one side (the kernel left
    the other out) is a plain column, ask - payoff or payoff - bid; without
    quotes of both sides there is no cash column and P is a permutation.
    Only ``dense`` spells the buy and sell columns out.

    Rows are C-ordered over (leading point i, last-period level t), so R_net
    viewed as (M', N_T, N) has, per factor column:

    - ``lead`` (M', nA): R[i, t, a] = lead[i, a];
    - ``last`` (N_T, nB): R[i, t, b] = last[t, b];
    - slots: R[i, t, c] = values[j, i, t] where c = cells[j, i], summed over
      the K slots j; there are k = ``cell_count`` cell columns.  Each slot
      of a row holds its own cell column, and a slot whose cell was dropped
      holds 0 at cell column 0: no row has nonzero values in two slots at
      one cell column, so the products add each entry of R once.

    Factor columns are ordered [A | B | cells].  ``order`` holds the program
    column of each, the buy variable at a quote's net column and -1 at the
    cash column; ``sell``, ``ask`` and ``bid`` hold a net column's sell
    variable and prices (-1 and 0 elsewhere).  ``net`` (P y) and ``net_t``
    (P^T v) take and give the variables in net order (``NetLayout``);
    ``matvec`` (R_net w), ``rmatvec`` (R_net^T v) and ``gram`` work on the
    net coordinates, and ``product`` is R y in program order.  For weights
    w, W = w as (M', N_T), r = W 1 and q = W^T 1, the Gram
    R_net^T diag(w) R_net has the blocks A^T diag(r) A, B^T diag(q) B and
    A^T W B (Van Loan 2000); the cell columns meet A and B through per-cell
    sums of the slots' weighted rows, and each other through one bincount
    over cell pairs.
    A stack of legs (B, M) runs one bincount per leg on the same keys as a
    single leg, so each leg's entries are summed in its own row order, as
    they would be alone.
    """

    lead: np.ndarray     # (M', nA)
    last: np.ndarray     # (N_T, nB)
    cells: np.ndarray    # (K, M') cell column of each slot, in [0, cell_count)
    values: np.ndarray   # (K, M', N_T) slot values
    cell_count: int
    order: np.ndarray    # (N,) program column of each factor column, -1 for cash
    sell: np.ndarray     # (N,) sell variable of a quote's net column, else -1
    ask: np.ndarray      # (N,) ask of a quote's net column, else 0
    bid: np.ndarray      # (N,) bid of a quote's net column, else 0

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.lead.shape[0], self.last.shape[0]

    @property
    def width(self) -> int:
        """N, the number of net coordinates (factor columns)."""
        return self.order.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        lead, last = self.grid_shape
        return lead * last, int((self.order >= 0).sum() + (self.sell >= 0).sum())

    @functools.cached_property
    def net_layout(self) -> NetLayout:
        """Where each variable and net coordinate sits (see ``NetLayout``)."""
        plain = np.flatnonzero((self.order >= 0) & (self.sell < 0))
        nets = np.flatnonzero(self.sell >= 0)
        positions = np.concatenate([plain, nets, np.flatnonzero(self.order < 0)])
        return NetLayout(
            plain.size, nets.size, positions, np.argsort(positions),
            np.concatenate([self.order[plain], self.order[nets], self.sell[nets]]),
            self.ask[nets], self.bid[nets],
        )

    @functools.cached_property
    def _prices(self) -> np.ndarray:
        """The asks and bids of the quotes with both sides, (2, J, 1)."""
        _, _, _, _, _, ask, bid = self.net_layout
        return np.stack([ask, bid])[:, :, None]

    def net(self, y):
        """P y: the net coordinates of y (n,), or of each row of a stack of
        legs (B, n), in variable order."""
        p, J, _, to_factor, _, ask, bid = self.net_layout
        if not J:
            return y.take(to_factor, axis=-1)
        buy, sell = y[..., p:p + J], y[..., p + J:]
        # ask @ buy and bid @ sell, one dot product each
        spent = np.matmul(y[..., p:].reshape(y.shape[:-1] + (2, 1, J)), self._prices)[..., 0, 0]
        cash = spent[..., 0] - spent[..., 1]
        net = np.concatenate([y[..., :p], buy - sell, cash[..., None]], axis=-1)
        return net.take(to_factor, axis=-1)

    def net_t(self, v):
        """P^T v, in variable order, for net coordinates v (N,) or (B, N)."""
        p, J, positions, _, _, ask, bid = self.net_layout
        v = v.take(positions, axis=-1)
        if not J:
            return v
        net, cash = v[..., p:p + J], v[..., -1:]
        return np.concatenate([v[..., :p], net + ask * cash, -net - bid * cash], axis=-1)

    def matvec(self, w):
        """R_net w, for net coordinates w (N,) or a stack of them (B, N)."""
        W = w[None] if w.ndim == 1 else w
        na, nb = self.lead.shape[1], self.last.shape[1]
        out = (np.matmul(self.lead, W[:, :na, None])
               + np.matmul(self.last, W[:, na:na + nb, None]).transpose(0, 2, 1))
        rest = W[:, na + nb:]
        for cells, values in zip(self.cells, self.values):
            out += values * rest.take(cells, axis=1)[:, :, None]
        return out.reshape(w.shape[:-1] + (-1,))

    def rmatvec(self, v):
        """R_net^T v, on the net coordinates, for v (M,) or (B, M)."""
        V = v.reshape((-1,) + self.grid_shape)
        # each slot's weighted rows into its cell column, one bincount per leg
        sums = (self.values * V[:, None]).sum(axis=3).reshape(len(V), -1)
        rest = np.array([np.bincount(self.cells.ravel(), leg, minlength=self.cell_count)
                         for leg in sums])
        out = np.concatenate([np.matmul(self.lead.T, V.sum(axis=2)[:, :, None])[:, :, 0],
                              np.matmul(self.last.T, V.sum(axis=1)[:, :, None])[:, :, 0], rest],
                             axis=1)
        return out.reshape(v.shape[:-1] + (-1,))

    def product(self, y):
        """R y for y in program column order."""
        return self.matvec(self.net(y[self.net_layout.variables]))

    @functools.cached_property
    def _cell_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The Gram's cell rows in bincount order: for each pair of slots
        j <= l, the index j K + l of its weighted row sum, listed again with
        the two cells the other way round when j < l; and the key in the
        (k, N) cell rows of each sum ``gram`` lists: every slot's row against
        the A columns, then against the B columns, then the cell pairs."""
        K, na, nb = self.cells.shape[0], self.lead.shape[1], self.last.shape[1]
        n = na + nb + self.cell_count
        row = self.cells[:, :, None] * n   # (K, M', 1): where each slot's cell row starts
        order, keys = [], [(row + np.arange(na)).ravel(), (row + na + np.arange(nb)).ravel()]
        for j in range(K):
            for l in range(j, K):
                for a, b in [(j, l), (l, j)][:1 + (l > j)]:
                    order.append(j * K + l)
                    keys.append(self.cells[a] * n + na + nb + self.cells[b])
        return np.array(order, dtype=np.intp), np.concatenate(keys).astype(np.intp)

    def gram(self, w, shift=None):
        """R_net^T diag(w) R_net for nonnegative weights w, on the net
        coordinates; with ``shift`` (N,), zero on the cell columns, the Gram
        of R_net + 1 shift^T, whose column c moves by shift[c] on every row.
        A stack of weights (B, M), with shifts (B, N), gives one Gram per leg
        (B, N, N).

        The A and B diagonal blocks are X^T X of one scaled buffer, a
        symmetric rank-k update (SYRK); off-diagonal blocks are written once
        and mirrored, and the cell block is symmetric by construction.  Every
        product runs per leg, so a leg's Gram does not depend on its stack.
        """
        W = w.reshape((-1,) + self.grid_shape)
        legs = W.shape[0]
        A, B, k = self.lead, self.last, self.cell_count
        na, nb = A.shape[1], B.shape[1]
        if shift is not None:
            shift = shift.reshape(legs, -1)
            A, B = A + shift[:, None, :na], B + shift[:, None, na:na + nb]
        At = A.swapaxes(-1, -2)
        n = na + nb + k
        out = np.empty((legs, n, n))
        sa, sb, sc = slice(0, na), slice(na, na + nb), slice(na + nb, n)
        scaled = A * np.sqrt(W.sum(axis=2))[:, :, None]
        out[:, sa, sa] = np.matmul(scaled.transpose(0, 2, 1), scaled)
        scaled = B * np.sqrt(W.sum(axis=1))[:, :, None]
        out[:, sb, sb] = np.matmul(scaled.transpose(0, 2, 1), scaled)
        out[:, sa, sb] = np.matmul(At, np.matmul(W, B))
        out[:, sb, sa] = out[:, sa, sb].transpose(0, 2, 1)
        # the cell columns against A and B, per-cell sums of the slots' rows,
        # and each pair of slots j <= l: one bincount per leg fills its cell
        # rows, in the same order alone or in a stack
        order, keys = self._cell_keys
        weighted = self.values * W[:, None]   # (B, K, M', N_T)
        lead = A[:, None] if A.ndim == 3 else A
        last = B[:, None] if B.ndim == 3 else B
        K, p = self.cells.shape[0], na + nb
        pairs = (weighted[:, :, None] * self.values).sum(axis=4).reshape(legs, K * K, W.shape[1])
        sums = np.concatenate([
            (weighted.sum(axis=3)[..., None] * lead).reshape(legs, -1),
            np.matmul(weighted, last).reshape(legs, -1),
            pairs.take(order, axis=1).reshape(legs, -1)], axis=1)
        out[:, sc, :] = np.array([np.bincount(keys, leg, minlength=k * n)
                                  for leg in sums]).reshape(legs, k, n)
        out[:, :p, sc] = out[:, sc, :p].transpose(0, 2, 1)
        return out.reshape(w.shape[:-1] + (n, n))

    def _spelled(self, block, first):
        """The program columns held by ``block`` (A or B), whose factor
        columns start at ``first``, and their program indices: a quote's net
        column spelled as its buy column ask - payoff and its sell column
        payoff - bid, into which the cash column folds."""
        at = slice(first, first + block.shape[1])
        order, sell = self.order[at], self.sell[at]
        plain, net = (order >= 0) & (sell < 0), sell >= 0
        payoff = -block[:, net]
        columns = np.concatenate(
            [block[:, plain], self.ask[at][net] - payoff, payoff - self.bid[at][net]], axis=1)
        return columns, np.concatenate([order[plain], order[net], sell[net]])

    def dense(self) -> np.ndarray:
        """R as a dense (M, n) array in program column order."""
        (lead, last), (M, n) = self.grid_shape, self.shape
        na, nb = self.lead.shape[1], self.last.shape[1]
        out = np.zeros((lead, last, n))
        columns, at = self._spelled(self.lead, 0)
        out[:, :, at] = columns[:, None, :]
        columns, at = self._spelled(self.last, na)
        out[:, :, at] = columns[None, :, :]
        at = (np.arange(lead)[:, None], np.arange(last)[None, :])
        for cells, values in zip(self.cells, self.values):
            out[at + (self.order[na + nb:][cells][:, None],)] += values
        return out.reshape(M, n)

    @functools.cached_property
    def levelled(self) -> RowFactors:
        """These rows with one more program column, -1 on every row; it joins
        A.  Built once, so the epigraphs of one space share their factors and
        can be solved as one stack."""
        na, n = self.lead.shape[1], self.shape[1]
        return RowFactors(
            np.hstack([self.lead, -np.ones((self.lead.shape[0], 1))]), self.last,
            self.cells, self.values, self.cell_count,
            np.insert(self.order, na, n), np.insert(self.sell, na, -1),
            np.insert(self.ask, na, 0.0), np.insert(self.bid, na, 0.0),
        )


@dataclass(frozen=True, eq=False)
class AssembledProgram:
    """Discretized convex program.

    Loss-argument rows are ``offsets + R @ y`` with R the row ``factors``;
    the objective is either the exponential sum over those rows ("exp_sum")
    or ``cost @ y`` ("linear").  ``point_upper`` (if set) bounds every row
    from above, which expresses pointwise payout-domination constraints.  The
    offsets already subtract ``budget``, and the cash left after buying the
    positions ``y`` is ``budget - cost @ y``.  ``kappa`` is None on a bare
    strategy space, which no exponential solve accepts.
    """

    objective: str  # "exp_sum" | "linear"
    layout: DecisionLayout
    factors: RowFactors
    offsets: np.ndarray       # (M,)
    masses: np.ndarray        # (M,)
    kappa: float | None
    cost: np.ndarray          # (n,) acquisition-cost row; the LP objective
    budget: float
    point_upper: np.ndarray | None
    lower: np.ndarray
    upper: np.ndarray
    start: np.ndarray
    grid: QuadratureGrid

    @property
    def rows(self) -> np.ndarray:
        """The dense loss rows R (M, n), built on request."""
        return self.factors.dense()

    @property
    def variable_count(self) -> int:
        return self.factors.shape[1]

    def loss_arguments(self, y: np.ndarray) -> np.ndarray:
        return self.offsets + self.factors.product(y)

    def portfolio_payout(self, y: np.ndarray) -> np.ndarray:
        """Terminal wealth per grid point, cash included (claim liability excluded)."""
        return self.budget - self.factors.product(y)

    def leg(self, claim_terms, budget: float, kappa: float | None = None) -> AssembledProgram:
        """This strategy space against ``claim_terms`` in full at ``budget``,
        with the risk scale ``kappa`` or its own."""
        return replace(
            self,
            offsets=claim_liability(claim_terms, self.grid) - budget,
            budget=float(budget),
            kappa=self.kappa if kappa is None else kappa,
        )

    def epigraph(self) -> AssembledProgram:
        """The linear program of the least uniform level: minimize t over
        (y, t) subject to a_i(y) <= t on this program's loss rows, started at
        (start, t0).  With g_i = a_i(start), t0 = max_i g_i + margin and
        margin = max(1, max_i |g_i|), so every row starts with a slack
        t0 - g_i between margin and 3 margin: the starting duals mu/slack of
        the rows lie within a factor three of one another.  The level is the
        last column; the layout names only y."""
        if self.point_upper is not None:
            raise ValueError("an epigraph lifts a program without pointwise rows")
        gap = self.loss_arguments(self.start)
        margin = max(1.0, float(np.abs(gap).max()))
        return replace(
            self,
            objective="linear",
            factors=self.factors.levelled,
            cost=np.append(np.zeros(self.variable_count), 1.0),
            point_upper=np.zeros_like(gap),
            lower=np.append(self.lower, -np.inf),
            upper=np.append(self.upper, np.inf),
            start=np.append(self.start, float(gap.max()) + margin),
        )


def _strikes_by_period(quotes, periods: int) -> list[list[float]]:
    out: list[list[float]] = [[] for _ in range(periods)]
    for q in quotes:
        if q.maturity <= periods:
            out[q.maturity - 1].append(q.strike)
    return [sorted(set(s)) for s in out]


def claim_liability(claim_terms, grid: QuadratureGrid) -> np.ndarray:
    """USD owed per grid point on the (claim, units) terms; sold units count positive."""
    offsets = np.zeros(grid.size)
    for claim, units in claim_terms or ():
        offsets = offsets + units * claim.contract_size * claim_payout_grid(claim, grid.points)
    return offsets


def _grid_levels(grid: QuadratureGrid) -> list[np.ndarray]:
    """The period levels of ``grid`` on its factor axes: each leading
    period's level per leading point (M', 1), C-ordered over their nodes, and
    the last period's levels (1, N_T)."""
    *leading, last = grid.node_sets
    return [x.reshape(-1, 1) for x in np.meshgrid(*leading, indexing="ij")] + [last[None, :]]


def strategy_factors(quotes, levels, spot: float, delta_pct: float | None = None,
                     masses=None, dynamic: bool = True):
    """Names, row factors and dropped names of the strategy variables, in
    layout order, on the period levels ``levels``: T arrays that broadcast to
    (M', N_T), the leading points along the first axis and the last period's
    levels along the second (``_grid_levels``; simulated paths are (M, 1)
    each, which puts every column in A).

    Each trading period s = 0..T-1 holds one index position per trading cell
    of the strikes quoted for maturity s (one cell at s = 0, where the level
    is the spot).  Without ``delta_pct`` the index trades without cost: the
    position z_s is one free variable per cell.  With it, index trades at
    t = 0..T-1 cost ``delta_pct`` percent and the horizon liquidation is
    costless: the position changes by nonnegative purchase and sale legs per
    cell.  Without ``dynamic`` there are no index positions at all.

    The kernel places only the columns a space keeps.  With the grid's
    ``masses`` (M,) it leaves out a quote side without quantity or whose
    column is zero at every point, and a dynamic column whose nonzero points
    carry less than 1e-12 of the mass: such a variable is unidentifiable from
    the objective and would drift.  A quote with one side is that side's
    column, ask - payoff or payoff - bid; the cash column exists beside a
    quote with both sides.  A row in a dropped cell keeps a zero at cell
    column 0.  Without ``masses`` (simulated paths) every column stays.
    """
    quotes = list(quotes)
    T, J = len(levels), len(quotes)
    if delta_pct is not None and delta_pct < 0:
        raise ValueError("transaction cost percentage must be nonnegative")
    lead, last = np.broadcast_shapes(*(np.shape(x) for x in levels))
    basis_strikes = _strikes_by_period(quotes, T)
    names = [f"buy:{q.id}" for q in quotes] + [f"sell:{q.id}" for q in quotes]
    ask = np.array([q.ask_price for q in quotes])
    bid = np.array([q.bid_price for q in quotes])
    payoffs = [option_payoff(q.kind, q.strike, levels[q.maturity - 1]) for q in quotes]
    sides = np.ones((2, J), dtype=bool)  # the buy and sell side of each quote
    if masses is not None:
        W = np.reshape(masses, (lead, last))
        sides &= np.array([[q.ask_qty > 0 for q in quotes], [q.bid_qty > 0 for q in quotes]],
                          dtype=bool)
        maturity = np.array([q.maturity for q in quotes])
        for m in set(maturity.tolist()):
            at = np.flatnonzero(maturity == m)
            payoff = np.array([payoffs[j].ravel() for j in at])
            sides[:, at] &= (payoff != np.stack([ask[at], bid[at]])[:, :, None]).any(axis=2)
    keep = sides.ravel().tolist()

    # every column lands in A (constant along the last period) or in B
    # (constant along the leading ones), except the cell columns of a
    # trading period whose legs vary along both: those are one slot per leg
    lead_at, lead_columns, last_at, last_columns = [], [], [], []
    slot_at, slot_cells, slot_values = [], [], []

    def place(j, column):
        # column is (M', 1), a column of A, or (1, N_T), one of B
        if column.shape[1] == 1:
            lead_at.append(j)
            lead_columns.append(column.ravel())
        else:
            last_at.append(j)
            last_columns.append(column.ravel())

    # a quote with both sides is its net column, the negated payoff, at its
    # buy variable, beside one cash column of ones, at -1, for all of them
    for j, (q, payoff, buy, sell) in enumerate(zip(quotes, payoffs, *sides.tolist())):
        if buy and sell:
            place(j, -payoff)
        elif buy:
            place(j, q.ask_price - payoff)
        elif sell:
            place(J + j, payoff - q.bid_price)
    both = sides.all(axis=0)
    if both.any():
        place(-1, np.ones((lead, 1)))
    for s in range(T if dynamic else 0):
        strikes = basis_strikes[s - 1] if s else ()
        level = levels[s - 1] if s else spot
        cells = trading_cells(strikes)
        idx = cell_index(strikes, level)
        j = len(names)  # this period's first variable
        if delta_pct is None:
            # the row carries -z_s(X_s) (X_(s+1) - X_s)
            legs = [-(levels[s] - level)]
            names += [f"z{s}[{lo:g},{hi:g})" for lo, hi in cells] if s else ["z0"]
        else:
            # the row carries the cost of the purchase and the sale, less
            # their costless liquidation at X_T
            d = delta_pct / 100.0
            legs = [(1.0 + d) * level - levels[-1], -(1.0 - d) * level + levels[-1]]
            names += [f"dz{side}{s}[{lo:g},{hi:g})"
                      for lo, hi in cells for side in ("buy", "sell")]
        # live[n, leg]: the column of cell n's leg stays; one bincount per leg
        # sums the mass of its nonzero points per cell
        live = np.ones((len(cells), len(legs)), dtype=bool)
        if masses is not None:
            cell_of = np.broadcast_to(idx, W.shape).ravel()
            live = np.array([np.bincount(cell_of, ((v != 0) * W).ravel(), minlength=len(cells))
                             for v in legs]).T >= 1e-12
        keep += live.ravel().tolist()
        shape = np.broadcast_shapes(idx.shape, *(np.shape(v) for v in legs))
        if shape[0] == 1 or shape[1] == 1:
            for n, leg in zip(*np.nonzero(live)):
                place(j + n * len(legs) + leg, np.where(idx == n, legs[leg], 0.0))
            continue
        # the slot of each leg with a live cell: a row's cell column, numbered
        # among the kept ones, or 0 with a zero value where its cell went
        rank = len(slot_at) + np.cumsum(live.ravel()).reshape(live.shape) - 1
        idx = idx.ravel()
        for leg, v in enumerate(legs):
            if live[:, leg].any():
                in_cell = live[idx, leg]
                slot_cells.append(np.where(in_cell, rank[idx, leg], 0))
                slot_values.append(np.where(in_cell[:, None], v, 0.0))
        slot_at += (j + np.flatnonzero(live)).tolist()
    keep = np.array(keep, dtype=bool)
    renumber = np.cumsum(keep) - 1
    at = np.array(lead_at + last_at + slot_at, dtype=np.intp)
    # the net columns: a quote with both sides holds its sell variable and prices there
    net = np.flatnonzero((at >= 0) & (at < J))
    net = net[both[at[net]]]
    sell, prices = np.full(at.shape, -1, dtype=np.intp), np.zeros((2,) + at.shape)
    sell[net] = renumber[at[net] + J]
    prices[:, net] = ask[at[net]], bid[at[net]]

    def block(columns, size):
        # BLAS rounds a product by its operand's memory layout, so the layout
        # is part of every output's bits: grid blocks are column-major, path
        # blocks row-major
        if not columns:
            return np.zeros((size, 0))
        return np.asarray(np.array(columns).T, order="C" if masses is None else "F")

    factors = RowFactors(
        lead=block(lead_columns, lead),
        last=block(last_columns, last),
        cells=np.array(slot_cells, dtype=np.intp).reshape(-1, lead),
        values=np.array(slot_values, dtype=float).reshape(-1, lead, last),
        cell_count=len(slot_at),
        order=np.where(at >= 0, renumber[at], -1),
        sell=sell,
        ask=prices[0],
        bid=prices[1],
    )
    names = np.array(names, dtype=object)
    return tuple(names[keep]), factors, tuple(names[~keep])


def _assemble(quotes, grid, lot_size, delta_pct, dynamic=True):
    """The strategy space of ``quotes`` on ``grid``: the frictionless one
    without ``delta_pct``, the transaction-cost one with it, and the
    static-only one without ``dynamic``.  Its columns are the ones
    ``strategy_factors`` keeps on the grid's masses; the others are
    ``layout.dropped``.  Every variable with a finite lower bound starts at
    lower + min(upper - lower, 1) / 2, halfway into its box or one half above
    its lower bound, and every free variable at 0."""
    quotes = list(quotes)
    names, factors, dropped = strategy_factors(
        quotes, _grid_levels(grid), grid.spot, delta_pct, grid.masses, dynamic)
    layout = DecisionLayout(quote_ids=tuple(q.id for q in quotes), names=names, dropped=dropped)
    options = layout.options
    index = len(names) - options  # the index positions
    sides = {}  # the upper bound and unit cost of each quote side
    for q in quotes:
        lo, hi = position_bounds(q, lot_size)
        sides[f"buy:{q.id}"], sides[f"sell:{q.id}"] = (hi, q.ask_price), (-lo, -q.bid_price)
    upper = np.array([sides[n][0] for n in names[:options]] + [np.inf] * index)
    lower = np.concatenate(
        [np.zeros(options), np.full(index, -np.inf if delta_pct is None else 0.0)])
    start = np.where(np.isfinite(lower), lower + 0.5 * np.minimum(upper - lower, 1.0), 0.0)
    return AssembledProgram(
        objective="exp_sum",
        layout=layout,
        factors=factors,
        offsets=np.zeros(grid.size),
        masses=grid.masses,
        kappa=None,
        cost=np.array([sides[n][1] for n in names[:options]] + [0.0] * index),
        budget=0.0,
        point_upper=None,
        lower=lower,
        upper=upper,
        start=start,
        grid=grid,
    )


def assemble_frictionless(
    quotes, grid: QuadratureGrid, lot_size: float = 100.0, dynamic: bool = True
) -> AssembledProgram:
    """Strategy space of the quotes with a perfectly liquid index, on
    ``grid``; without ``dynamic`` the static-only space, the quotes alone,
    which no index cost changes."""
    return _assemble(quotes, grid, lot_size, None, dynamic)


def assemble_transaction_cost(
    quotes, grid: QuadratureGrid, delta_pct: float, lot_size: float = 100.0
) -> AssembledProgram:
    """Strategy space with a proportional cost of ``delta_pct`` percent on index
    trades at t = 0..T-1; the horizon liquidation is costless."""
    return _assemble(quotes, grid, lot_size, float(delta_pct))
