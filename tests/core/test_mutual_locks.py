"""One mutual-lock extraction, three contracts for a one-sided lock.

Every simulated LID run reads its matching off the nodes' ``locked``
sets through :func:`repro.core.lid.mutual_locks`.  A lock the partner
never returned is planted into finished runs here; the callers must
still treat it their own way:

- a converged run raises :class:`ProtocolError`;
- a truncated run releases it and counts it in ``released_locks``;
- a resilient run counts it in ``asymmetric_locks`` only when both ends
  are live honest nodes.
"""

from types import SimpleNamespace

import pytest

from repro.core.lid import converged_matching, mutual_locks, run_lid
from repro.core.resilient_lid import run_resilient_lid
from repro.core.weights import satisfaction_weights
from repro.distsim.scheduler import Simulator
from repro.testing.strategies import random_ps
from repro.utils.validation import ProtocolError


def _instance():
    ps = random_ps(12, 0.4, 1, seed=4, ensure_edges=True)
    wt = satisfaction_weights(ps)
    matched = run_lid(wt, ps.quotas).matching
    a, b = next(e for e in wt.edges() if not matched.has_edge(*e))
    c, d = next(e for e in matched.edges() if e[1] not in (a, b))
    return wt, ps.quotas, matched, (a, b), (c, d)


@pytest.fixture
def plant(monkeypatch):
    """Make every simulator run end with ``locked`` edited by ``edit``."""

    def install(edit):
        run = Simulator.run

        def planted(self, *args, **kwargs):
            metrics = run(self, *args, **kwargs)
            edit(self.nodes)
            return metrics

        monkeypatch.setattr(Simulator, "run", planted)

    return install


class TestHelper:
    def test_mutual_and_one_sided(self):
        nodes = [SimpleNamespace(locked=s) for s in ({1}, {0}, {3}, set(), {9})]
        matching, one_sided = mutual_locks(nodes)
        assert matching.edge_set() == {(0, 1)}
        assert one_sided == [(2, 3), (4, 9)]  # an out-of-range id is one-sided too
        matching, one_sided = mutual_locks(nodes, among={0, 2, 3})
        assert matching.size() == 0
        assert one_sided == [(0, 1), (2, 3)]
        with pytest.raises(ProtocolError, match="asymmetric lock: 2 locked 3"):
            converged_matching(nodes)


class TestPlantedOneSidedLock:
    def test_converged_run_raises(self, plant):
        wt, quotas, _, (a, b), _ = _instance()
        plant(lambda nodes: nodes[a].locked.add(b))
        with pytest.raises(ProtocolError, match="asymmetric lock"):
            run_lid(wt, quotas)

    def test_truncated_run_releases_it(self, plant):
        wt, quotas, matched, (a, b), _ = _instance()
        plant(lambda nodes: nodes[a].locked.add(b))
        res = run_lid(wt, quotas, max_rounds=1 << 20)
        assert res.truncation.released_locks == 1
        assert res.matching.edge_set() == matched.edge_set()

    def test_resilient_run_counts_live_honest_pairs_only(self, plant):
        wt, quotas, matched, (a, b), (c, d) = _instance()

        def edit(nodes):
            nodes[a].locked.add(b)  # both ends live and honest: counted
            nodes[d].crashed = True  # c's lock on d now points at a dead peer

        plant(edit)
        res = run_resilient_lid(wt, quotas, monitor=False)
        assert d not in res.live
        assert (c, d) not in res.matching.edge_set()
        assert res.asymmetric_locks == 1
        assert res.truncation.released_locks == 1
