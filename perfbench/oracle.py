"""The in-process oracle every wire answer is checked against.

It is a :class:`~repro.serve.service.LocalizationService` built exactly
the way ``serve`` builds its backend (same sites, same ``--seed``), put
through the same lifecycle: warm (commission at day 0), one update per
site at the set-up day, and for ``refresh`` the same wire updates in the
same per-site order. Sites never share a pipeline (their specs differ),
so only the per-site order of updates matters, not how the wire
interleaved them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from workload import FLEET_SEED, SETUP_DAY

#: (cell, x, y, score) — compared bit for bit.
Answer = Tuple[int, float, float, float]


class Oracle:
    def __init__(self, sites: Sequence[str]) -> None:
        from repro.serve import LocalizationService
        from repro.sim.specs import get_scenario_spec

        self.sites = tuple(sites)
        self.service = LocalizationService.from_specs(
            {site: get_scenario_spec(site) for site in self.sites},
            seed=FLEET_SEED,
        )
        self._answers: Dict[Tuple[str, float, int], Answer] = {}

    def set_up(self) -> None:
        """Commission every site (day 0) and update it once at set-up."""
        self.service.warm()
        for site in self.sites:
            self.service.update(site, SETUP_DAY)

    def replay(self, updates: Iterable[Tuple[str, float]]) -> None:
        """Apply wire updates ``(site, day)`` in the order given."""
        for site, day in updates:
            self.service.update(site, float(day))
        self._answers.clear()

    def answer(self, site: str, day: float, index: int, frame: np.ndarray) -> Answer:
        """Expected answer for pool frame ``index`` of ``(site, day)``."""
        key = (site, float(day), int(index))
        answer = self._answers.get(key)
        if answer is None:
            result = self.service.query(site, frame, float(day))
            cell = int(result.cell)
            answer = (
                cell,
                float(result.position.x),
                float(result.position.y),
                float(result.scores[cell]),
            )
            self._answers[key] = answer
        return answer

    def trace(self, site: str, day: float, frames: np.ndarray):
        """Expected ``(cells, positions)`` of one ``query_trace``."""
        from repro.sim.trace import LiveTrace

        result = self.service.query_trace(site, LiveTrace(float(day), frames))
        return np.asarray(result.cells), np.asarray(result.positions)


def wire_answer(result) -> Answer:
    """A :class:`~repro.serve.frontend.RemoteMatchResult` as an Answer."""
    return (
        int(result.cell),
        float(result.position[0]),
        float(result.position[1]),
        float(result.score),
    )
