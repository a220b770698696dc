"""Chaos harness: apply fault plans to a running cluster and recover.

- :mod:`repro.chaos.engine` — the :class:`ChaosEngine` kernel process
  that fires a :class:`repro.sim.faults.FaultPlan` against a
  :class:`repro.system.cluster.TaxCluster`;
- :mod:`repro.chaos.rearguard` — the :class:`RearGuard` coordinator that
  watches a monitored agent's heartbeats and relaunches its last
  checkpoint when the agent goes silent;
- :mod:`repro.chaos.harness` — the one survey-scenario driver
  (:func:`~repro.chaos.harness.run_scenario`) and the frozen
  :class:`~repro.chaos.harness.Scenario` record it runs;
- :mod:`repro.chaos.scenario`, :mod:`repro.chaos.partition`,
  :mod:`repro.chaos.crashtest` — the ``chaos`` / ``partition`` /
  ``crashtest`` scenario tables behind the commands of the same names.
"""

from repro.chaos.engine import ChaosEngine
from repro.chaos.rearguard import RearGuard

__all__ = ["ChaosEngine", "RearGuard"]
