"""Constructing an undetectable attack, and watching a detector miss it.

When one sensor watches two compromised agents, the adversary has more
knobs than the defender has measurements. This script computes an input
sequence that drives the plant state while leaving the detector residue
untouched to machine precision, then contrasts it with a noisy "smash"
attack that trips the alarm immediately, and with a certified network on
which no stealthy sequence exists at all.

Run:  python3 demos/04_stealthy_attack.py
"""

import numpy as np

from stealthguard import (
    AttackScenario,
    DcsTopology,
    StructuredSystem,
    SynthesisSpec,
    find_perfect_attack,
    realize,
    simulate,
    synthesize,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def alarm_rate(flags):
    return float(np.mean(flags))


# One sensor on x1; both agents compromised. Two attack inputs against a
# single measurement can always cancel each other's trace.
top = DcsTopology(n=2, m=1, agent_edges={(1, 1), (2, 2), (2, 1)},
                  observer_assignment={1: 1})
scen = AttackScenario(compromised_agents={1, 2}, compromised_observers=set(), p_bound=2)
sys_weak = StructuredSystem(topology=top, scenario=scen)
real = realize(sys_weak, seed=7)

banner("A concrete realization of the outnumbered detector")
print("A =")
print(np.array_str(real.A, precision=4))
print("sensor reads x1, attack inputs drive x1 and x2")

banner("Searching the input space for a residue-free sequence")
trace = find_perfect_attack(real, horizon=12)
# the inputs stop after trace.horizon steps; n more show the state settle
dev = simulate(real, attack=trace, horizon=trace.horizon + real.n)
print(f"found inputs over {trace.horizon} steps, "
      f"peak state deviation {np.max(np.abs(dev.delta_states)):.3f}")
print(f"peak residue deviation: {np.max(np.abs(dev.delta_residues)):.2e}")

banner("Closed loop: nominal and attacked runs share every alarm")
res = simulate(real, attack=trace, seed=21, horizon=trace.horizon)
print(f"alarm sequences identical: {bool(np.array_equal(res.alarms, res.attacked_alarms))}")
print(f"largest |state deviation| reached: {np.max(np.abs(res.delta_states)):.3f}")
print(f"largest |residue deviation|:       {np.max(np.abs(res.delta_residues)):.2e}")

banner("The same adversary without finesse: white-noise injection")
rng = np.random.default_rng(4)
noisy_inputs = rng.standard_normal((60, 2))
res = simulate(real, attack=noisy_inputs, seed=21, horizon=60)
print(f"nominal alarm rate:  {alarm_rate(res.alarms):.3f}")
print(f"attacked alarm rate: {alarm_rate(res.attacked_alarms):.3f}")
print("the detector sees this one")

banner("On a certified design the search provably comes up empty")
built = synthesize(SynthesisSpec(n=4, m=2, p=2))
print(f"certified: {built.certified} ({built.link_count} links)")
none_found = True
from itertools import combinations

for size in (1, 2):
    for agents in combinations(range(1, 5), size):
        scen = AttackScenario(compromised_agents=set(agents), compromised_observers=set(),
                              p_bound=2)
        sys_strong = StructuredSystem(topology=built.topology, scenario=scen)
        r = realize(sys_strong, seed=3)
        if find_perfect_attack(r) is not None:
            none_found = False
print(f"stealthy sequence found for any <=2 compromised agents: {not none_found}")
