"""Detectability analysis and design for networked control systems.

The package answers three questions about a distributed control network
under integrity attack. Can a given set of compromised agents and
sensors act without ever disturbing the detector residue? Is a topology
robust against every attack of bounded size? And what is the cheapest
topology, or sensor count, that achieves such robustness? The analysis
is structural: verdicts hold for almost every choice of edge weights,
and the simulation layer produces concrete weight matrices, stealthy
input sequences, and detector traces that witness them.

The graph layer (topology, separators, design) needs only the standard
library. The numeric layer, ``simulation``, needs numpy and is loaded
the first time one of its names is looked up here, so graph-only
programs never import it.
"""

from .design import (
    SynthesisResult,
    SynthesisSpec,
    min_links_value,
    optimal_sensor_count,
    synthesize,
    synthesize_platoon,
)
from .separators import (
    Counterexample,
    InfeasibilityError,
    LinkingResult,
    RobustnessReport,
    SeparatorResult,
    certify_robustness,
    is_structurally_left_invertible,
    max_disjoint_paths,
    max_linking,
)
from .topology import (
    AttackScenario,
    DcsTopology,
    Digraph,
    StructuredSystem,
    TopologyFormatError,
    build_separator_graph,
    format_topology,
    load_topology,
    parse_topology,
    save_topology,
    topology_graph,
    topology_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "AttackScenario",
    "AttackTrace",
    "Counterexample",
    "DcsTopology",
    "Digraph",
    "FilterConvergenceError",
    "InfeasibilityError",
    "LinkingResult",
    "NullspaceAmbiguityError",
    "Realization",
    "RobustnessReport",
    "SeparatorResult",
    "SimulationResult",
    "StructuredSystem",
    "SynthesisResult",
    "SynthesisSpec",
    "TopologyFormatError",
    "build_separator_graph",
    "certify_robustness",
    "false_alarm_rate",
    "find_perfect_attack",
    "format_topology",
    "is_structurally_left_invertible",
    "load_topology",
    "max_disjoint_paths",
    "max_linking",
    "min_links_value",
    "normal_rank",
    "optimal_sensor_count",
    "parse_topology",
    "realize",
    "save_topology",
    "simulate",
    "spectral_radius",
    "synthesize",
    "synthesize_platoon",
    "topology_graph",
    "topology_to_json",
    "write_trace",
]

# Names of the numeric layer: the exported names not bound above. They are
# looked up in ``simulation`` on every access rather than bound here, so a
# replaced function (a test's monkeypatch, a tracer's wrapper) is seen
# through the package too.
_NUMERIC = frozenset(__all__).difference(globals())


def __getattr__(name):
    if name in _NUMERIC:
        from . import simulation
        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _NUMERIC)
