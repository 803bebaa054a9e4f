"""Command-line front end.

Subcommands: analyze, certify, synthesize, platoon, sensors, simulate,
attack. Exit codes: 0 for success (certified / left invertible / attack
found where one was requested), 1 for a negative analysis verdict, 2 for
infeasible problems or invalid input. Reports are deterministic for a
fixed seed; the default seed is overridden by the STEALTHGUARD_SEED
environment variable.

Only simulate and attack use the numeric layer; they import it, and with
it numpy, when they run, so the graph-only commands start on the
standard library alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .design import SynthesisSpec, min_links_value, optimal_sensor_count, \
    synthesize, synthesize_platoon
from .separators import certify_robustness, max_linking
from .topology import AttackScenario, StructuredSystem, _alarm_threshold, _check_horizon, \
    format_topology, load_topology, parse_agent_id, parse_observer_id, save_topology

DEFAULT_SEED = 1729


def _seed(flag: int | None) -> int:
    """--seed, else STEALTHGUARD_SEED, else DEFAULT_SEED. numpy takes only
    a nonnegative seed, so a negative one is refused here, before numpy
    loads, with a message that names where it came from."""
    if flag is not None:
        source, seed = "--seed", flag
    else:
        env = os.environ.get("STEALTHGUARD_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            source, seed = "STEALTHGUARD_SEED", int(env)
        except ValueError:
            raise ValueError(f"STEALTHGUARD_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a nonnegative integer, got {seed}")
    return seed


def _parse_attack_ids(spec: str | None) -> AttackScenario:
    agents, observers = set(), set()
    if spec:
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                agents.add(parse_agent_id(token))
                continue
            except ValueError:
                pass
            try:
                observers.add(parse_observer_id(token))
            except ValueError:
                raise ValueError(f"bad attack target {token!r}; use ids like x3 or y1") from None
    size = len(agents) + len(observers)
    return AttackScenario(compromised_agents=agents, compromised_observers=observers,
                          p_bound=size)


def _load_system(args) -> StructuredSystem:
    """The --topology file with the --attack targets; StructuredSystem
    rejects targets outside the topology."""
    topology, _file_p = load_topology(args.topology)
    return StructuredSystem(topology=topology, scenario=_parse_attack_ids(args.attack))


def _realize(args, system: StructuredSystem):
    from .simulation import realize
    return realize(system, seed=args.seed,
                   spectral_radius_target=args.spectral_radius, eta=args.eta)


def _emit(as_json: bool, doc: dict, lines: list, out: str | None = None,
          save=None) -> None:
    """Print the report as JSON or text.

    With ``out`` set, ``save(out)`` writes the command's own file (a
    topology or a trace) and the report names it; without ``save`` the
    report itself is mirrored to ``out``.
    """
    if out and save:
        save(out)
        doc["out"] = out
        lines.append(f"wrote {out}")
    if as_json:
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        payload = "\n".join(lines) + "\n"
    sys.stdout.write(payload)
    if out and not save:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)


def cmd_analyze(args) -> int:
    system = _load_system(args)
    scenario = system.scenario
    linking = max_linking(system)
    verdict = linking.size == scenario.num_inputs
    doc = {
        "left_invertible": verdict,
        "attack_inputs": scenario.num_inputs,
        "linking_size": linking.size,
        "linking_paths": [list(p) for p in linking.paths],
    }
    lines = [f"attack set: {', '.join(scenario.target_ids()) or '(empty)'}",
             f"linking size: {linking.size} of {scenario.num_inputs} attack inputs"]
    for path in linking.paths:
        lines.append("  path: " + " -> ".join(path))
    lines.append(f"left invertible: {'yes' if verdict else 'no'}")
    if scenario.num_inputs == 0:
        doc["warning"] = "empty attack set; vacuously left invertible"
        lines.append("warning: empty attack set; vacuously left invertible")
    _emit(args.json, doc, lines, args.out)
    return 0 if verdict else 1


def cmd_certify(args) -> int:
    topology, file_p = load_topology(args.topology)
    p = file_p if args.p is None else args.p
    report = certify_robustness(topology, p, observers_attackable=args.attack_class == "xy")
    doc = report.to_dict()
    lines = [f"attack class: {doc['attack_class']}  budget p={p}",
             f"robust: {'yes' if report.robust else 'no'}"]
    for agent, size in report.per_agent_min_separator.items():  # ascending
        label = f">={size}" if size >= p else f"{size}"
        lines.append(f"  min separator toward sensors from {agent}: {label}")
    if report.counterexample is not None:
        ce = report.counterexample
        lines.append(f"counterexample: deficient separator at {ce.agent}; "
                     f"undetectable attack on {{{', '.join(ce.attack.target_ids())}}}")
    _emit(args.json, doc, lines, args.out)
    return 0 if report.robust else 1


def _report_synthesis(args, result) -> int:
    """Without --out the topology itself goes to stdout, in text form."""
    if args.out:
        doc = {
            "n": result.topology.n, "m": result.topology.m, "p": args.p,
            "attack_class": args.attack_class,
            "link_count": result.link_count,
            "certified": result.certified,
        }
        lines = [f"links: {result.link_count} (self-loops included)",
                 f"certified robust: {'yes' if result.certified else 'no'}"]
        _emit(args.json, doc, lines, args.out,
              save=lambda path: save_topology(path, result.topology, args.p))
    else:
        sys.stdout.write(format_topology(result.topology, args.p))
    return 0 if result.certified else 1


def cmd_synthesize(args) -> int:
    spec = SynthesisSpec(n=args.n, m=args.m, p=args.p,
                         observers_attackable=args.attack_class == "xy")
    return _report_synthesis(args, synthesize(spec))


def cmd_platoon(args) -> int:
    result = synthesize_platoon(args.n, args.m, args.p,
                                observers_attackable=args.attack_class == "xy")
    return _report_synthesis(args, result)


def cmd_sensors(args) -> int:
    observers_attackable = args.attack_class == "xy"
    m_star, cost = optimal_sensor_count(args.n, args.p, args.k1, args.k2,
                                        observers_attackable=observers_attackable)
    links = min_links_value(args.n, m_star, args.p, observers_attackable)
    doc = {"n": args.n, "p": args.p, "k1": args.k1, "k2": args.k2,
           "attack_class": args.attack_class,
           "m": m_star, "links": links, "total_cost": cost}
    lines = [f"best sensor count: m={m_star}",
             f"links at that m: {links}",
             f"total cost: {cost:g}"]
    _emit(args.json, doc, lines, args.out)
    return 0


def _alarm_rate(flags) -> float:
    return float(flags.mean()) if len(flags) else 0.0


def _max_abs(values) -> float:
    return float(abs(values).max(initial=0.0))


def cmd_simulate(args) -> int:
    system = _load_system(args)
    _check_horizon(args.horizon)  # before numpy loads and inputs are drawn for it
    import numpy as np

    from .simulation import simulate, write_trace
    real = _realize(args, system)
    if real.num_inputs:
        input_rng = np.random.default_rng([args.seed, 1])
        inputs = input_rng.standard_normal((args.horizon, real.num_inputs))
    else:
        inputs = None
    result = simulate(real, attack=inputs, seed=args.seed, horizon=args.horizon)
    doc = {
        "horizon": args.horizon,
        "attack_inputs": real.num_inputs,
        "nominal_alarm_rate": _alarm_rate(result.alarms),
        "attacked_alarm_rate": _alarm_rate(result.attacked_alarms),
        "max_abs_delta_residue": _max_abs(result.delta_residues),
    }
    lines = [f"horizon: {args.horizon} steps",
             f"nominal alarm rate: {doc['nominal_alarm_rate']:.4f}",
             f"attacked alarm rate: {doc['attacked_alarm_rate']:.4f}",
             f"max |residue deviation|: {doc['max_abs_delta_residue']:.3e}"]
    _emit(args.json, doc, lines, args.out, save=lambda path: write_trace(path, result))
    return 0


def cmd_attack(args) -> int:
    system = _load_system(args)
    if system.num_attack_inputs == 0:
        raise ValueError("attack needs at least one target; pass --attack ids")
    import numpy as np

    from .simulation import find_perfect_attack, simulate, write_trace
    real = _realize(args, system)
    trace = find_perfect_attack(real, horizon=args.horizon)
    if trace is None:
        msg = "no stealthy input sequence exists at this realization"
        _emit(args.json, {"found": False, "reason": msg}, [msg])
        return 1
    result = simulate(real, attack=trace, seed=args.seed, horizon=trace.horizon)
    doc = {
        "found": True,
        "horizon": trace.horizon,
        "max_abs_delta_residue": _max_abs(result.delta_residues),
        "max_abs_delta_state": _max_abs(result.delta_states),
        "alarms_identical": bool(np.array_equal(result.alarms, result.attacked_alarms)),
    }
    lines = [f"stealthy input found over {trace.horizon} steps",
             f"max |residue deviation|: {doc['max_abs_delta_residue']:.3e}",
             f"max |state deviation|: {doc['max_abs_delta_state']:.3e}",
             f"alarm sequences identical: {'yes' if doc['alarms_identical'] else 'no'}"]
    _emit(args.json, doc, lines, args.out, save=lambda path: write_trace(path, result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stealthguard",
        description="Certify and design control networks that expose every "
                    "bounded integrity attack.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class(p, default="xy"):
        p.add_argument("--class", dest="attack_class", choices=("x", "xy"),
                       default=default,
                       help="attack surface: agents only (x) or agents and "
                            f"sensors (xy); default {default}")

    def add_common_numeric(p):
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (default STEALTHGUARD_SEED or 1729)")
        p.add_argument("--eta", type=float, default=None,
                       help="alarm threshold (default: chi-square 95th percentile)")
        p.add_argument("--spectral-radius", type=float, default=0.9,
                       help="spectral radius of the drawn state matrix")

    p = sub.add_parser("analyze", help="left invertibility of one attack set")
    p.add_argument("--topology", required=True)
    p.add_argument("--attack", default=None, help="comma-separated ids, e.g. x1,y2")
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="robustness against all attacks of size <= p")
    p.add_argument("--topology", required=True)
    p.add_argument("--p", type=int, default=None, help="attack budget (default: file header)")
    add_class(p)
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("synthesize", help="minimum-link robust topology")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    add_class(p)
    p.add_argument("--out", default=None, help="topology file to write")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("platoon", help="minimum-link chain (platoon) topology")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    add_class(p, default="x")
    p.add_argument("--out", default=None, help="topology file to write")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_platoon)

    p = sub.add_parser("sensors", help="trade sensor count against link count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k1", type=float, required=True, help="cost per link")
    p.add_argument("--k2", type=float, required=True, help="cost per sensor")
    add_class(p)
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sensors)

    p = sub.add_parser("simulate", help="closed-loop run with optional noisy attack")
    p.add_argument("--topology", required=True)
    p.add_argument("--attack", default=None,
                   help="targets for white-noise injection, e.g. x2,y1")
    p.add_argument("--horizon", type=int, default=500)
    add_common_numeric(p)
    p.add_argument("--out", default=None, help="trace file to write")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack", help="search for an undetectable input sequence")
    p.add_argument("--topology", required=True)
    p.add_argument("--attack", required=True,
                   help="targets carrying hostile inputs, e.g. x1,x2")
    p.add_argument("--horizon", type=int, default=None,
                   help="search horizon (default: twice the agent count)")
    add_common_numeric(p)
    p.add_argument("--out", default=None, help="trace file to write")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_attack)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed"):  # simulate and attack
            args.seed = _seed(args.seed)
            if args.eta is not None:  # refused before numpy loads
                _alarm_threshold(args.eta)
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # e.g. a --horizon too long to allocate
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"error: out of memory{detail}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
