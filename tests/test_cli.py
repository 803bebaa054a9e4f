import json

import pytest

from stealthguard import DcsTopology, format_topology
from stealthguard.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_dense_design(tmp_path, capsys, n=4, m=2, p=2):
    path = tmp_path / "dense.txt"
    code, _, _ = run(capsys, "synthesize", "--n", str(n), "--m", str(m),
                     "--p", str(p), "--out", str(path))
    assert code == 0
    return path


def hidden_pair_file(tmp_path):
    t = DcsTopology(n=2, m=1, agent_edges={(1, 1), (2, 2), (2, 1)},
                    observer_assignment={1: 1})
    path = tmp_path / "pair.txt"
    path.write_text(format_topology(t, 1))
    return path


def test_analyze_robust_file_accepts_small_attacks(tmp_path, capsys):
    top = write_dense_design(tmp_path, capsys)
    for attack in ("x1", "x3,y2", "y1,y2"):
        code, out, _ = run(capsys, "analyze", "--topology", str(top), "--attack", attack)
        assert code == 0
        assert "left invertible: yes" in out


def test_analyze_empty_attack_warns(tmp_path, capsys):
    top = write_dense_design(tmp_path, capsys)
    code, out, _ = run(capsys, "analyze", "--topology", str(top))
    assert code == 0
    assert "warning" in out and "vacuous" in out


def test_analyze_overloaded_sensors_fail(tmp_path, capsys):
    top = write_dense_design(tmp_path, capsys)
    code, out, _ = run(capsys, "analyze", "--topology", str(top),
                       "--attack", "x1,x2,x3")
    assert code == 1
    assert "left invertible: no" in out


def test_analyze_json_reports_paths(tmp_path, capsys):
    top = write_dense_design(tmp_path, capsys)
    code, out, _ = run(capsys, "analyze", "--topology", str(top),
                       "--attack", "x1,x2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["left_invertible"] is True
    assert doc["linking_size"] == 2
    assert len(doc["linking_paths"]) == 2
    for path in doc["linking_paths"]:
        assert path[0].startswith("u") and path[-1].startswith("y")


def test_analyze_rejects_unknown_target(tmp_path, capsys):
    top = write_dense_design(tmp_path, capsys)
    code, _, err = run(capsys, "analyze", "--topology", str(top), "--attack", "q9")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "analyze", "--topology", str(top), "--attack", "x99")
    assert code == 2
    assert "out of range" in err


def test_certify_platoon_both_classes(tmp_path, capsys):
    plat = tmp_path / "plat.txt"
    code, _, _ = run(capsys, "platoon", "--n", "6", "--m", "2", "--p", "2",
                     "--class", "x", "--out", str(plat))
    assert code == 0
    code, out, _ = run(capsys, "certify", "--topology", str(plat), "--class", "x")
    assert code == 0
    assert "robust: yes" in out
    assert out.count(">=2") == 4  # one saturated separator per unobserved agent
    # the same file cannot take sensor attacks: tail agents are too exposed
    code, out, _ = run(capsys, "certify", "--topology", str(plat), "--class", "xy")
    assert code == 1
    assert "robust: no" in out
    assert "counterexample" in out


def test_certify_zero_budget(tmp_path, capsys):
    top = hidden_pair_file(tmp_path)
    code, out, _ = run(capsys, "certify", "--topology", str(top), "--p", "0")
    assert code == 0
    assert "robust: yes" in out


def test_certify_budget_defaults_to_file_header(tmp_path, capsys):
    top = write_dense_design(tmp_path, capsys)  # header carries p=2
    code, out, _ = run(capsys, "certify", "--topology", str(top))
    assert code == 0 and "budget p=2" in out
    code, out, _ = run(capsys, "certify", "--topology", str(top), "--p", "1")
    assert code == 0 and "budget p=1" in out


def test_certify_infeasible_exits_two(tmp_path, capsys):
    top = hidden_pair_file(tmp_path)
    code, _, err = run(capsys, "certify", "--topology", str(top), "--p", "2")
    assert code == 2
    assert "m >= p" in err


def test_synthesized_file_layout(tmp_path, capsys):
    path = tmp_path / "dense.txt"
    code, out, _ = run(capsys, "synthesize", "--n", "4", "--m", "2", "--p", "2",
                       "--out", str(path))
    assert code == 0
    assert "links: 10" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "4 2 2"
    assert sum(1 for l in lines if l.startswith("edge ")) == 10
    assert sum(1 for l in lines if l.startswith("sensor ")) == 2
    code, _, _ = run(capsys, "certify", "--topology", str(path))
    assert code == 0


def test_synthesize_without_out_prints_topology(capsys):
    code, out, _ = run(capsys, "synthesize", "--n", "3", "--m", "1", "--p", "1")
    assert code == 0
    assert out.splitlines()[0] == "3 1 1"
    assert "edge x1 x1" in out


def test_synthesize_infeasible(capsys):
    code, _, err = run(capsys, "synthesize", "--n", "4", "--m", "1", "--p", "2")
    assert code == 2
    assert "m=1 < p=2" in err


def test_platoon_infeasible(capsys):
    code, _, err = run(capsys, "platoon", "--n", "4", "--m", "4", "--p", "2")
    assert code == 2
    assert "lead agent" in err


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 0 0\nedge x1 x1\nedge x1 x1\nedge x2 x2\n")
    code, _, err = run(capsys, "certify", "--topology", str(bad))
    assert code == 2
    assert "line 3" in err


def test_sensors_reference_case(capsys):
    code, out, _ = run(capsys, "sensors", "--n", "5", "--p", "2",
                       "--k1", "1", "--k2", "2")
    assert code == 0
    assert "m=2" in out
    assert "total cost: 17" in out
    code, out, _ = run(capsys, "sensors", "--n", "5", "--p", "2",
                       "--k1", "2", "--k2", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 5 and doc["total_cost"] == 25.0


def test_sensors_without_agents_names_n(capsys):
    code, out, err = run(capsys, "sensors", "--n", "0", "--p", "0", "--k1", "1", "--k2", "1")
    assert code == 2
    assert out == ""
    assert err == "error: need at least one agent, got n=0\n"


def test_simulate_runs_and_writes_trace(tmp_path, capsys):
    top = write_dense_design(tmp_path, capsys)
    trace = tmp_path / "trace.tsv"
    code, out, _ = run(capsys, "simulate", "--topology", str(top),
                       "--attack", "x2", "--horizon", "80", "--out", str(trace))
    assert code == 0
    assert "nominal alarm rate" in out
    lines = trace.read_text().splitlines()
    assert len(lines) == 81
    assert "dx1" in lines[0].split("\t")


def test_simulate_is_deterministic(tmp_path, capsys):
    top = write_dense_design(tmp_path, capsys)
    out_a = tmp_path / "a.tsv"
    out_b = tmp_path / "b.tsv"
    code, text_a, _ = run(capsys, "simulate", "--topology", str(top),
                          "--attack", "x1", "--horizon", "60",
                          "--json", "--out", str(out_a))
    assert code == 0
    code, text_b, _ = run(capsys, "simulate", "--topology", str(top),
                          "--attack", "x1", "--horizon", "60",
                          "--json", "--out", str(out_b))
    assert code == 0
    doc_a = json.loads(text_a)
    doc_b = json.loads(text_b)
    assert doc_a.pop("out") == str(out_a) and doc_b.pop("out") == str(out_b)
    assert doc_a == doc_b
    assert out_a.read_bytes() == out_b.read_bytes()


def test_seed_changes_output(tmp_path, capsys):
    top = write_dense_design(tmp_path, capsys)
    _, base, _ = run(capsys, "simulate", "--topology", str(top),
                     "--horizon", "60", "--json")
    _, other, _ = run(capsys, "simulate", "--topology", str(top),
                      "--horizon", "60", "--seed", "7", "--json")
    assert base != other


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    top = write_dense_design(tmp_path, capsys)
    _, base, _ = run(capsys, "simulate", "--topology", str(top),
                     "--horizon", "60", "--json")
    monkeypatch.setenv("STEALTHGUARD_SEED", "7")
    _, via_env, _ = run(capsys, "simulate", "--topology", str(top),
                        "--horizon", "60", "--json")
    _, via_flag, _ = run(capsys, "simulate", "--topology", str(top),
                         "--horizon", "60", "--seed", "7", "--json")
    assert via_env == via_flag
    assert via_env != base
    monkeypatch.setenv("STEALTHGUARD_SEED", "not-a-number")
    code, _, err = run(capsys, "simulate", "--topology", str(top), "--horizon", "10")
    assert code == 2
    assert "STEALTHGUARD_SEED" in err


@pytest.mark.parametrize("command", ["simulate", "attack"])
def test_negative_seed_message_names_its_source(tmp_path, capsys, monkeypatch, command):
    argv = [command, "--topology", str(hidden_pair_file(tmp_path)), "--attack", "x1,x2"]
    code, out, err = run(capsys, *argv, "--seed", "-5")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be a nonnegative integer, got -5\n"
    monkeypatch.setenv("STEALTHGUARD_SEED", "-5")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: STEALTHGUARD_SEED must be a nonnegative integer, got -5\n"


def test_attack_finds_stealthy_inputs(tmp_path, capsys):
    top = hidden_pair_file(tmp_path)
    trace = tmp_path / "attack.tsv"
    code, out, _ = run(capsys, "attack", "--topology", str(top),
                       "--attack", "x1,x2", "--out", str(trace))
    assert code == 0
    assert "stealthy input found" in out
    assert "alarm sequences identical: yes" in out
    assert trace.exists()
    header = trace.read_text().splitlines()[0].split("\t")
    assert "dz1" in header


def test_attack_reports_absence_on_robust_design(tmp_path, capsys):
    top = write_dense_design(tmp_path, capsys)
    code, out, _ = run(capsys, "attack", "--topology", str(top), "--attack", "x4")
    assert code == 1
    assert "no stealthy input" in out
    code, doc_out, _ = run(capsys, "attack", "--topology", str(top),
                           "--attack", "x4", "--json")
    assert code == 1
    assert json.loads(doc_out)["found"] is False


def test_attack_finds_nothing_on_a_certified_platoon(tmp_path, capsys):
    top = tmp_path / "platoon.txt"
    code, _, _ = run(capsys, "platoon", "--n", "30", "--m", "2", "--p", "2",
                     "--out", str(top))
    assert code == 0
    trace = tmp_path / "attack.tsv"
    code, out, err = run(capsys, "attack", "--topology", str(top), "--attack", "x1,x2",
                         "--seed", "0", "--out", str(trace))
    assert code == 1
    assert "no stealthy input" in out
    assert err == ""
    assert not trace.exists()


def test_attack_requires_targets(tmp_path, capsys):
    top = hidden_pair_file(tmp_path)
    code, _, err = run(capsys, "attack", "--topology", str(top), "--attack", "")
    assert code == 2
    assert "at least one target" in err


def test_attack_horizon_validation(tmp_path, capsys):
    top = hidden_pair_file(tmp_path)
    code, _, err = run(capsys, "attack", "--topology", str(top),
                       "--attack", "x1,x2", "--horizon", "1")
    assert code == 2
    assert "error:" in err


def test_simulate_horizon_must_be_positive(tmp_path, capsys):
    top = hidden_pair_file(tmp_path)
    code, out, err = run(capsys, "simulate", "--topology", str(top),
                         "--horizon", "-5", "--attack", "x1")
    assert code == 2
    assert out == ""
    assert err == "error: horizon must be positive\n"


@pytest.mark.parametrize("attack", [(), ("--attack", "x1")])
def test_horizon_too_long_to_allocate_exits_two(tmp_path, capsys, attack):
    # 10**15 steps of two states exceed any address space, so numpy refuses
    # the first trajectory array at once and allocates nothing
    top = hidden_pair_file(tmp_path)
    code, out, err = run(capsys, "simulate", "--topology", str(top),
                         "--horizon", str(10**15), *attack)
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory: ") and "Traceback" not in err


def test_missing_topology_file(capsys):
    code, _, err = run(capsys, "certify", "--topology", "/nonexistent/top.txt")
    assert code == 2
    assert "error:" in err


def test_argparse_rejects_missing_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--n", "4"])
    assert exc.value.code == 2


def test_report_out_flag_mirrors_stdout(tmp_path, capsys):
    top = write_dense_design(tmp_path, capsys)
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "certify", "--topology", str(top),
                       "--json", "--out", str(report))
    assert code == 0
    assert report.read_text() == out



def certify_text(tmp_path, text):
    path = tmp_path / "top.json"
    path.write_text(text)
    return ["certify", "--topology", str(path)]


def certify_pair_json(tmp_path, **header):
    doc = {"n": 2, "m": 1, "p": 1, "edges": [["x1", "x1"], ["x2", "x2"], ["x1", "x2"]],
           "sensors": [["y1", "x2"]]}
    return certify_text(tmp_path, json.dumps(dict(doc, **header)))


def agentless_file(tmp_path):
    path = tmp_path / "agentless.txt"
    path.write_text("0 0 0\n")
    return path


MALFORMED = {
    "null n": lambda d: certify_pair_json(d, n=None),
    "null p": lambda d: certify_pair_json(d, p=None),
    "fractional header": lambda d: certify_pair_json(d, n=2.7, p=1.9),
    "string n": lambda d: certify_pair_json(d, n="2"),
    "deeply nested JSON": lambda d: certify_text(
        d, '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"),
    "negative eta": lambda d: ["simulate", "--topology", str(hidden_pair_file(d)),
                               "--eta", "-1"],
    "NaN eta": lambda d: ["simulate", "--topology", str(hidden_pair_file(d)),
                          "--eta", "nan"],
    "negative seed": lambda d: ["simulate", "--topology", str(hidden_pair_file(d)),
                                "--seed", "-5"],
    "negative seed variable": lambda d: ["simulate", "--topology", str(hidden_pair_file(d))],
    "NaN sensor cost": lambda d: ["sensors", "--n", "5", "--p", "2",
                                  "--k1", "1", "--k2", "nan"],
    "infinite link cost": lambda d: ["sensors", "--n", "5", "--p", "2",
                                     "--k1", "inf", "--k2", "1"],
    "infinite sensor cost": lambda d: ["sensors", "--n", "5", "--p", "2",
                                       "--k1", "1", "--k2", "inf"],
    "observer assigned twice": lambda d: certify_pair_json(
        d, sensors=[["y1", "x1"], ["y1", "x2"]]),
    "agent id with a trailing newline": lambda d: certify_pair_json(
        d, edges=[["x1\n", "x1"], ["x2", "x2"], ["x1", "x2"]]),
    "observer id with a trailing newline": lambda d: certify_pair_json(
        d, sensors=[["y1\n", "x2"]]),
    "object-shaped edge": lambda d: certify_pair_json(
        d, edges=[["x1", "x1"], ["x2", "x2"], {"x1": 0, "x2": 0}]),
    "object-shaped sensor": lambda d: certify_pair_json(
        d, sensors=[{"y1": 0, "x2": 0}]),
    "simulate without agents": lambda d: ["simulate", "--topology", str(agentless_file(d))],
    "attack without agents": lambda d: ["attack", "--topology", str(agentless_file(d)),
                                        "--attack", ","],
}


# the environment a MALFORMED case runs in, where it is not the caller's
MALFORMED_ENV = {"negative seed variable": {"STEALTHGUARD_SEED": "-5"}}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two_with_a_message(tmp_path, capsys, monkeypatch, case):
    for name, value in MALFORMED_ENV.get(case, {}).items():
        monkeypatch.setenv(name, value)
    code, _, err = run(capsys, *MALFORMED[case](tmp_path))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_a_json_array_topology_gets_the_json_message(tmp_path, capsys):
    # a text header never starts with "[", so the JSON reader answers
    code, out, err = run(capsys, *certify_text(tmp_path, "[1, 2]"))
    assert code == 2
    assert out == ""
    assert err == "error: JSON topology must be an object\n"


@pytest.mark.parametrize("command, failing, error", [
    ("simulate", "realize", "FilterConvergenceError"),
    ("attack", "find_perfect_attack", "NullspaceAmbiguityError"),
])
def test_numeric_errors_exit_two_with_a_message(tmp_path, capsys, monkeypatch,
                                                command, failing, error):
    import stealthguard.simulation as simulation
    error_type = getattr(simulation, error)

    def fail(*args, **kwargs):
        raise error_type("injected failure")

    monkeypatch.setattr(simulation, failing, fail)
    code, out, err = run(capsys, command, "--topology", str(hidden_pair_file(tmp_path)),
                         "--attack", "x1,x2")
    assert code == 2
    assert out == ""
    assert err == "error: injected failure\n"


@pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x85", "\u2028"])
def test_a_comment_holding_a_line_separator_is_accepted(tmp_path, capsys, sep):
    # str.splitlines would end the comment there and read "follower" as a record
    path = tmp_path / "top.txt"
    path.write_text(f"2 1 1\n# lead{sep}follower\nedge x1 x1\nedge x2 x2\nedge x1 x2\n"
                    "sensor y1 x2\n", encoding="utf-8")
    code, out, err = run(capsys, "certify", "--topology", str(path))
    assert (code, err) == (0, "")
    assert "robust" in out
