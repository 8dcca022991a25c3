import re

import pytest
from hypothesis import given, settings, strategies as st

from sliceshare.model import ValidationError
from sliceshare.engines import SolverError
from sliceshare.scenario import (ScenarioParseError, parse_scenario_text,
                                 apply_sweep, builtin_names, load_builtin)
from sliceshare.cli import main
from sliceshare.sim import run_simulation
import sliceshare.cli as cli_mod

MINIMAL = """\
schema 1
resource r1
slice s1 share=0.5
slice s2 share=0.5
class c1 slice=s1 demand=r1:1 arrival_rate=0.3
class c2 slice=s2 demand=r1:1 arrival_rate=0.3
run engines=dps,maxmin-scs horizon=60 warmup=0 seeds=0..2
"""

ONE_RUN = MINIMAL.replace("engines=dps,maxmin-scs", "engines=dps").replace(
    "seeds=0..2", "seeds=3")

SWEPT = MINIMAL.replace(
    "run engines=dps,maxmin-scs horizon=60 warmup=0 seeds=0..2",
    "run engines=dps horizon=40 warmup=0 seeds=1,5\n"
    "sweep key=share:s1 values=0.3,0.5,0.7")


def test_parse_minimal():
    sf = parse_scenario_text(MINIMAL, label="mini")
    assert sf.instance.n_resources == 1
    assert sf.instance.n_classes == 2
    assert [e.key for e in sf.run.engines] == ["dps", "maxmin-scs"]
    assert sf.run.seeds == (0, 1, 2)
    assert sf.run.warmup == 0.0
    assert sf.sweep is None
    sc = sf.scenario(sf.run.engines[0], seed=1)
    assert sc.horizon == 60.0
    assert sc.label == "mini"


def test_parse_seed_list_and_sweep():
    sf = parse_scenario_text(SWEPT)
    assert sf.run.seeds == (1, 5)
    assert sf.sweep.kind == "share"
    assert sf.sweep.target == "s1"
    assert sf.sweep.values == (0.3, 0.5, 0.7)


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: t.replace("schema 1", "schema 2"), "line 1"),
    (lambda t: t.replace("resource r1", "resourc r1"), "unknown record"),
    (lambda t: t.replace("share=0.5", "share=0.5 color=red", 1), "unknown key"),
    (lambda t: t.replace("demand=r1:1 arrival_rate=0.3",
                         "demand=r1:1 demand=r1:2", 1), "duplicate key"),
    (lambda t: t.replace("slice=s1 ", "", 1), "missing key"),
    (lambda t: t.replace("demand=r1:1", "demand=r1", 1), "<resource>:<value>"),
    (lambda t: t.replace("engines=dps,maxmin-scs", "engines=foo"),
     "unknown engine 'foo' at run.engine"),
    (lambda t: t + "run engines=dps horizon=9\n", "duplicate run"),
    (lambda t: t.replace("horizon=60", "horizon=sixty"), "bad number"),
    (lambda t: t.replace("seeds=0..2", "seeds=2..0"), "empty seed range"),
    (lambda t: t + "sweep key=share:s9 values=0.5\n", "unknown slice"),
    (lambda t: t + "sweep key=share:s1 values=1.5\n", "sweep.values"),
    (lambda t: t + "sweep key=magic:s1 values=0.5\n", "sweep key"),
])
def test_parse_errors(mangle, needle):
    with pytest.raises(ScenarioParseError, match=re.escape(needle)):
        parse_scenario_text(mangle(MINIMAL))


def test_missing_run_and_empty():
    with pytest.raises(ScenarioParseError, match="missing run"):
        parse_scenario_text("schema 1\nresource r1\n")
    with pytest.raises(ScenarioParseError, match="empty scenario"):
        parse_scenario_text("\n# nothing\n")


def test_line_numbers_reported():
    bad = MINIMAL.replace("class c2", "klass c2")
    with pytest.raises(ScenarioParseError, match="line 6"):
        parse_scenario_text(bad)


def test_builtins_parse_and_fig7_topology():
    names = builtin_names()
    assert names == ("fig2_symmetric", "fig3_asymmetric", "fig4_md1",
                     "fig5_busy", "fig7_multiresource", "fig8_drf_dps",
                     "table1_static")
    for name in names:
        sf = load_builtin(name)
        assert sf.label == name

    sf = load_builtin("fig7_multiresource")
    inst = sf.instance
    assert inst.n_resources == 10
    assert inst.n_classes == 6
    d = dict(zip(inst.resource_ids,
                 inst.demand_matrix[inst.class_index["c1"]]))
    assert d["f1"] == pytest.approx(5 / 6)
    assert d["b1"] == pytest.approx(0.5)
    assert d["cloud"] == pytest.approx(0.217)
    assert sum(1 for v in d.values() if v > 0) == 3
    assert all(c.arrival_rate == 0.7 for c in inst.classes)
    assert all(c.mean_workload == 1.0 for c in inst.classes)

    # row-count contracts documented for the shipped files
    fig2 = load_builtin("fig2_symmetric")
    assert len(fig2.run.engines) * len(fig2.run.seeds) == 40
    assert fig2.sweep.values[0] == 0.01 and fig2.sweep.values[-1] == 0.99


def test_apply_sweep_share_complement():
    sf = parse_scenario_text(SWEPT)
    inst = apply_sweep(sf, 0.3)
    shares = {s.id: s.share for s in inst.slices}
    assert shares == pytest.approx({"s1": 0.3, "s2": 0.7})


def test_apply_sweep_arrival_rate_star():
    sf = load_builtin("fig5_busy")
    inst = apply_sweep(sf, 0.25)
    assert all(c.arrival_rate == 0.25 for c in inst.classes)


def write(tmp_path, text, name="scen.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cmd_run_rows_and_determinism(tmp_path, capsys):
    scen = write(tmp_path, MINIMAL)
    out = tmp_path / "a.csv"
    assert main(["run", scen, "-o", str(out)]) == 0
    assert "wrote 6 rows" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == ("scenario,engine,alpha,seed,sweep_value,"
                        "delay_s1,delay_s2,tput_s1,tput_s2,"
                        "mean_delay,mean_throughput,frac_idle,frac_one_busy,"
                        "frac_both_busy,mean_population,departures")
    assert len(lines) == 7
    # (engine, seed) ordering, engines in run-block order
    heads = [tuple(l.split(",")[1:4]) for l in lines[1:]]
    assert heads == [("dps", "", "0"), ("dps", "", "1"), ("dps", "", "2"),
                     ("maxmin-scs", "", "0"), ("maxmin-scs", "", "1"),
                     ("maxmin-scs", "", "2")]
    for l in lines[1:]:
        assert re.fullmatch(r"\d+", l.split(",")[-1])   # integer departures

    out2 = tmp_path / "b.csv"
    assert main(["run", scen, "-o", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_cmd_run_alpha_column(tmp_path):
    scen = write(tmp_path, MINIMAL.replace("engines=dps,maxmin-scs",
                                           "engines=scs(0.5)"))
    out = tmp_path / "a.csv"
    assert main(["run", scen, "-o", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[1] == "scs(0.5)"
    assert row[2] == "0.5"


def test_cmd_sweep_rows(tmp_path, capsys):
    scen = write(tmp_path, SWEPT)
    out = tmp_path / "s.csv"
    assert main(["sweep", scen, "-o", str(out)]) == 0
    assert "wrote 6 rows" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    svals = [l.split(",")[4] for l in lines[1:]]
    assert svals == ["0.3", "0.3", "0.5", "0.5", "0.7", "0.7"]
    seeds = [l.split(",")[3] for l in lines[1:]]
    assert seeds == ["1", "5"] * 3


def test_cmd_sweep_requires_sweep_record(tmp_path, capsys):
    scen = write(tmp_path, MINIMAL)
    assert main(["sweep", scen, "-o", str(tmp_path / "x.csv")]) == 1
    assert "no sweep record" in capsys.readouterr().err


def test_trace_output_format(tmp_path):
    scen = write(tmp_path, ONE_RUN)
    out, tr = tmp_path / "r.csv", tmp_path / "t.txt"
    assert main(["run", scen, "-o", str(out), "--trace", str(tr)]) == 0
    lines = tr.read_text().splitlines()
    assert len(lines) > 10
    pat = re.compile(r"^\d+\.\d{9},(arrival|departure),c[12],\d+;\d+,\d+$")
    t_prev = -1.0
    for l in lines:
        assert pat.fullmatch(l), l
        t = float(l.split(",")[0])
        assert t >= t_prev
        t_prev = t


def test_run_trace_simulates_once(tmp_path, monkeypatch):
    scen = write(tmp_path, ONE_RUN)
    plain, traced, tr = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "t.txt"
    assert main(["run", scen, "-o", str(plain)]) == 0
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return run_simulation(*args, **kwargs)
    monkeypatch.setattr(cli_mod, "run_simulation", counting)
    assert main(["run", scen, "-o", str(traced), "--trace", str(tr)]) == 0
    assert len(calls) == 1
    assert traced.read_bytes() == plain.read_bytes()
    assert len(tr.read_text().splitlines()) > 10


@pytest.mark.parametrize("argv,needle", [
    (["run", "{bad}", "-o", "{tmp}/x.csv"], "not UTF-8"),
    (["run", "{one}", "-o", "{tmp}/missing/x.csv"], "No such file"),
    (["sweep", "{swept}", "-o", "{tmp}/missing/x.csv"], "No such file"),
    (["run", "{one}", "-o", "{tmp}/x.csv", "--trace", "{tmp}/missing/t.txt"],
     "No such file"),
], ids=["non-utf8", "run-output", "sweep-output", "trace"])
def test_io_errors_exit_1(tmp_path, capsys, argv, needle):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# caf\xe9\n" + MINIMAL.encode())
    paths = dict(tmp=tmp_path, bad=bad, one=write(tmp_path, ONE_RUN),
                 swept=write(tmp_path, SWEPT, name="swept.txt"))
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert needle in err


def test_trace_needs_single_engine_and_seed(tmp_path, capsys):
    scen = write(tmp_path, MINIMAL)
    rc = main(["run", scen, "-o", str(tmp_path / "x.csv"),
               "--trace", str(tmp_path / "t.txt")])
    assert rc == 1
    assert "exactly one" in capsys.readouterr().err


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["run", "no_such_scenario", "-o", "x.csv"]) == 1
    assert "built-ins" in capsys.readouterr().err
    assert main(["verify", "nonsense"]) == 1
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_verify_command_passes(capsys):
    assert main(["verify", "factorization", "--instances", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "factorization" in out


def test_verify_failure_exits_3(monkeypatch, capsys):
    from sliceshare.verify import SuiteResult
    bad = SuiteResult("protection", 1)
    bad.failures.append("made-up violation")
    monkeypatch.setattr(cli_mod, "run_suite", lambda *a, **k: bad)
    assert main(["verify", "protection"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_solver_failure_exits_2(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise SolverError("no convergence")
    monkeypatch.setattr(cli_mod, "run_simulation", boom)
    scen = write(tmp_path, MINIMAL)
    assert main(["run", scen, "-o", str(tmp_path / "x.csv")]) == 2
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,needle", [
    ("horizon=60", "horizon=inf", "horizon must be finite"),
    ("horizon=60", "horizon=nan", "horizon must be finite"),
    ("seeds=0..2", "seeds=0..2 max_departures=abc", "bad integer for max_departures"),
    ("seeds=0..2", "seeds=0..2 max_departures=0", "max_departures must be >= 1"),
    ("engines=dps,maxmin-scs", "engines=scs(inf)", "needs a finite alpha > 0"),
    ("engines=dps,maxmin-scs", "engines=static-partition(inf)",
     "needs a finite alpha > 0"),
    ("seeds=0..2", "seeds=-3..-1", "seeds must be >= 0"),
    ("seeds=0..2", "seeds=4,-1", "seeds must be >= 0"),
    ("warmup=0", "warmup=2", "warmup must be in [0, 1)"),
    ("warmup=0", "warmup=nan", "warmup must be in [0, 1)"),
    ("seeds=0..2", "seeds=0..100000000000", "names more than 10000 seeds"),
])
def test_bad_run_record_exits_1_with_line(tmp_path, capsys, old, new, needle):
    scen = write(tmp_path, MINIMAL.replace(old, new))
    assert main(["run", scen, "-o", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "line 7:" in err
    assert needle in err


@pytest.mark.parametrize("old,new,line,needle", [
    ("resource r1", "resource r1 capacity=nan", 2, "capacity must be finite and > 0"),
    ("resource r1", "resource r1 capacity=-1", 2, "capacity must be finite and > 0"),
    ("slice s1 share=0.5", "slice s1 share=nan", 3, "share must be finite and > 0"),
    ("slice s1 share=0.5", "slice s1 share=0", 3, "share must be finite and > 0"),
    ("demand=r1:1", "demand=r1:nan", 5, "demand must be finite and >= 0"),
    ("demand=r1:1", "demand=r1:-1", 5, "demand must be finite and >= 0"),
    ("demand=r1:1", "demand=r1:0", 5, "demand must be > 0 on some resource"),
    ("arrival_rate=0.3", "arrival_rate=inf", 5, "arrival_rate must be finite and >= 0"),
    ("arrival_rate=0.3", "arrival_rate=-0.3", 5, "arrival_rate must be finite and >= 0"),
    ("arrival_rate=0.3", "arrival_rate=0.3 mean_workload=0", 5,
     "mean_workload must be finite and > 0"),
    ("arrival_rate=0.3", "arrival_rate=0.3 mean_workload=nan", 5,
     "mean_workload must be finite and > 0"),
    ("resource r1", "resource r1\nresource r1", 3,
     "duplicate resource id 'r1' (first on line 2)"),
    ("slice s2", "slice s/2", 4, "slice id 's/2' must be nonempty"),
    ("slice=s1", "slice=s9", 5, "unknown slice 's9'"),
    ("demand=r1:1", "demand=r9:1", 5, "unknown demand resource 'r9'"),
    ("resource r1\n", "", 6, "run needs at least one resource record"),
    ("resource r1", "resource r1 capacity=1e-320", 5, "demand must be finite and >= 0"),
    ("share=0.5\nslice s2 share=0.5", "share=1e308\nslice s2 share=1e308", 3,
     "share must be finite and > 0"),
])
def test_bad_instance_record_exits_1_with_line(tmp_path, capsys, old, new, line,
                                               needle):
    scen = write(tmp_path, MINIMAL.replace(old, new, 1))
    assert main(["run", scen, "-o", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert needle in err


# per key: values that parse, then values that do not
GOOD = {"capacity": ["2"], "share": ["0.3"], "slice": ["s1", "s2"],
        "demand": ["r1:0.5", "r1:1,r1:2"], "arrival_rate": ["0", "0.7"],
        "mean_workload": ["2"], "workload": ["det"], "engines": ["scs(1),drf"],
        "horizon": ["9"], "warmup": ["0.2"], "seeds": ["4", "1..3"],
        "max_departures": ["5"], "key": ["arrival_rate:*", "share:s2"],
        "values": ["0.2", "0.4,0.6"], "color": ["red"]}
BAD = ["", "nan", "inf", "-1", "0", "1e999", "abc", "r9:1", "r1:nan", "r1:0",
       "s9", "x=y", "2..0", "-1..1", "scs(inf)", "magic:s1", "share:s9", ",",
       "5e-324", "1e-320", "1e308"]
KEYS = {"resource": ["capacity"], "slice": ["share"],
        "class": ["slice", "demand", "arrival_rate", "mean_workload", "workload"],
        "run": ["engines", "horizon", "warmup", "seeds", "max_departures"],
        "sweep": ["key", "values"], "schema": []}
IDS = ["r1", "r2", "s1", "s2", "c1", "c2", "c3", "a/b", "=x", ""]


def field(key):
    """key=value, with a value that parses about half the time."""
    values = st.sampled_from(GOOD.get(key, BAD)) | st.sampled_from(BAD)
    return values.map(lambda v: f"{key}={v}")


@st.composite
def scenario_texts(draw):
    """SWEPT with a few record lines edited, dropped, copied or added."""
    lines = SWEPT.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(lines) - 1))     # keep 'schema 1'
        tok = lines[i].split()
        keyed = [j for j, t in enumerate(tok) if "=" in t]
        op = draw(st.sampled_from(["set", "add", "drop", "delete", "copy", "new"]))
        if op == "set" and keyed:
            j = draw(st.sampled_from(keyed))
            tok[j] = draw(field(tok[j].split("=", 1)[0]))
        elif op == "add" and tok:
            tok.append(draw(st.sampled_from(KEYS.get(tok[0], []) + ["color"])
                            .flatmap(field)))
        elif op == "drop" and len(tok) > 1:
            del tok[draw(st.integers(1, len(tok) - 1))]
        elif op == "delete":
            tok = []
        elif op == "copy":
            lines.insert(i, lines[i])
        elif op == "new":
            kind = draw(st.sampled_from(sorted(KEYS)))
            keys = draw(st.lists(st.sampled_from(KEYS[kind] + ["color"]), max_size=4))
            tok = [kind, draw(st.sampled_from(IDS))] + [draw(field(k)) for k in keys]
        lines[i] = " ".join(tok)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=400)
@given(text=scenario_texts())
def test_scenario_text_parses_or_names_a_line(text):
    try:
        parse_scenario_text(text)
    except ScenarioParseError as e:
        msg = str(e)
        if msg not in ("empty scenario file", "missing run record"):
            m = re.match(r"line (\d+): ", msg)
            assert m and 1 <= int(m.group(1)) <= len(text.splitlines()), msg


@pytest.mark.parametrize("sweep,needle", [
    ("sweep key=share:s1 values=0.3,nan", "sweep values must be finite"),
    ("sweep key=arrival_rate:* values=nan", "sweep values must be finite"),
    ("sweep key=share:s1 values=1.5", "outside (0, 1)"),
    ("sweep key=arrival_rate:c9 values=0.5", "unknown class"),
])
def test_bad_sweep_record_exits_1_with_line(tmp_path, capsys, sweep, needle):
    scen = write(tmp_path, SWEPT.replace("sweep key=share:s1 values=0.3,0.5,0.7",
                                         sweep))
    assert main(["sweep", scen, "-o", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "line 8:" in err
    assert needle in err


def test_sweep_solver_failure_names_value_engine_seed(tmp_path, monkeypatch,
                                                      capsys):
    import sliceshare.sim as sim_mod

    def boom(*a, **k):
        raise SolverError("no convergence", iterations=4)
    monkeypatch.setattr(sim_mod, "solve_alpha_scs", boom)
    scen = write(tmp_path, SWEPT.replace("engines=dps", "engines=scs(1)"))
    assert main(["sweep", scen, "-o", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "sweep value 0.3, engine scs(1), seed 1:" in err
    assert "no convergence" in err
