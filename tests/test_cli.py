"""Command-line interface: outputs, exit codes, determinism."""

import json
import math
import warnings

import pytest

from manalab import cli, named_state, state_to_json
from manalab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_strange_mana(capsys):
    code, out, _ = run(capsys, "measure", "--state", "strange", "--measures", "mana")
    assert code == 0
    assert out.strip() == f"mana = {math.log(5 / 3):.8f}"
    assert "0.51082562" in out


def test_measure_maxmixed_l1(capsys):
    code, out, _ = run(capsys, "measure", "--state", "maxmixed", "--dim", "3",
                       "--measures", "mana,l1")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(lines["mana"]) == pytest.approx(0.0, abs=1e-8)
    assert float(lines["l1"]) == pytest.approx(1.0, abs=1e-8)
    assert float(lines["log_l1"]) == pytest.approx(0.0, abs=1e-8)


def test_measure_log_base_conversion(capsys):
    code, out, _ = run(capsys, "measure", "--state", "strange", "--measures", "mana",
                       "--log-base", "2")
    assert code == 0
    assert float(out.strip().split(" = ")[1]) == pytest.approx(math.log2(5 / 3), abs=1e-8)


def test_measure_state_file_sre2_stabilizer(tmp_path, capsys):
    path = tmp_path / "psi.json"
    path.write_text(state_to_json(named_state("basis", [0])))
    code, out, _ = run(capsys, "measure", "--state-file", str(path), "--measures", "sre2")
    assert code == 0
    assert float(out.strip().split(" = ")[1]) == pytest.approx(0.0, abs=1e-8)


def test_measure_noise_flag(capsys):
    code, out, _ = run(capsys, "measure", "--state", "strange", "--noise", "0.5",
                       "--measures", "mana")
    assert code == 0
    assert float(out.strip().split(" = ")[1]) == pytest.approx(math.log(11 / 9), abs=1e-8)


def test_measure_usage_errors(capsys):
    code, _, err = run(capsys, "measure", "--measures", "mana")
    assert code == 2 and "state" in err
    code, _, err = run(capsys, "measure", "--state", "nosuch")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "measure", "--state", "strange", "--measures", "bogus")
    assert code == 2


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "thm1", "--trials", "10", "--seed", "7")
    assert code == 0
    assert "all" in out and "passed" in out
    assert "max deviation" in out


def test_verify_prop1(capsys):
    code, out, _ = run(capsys, "verify", "prop1", "--trials", "50")
    assert code == 0


def test_verify_wigner_axioms(capsys):
    code, out, _ = run(capsys, "verify", "wigner-axioms", "--trials", "20")
    assert code == 0


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuite"])
    assert exc.value.code == 2


def test_figure_fig4a_values(tmp_path, capsys):
    path = tmp_path / "fig4a.csv"
    code, _, _ = run(capsys, "figure", "fig4a", "--output", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "p,I,m_l1,m_sre2,m_mana"
    assert len(lines) == 102
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == 1.0
    assert last[4] == pytest.approx(math.log(15 / 9), abs=1e-10)
    first = [float(x) for x in lines[1].split(",")]
    assert first[1] == pytest.approx(math.log(3), abs=1e-10)  # I at p=0


def test_figure_fig4a_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "figure", "fig4a", "--output", str(p1))
    run(capsys, "figure", "fig4a", "--output", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_figure_fig3a_header_and_peak(tmp_path, capsys):
    path = tmp_path / "fig3a.csv"
    run(capsys, "figure", "fig3a", "--output", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,I,m_l1,m_sre2,m_mana"
    assert len(lines) == 102
    last = [float(x) for x in lines[-1].split(",")]  # lambda = 1/sqrt2
    assert last[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert last[4] == pytest.approx(math.log(5 / 3), abs=1e-10)


def test_figure_fig3b_zero_endpoints(tmp_path, capsys):
    path = tmp_path / "fig3b.csv"
    run(capsys, "figure", "fig3b", "--output", str(path))
    lines = path.read_text().splitlines()
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    for row in (first, last):  # stabilizer endpoints: all four measures vanish
        assert max(abs(v) for v in row[1:]) < 1e-9


def test_figure_unwritable_path(capsys):
    code, _, err = run(capsys, "figure", "fig4a", "--output", "/nonexistent-dir/x.csv")
    assert code == 2 and "error:" in err


def test_maximize_d3(capsys):
    code, out, _ = run(capsys, "maximize", "--dim", "3", "--grid", "32", "--refine", "40")
    assert code == 0
    assert "bound not certified attained" in out
    best = float(out.splitlines()[0].split(" = ")[1])
    assert best == pytest.approx(math.log((1 + 4 * math.cos(math.pi / 9)) / 3), abs=1e-6)


def test_measure_parameterized_state(capsys):
    code, out, _ = run(capsys, "measure", "--state", "phi_lambda", "--params",
                       "0.7071067811865476", "--measures", "mana")
    assert code == 0
    assert float(out.strip().split(" = ")[1]) == pytest.approx(math.log(5 / 3), abs=1e-8)


def test_figure_fig2_zero_region_and_peak(tmp_path, capsys):
    path = tmp_path / "fig2.csv"
    run(capsys, "figure", "fig2", "--output", str(path))
    rows = [
        [float(x) for x in line.split(",")]
        for line in path.read_text().splitlines()[1:]
    ]
    for p, th, mm in rows:
        if p <= 2.0 / (2.0 + 3.0 * math.sin(2 * th)) :
            assert abs(mm) < 1e-12
    peak = max(mm for _, _, mm in rows)
    assert peak == pytest.approx(math.log(5 / 3), abs=1e-10)


def test_verify_failure_exit_code(capsys):
    from manalab.cli import Check, _print_checks

    code = _print_checks([Check("won't hold", deviation=1.0, tolerance=1e-10)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "1/1 checks failed" in out


def test_measure_bipartite_state_file(tmp_path, capsys):
    from manalab.oracles import csum_output

    out_state = csum_output("strange", 1.0)
    path = tmp_path / "pair.json"
    from manalab import state_to_json

    path.write_text(state_to_json(out_state))
    code, out, _ = run(capsys, "measure", "--state-file", str(path))
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(lines["mutual_mana"]) == pytest.approx(math.log(5 / 3), abs=1e-8)


def test_maximize_json_output(tmp_path, capsys):
    jpath = tmp_path / "result.json"
    code, _, _ = run(capsys, "maximize", "--dim", "3", "--grid", "16", "--refine", "30",
                     "--json", str(jpath))
    assert code == 0
    doc = json.loads(jpath.read_text())
    assert doc["grid"] == 16
    assert doc["best_value"] <= doc["bound"] + 1e-9
    assert all(len(v) == 2 for v in doc["argmax"])


@pytest.mark.parametrize("measure", ["mutual_mana", "mutual_information", "mutual_l1", "mutual_sre2"])
def test_measure_bipartite_names_on_single_qutrit(capsys, measure):
    code, out, err = run(capsys, "measure", "--state", "strange", "--measures", measure)
    assert code == 2 and "error:" in err and out == ""


@pytest.mark.parametrize(
    "state,params",
    [("strange", None), ("norrell", None), ("t", None), ("h", None), ("h_fourier", None),
     ("phi_lambda", "0.5"), ("psi_theta", "0.5")],
)
def test_measure_qutrit_state_rejects_other_dims(capsys, state, params):
    argv = ["measure", "--state", state, "--measures", "mana"]
    argv += ["--params", params] if params else []
    code, _, _ = run(capsys, *argv, "--dim", "3")
    assert code == 0
    code, out, err = run(capsys, *argv, "--dim", "5")
    assert code == 2 and "error:" in err and out == ""


def test_measure_max_coherent_takes_dim_from_phases(capsys):
    code, out, _ = run(capsys, "measure", "--state", "max_coherent", "--params", "0.1,0.2,0.3,0.4",
                       "--measures", "mana")
    assert code == 0 and out.startswith("mana = ")


def test_measure_max_coherent_rejects_a_dim_its_phases_disagree_with(capsys):
    code, out, err = run(capsys, "measure", "--state", "max_coherent", "--params", "0.1,0.2", "--dim", "5",
                         "--measures", "mana")
    assert code == 2 and out == "" and "error:" in err
    assert "2 phases" in err and "dim=5" in err


@pytest.mark.parametrize(
    "state,params,value",
    [("max_coherent", "nan,0", "nan"), ("psi_theta", "inf", "inf"), ("phi_lambda", "-inf", "-inf")],
)
def test_measure_non_finite_state_parameter_is_named(capsys, state, params, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "measure", "--state", state, f"--params={params}", "--measures", "mana")
    assert caught == []
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {state} parameter {value} is not finite"]


def test_measure_max_coherent_with_its_own_dim_is_the_default(capsys):
    argv = ["measure", "--state", "max_coherent", "--params", "0.1,0.2,0.3,0.4", "--measures", "mana,l1,sre2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--dim", "5") == (0, out, "")


@pytest.mark.parametrize("suite,trials", [("prop5", "0"), ("thm1", "-3")])
def test_verify_trials_below_one_usage_error(capsys, suite, trials):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--trials", trials])
    assert exc.value.code == 2
    assert "passed" not in capsys.readouterr().out


@pytest.mark.parametrize("key", ["kind", "dims", "data"])
def test_measure_state_file_missing_key(tmp_path, capsys, key):
    doc = json.loads(state_to_json(named_state("basis", [0])))
    del doc[key]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "measure", "--state-file", str(path), "--measures", "mana")
    assert code == 2 and "error:" in err and key in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_measure_state_file_non_finite_amplitude(tmp_path, capsys, token):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [3], "kind": "pure", "data": [[%s, 0], [0, 0], [0, 0]]}' % token)
    code, _, err = run(capsys, "measure", "--state-file", str(path), "--measures", "mana")
    assert code == 2 and "non-finite" in err
    path.write_text(
        '{"dims": [3], "kind": "mixed", "data": [[[1, 0], [0, 0], [0, 0]], '
        '[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, %s]]]}' % token
    )
    code, _, err = run(capsys, "measure", "--state-file", str(path), "--measures", "mana")
    assert code == 2 and "non-finite" in err


@pytest.mark.parametrize(
    "doc",
    ['[1, 2]', '{"dims": 3, "kind": "pure", "data": [[1, 0], [0, 0], [0, 0]]}',
     '{"dims": [3], "kind": "pure", "data": 5}', '{"dims": [3], "kind": "mixed", "data": [1, 2, 3]}'],
)
def test_measure_state_file_malformed_shape(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, _, err = run(capsys, "measure", "--state-file", str(path), "--measures", "mana")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "doc",
    ['{"dims": [], "kind": "mixed", "data": [[[1, 0]]]}', '{"dims": [], "kind": "pure", "data": [[1, 0]]}'],
    ids=["mixed", "pure"],
)
def test_measure_state_file_without_subsystems(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, out, err = run(capsys, "measure", "--state-file", str(path))
    assert code == 2 and out == "" and err == "error: dims must list at least one subsystem\n"


def test_measure_entropy_of_a_pure_state_prints_positive_zero(capsys):
    code, out, _ = run(capsys, "measure", "--state", "basis", "--params", "0", "--measures", "entropy")
    assert code == 0 and out == "entropy = 0.00000000\n"


def test_measure_nan_parameter_fails_validation(capsys):
    code, out, err = run(capsys, "measure", "--state", "psi_theta", "--params", "nan")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: psi_theta parameter nan is not finite"]


def test_maximize_negative_refine_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maximize", "--dim", "3", "--grid", "16", "--refine", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "best value" not in captured.out and "--refine" in captured.err


def test_maximize_zero_refine_is_grid_only(capsys):
    code, out, _ = run(capsys, "maximize", "--dim", "3", "--grid", "16", "--refine", "0")
    assert code == 0
    assert "refine sweeps = 0" in out


def test_maximize_json_records_refine_sweeps(tmp_path, capsys):
    jpath = tmp_path / "result.json"
    code, out, _ = run(capsys, "maximize", "--dim", "3", "--grid", "16", "--refine", "30",
                       "--json", str(jpath))
    assert code == 0
    doc = json.loads(jpath.read_text())
    assert 1 <= doc["refine_sweeps"] <= 30
    assert f"refine sweeps = {doc['refine_sweeps']}" in out


@pytest.mark.parametrize(
    "source,extra,named",
    [
        ("file", ["--state", "strange"], ["--state"]),
        ("file", ["--params", "1"], ["--params"]),
        ("file", ["--noise", "0.3"], ["--noise"]),
        ("file", ["--state", "strange", "--noise", "0.3", "--params", "1"], ["--state", "--params", "--noise"]),
        ("maxmixed", ["--params", "1"], ["--params"]),
        ("maxmixed", ["--noise", "0.3"], ["--noise"]),
    ],
)
def test_measure_rejects_flags_its_state_source_ignores(tmp_path, capsys, source, extra, named):
    if source == "file":
        path = tmp_path / "basis.json"
        path.write_text(state_to_json(named_state("basis", [0])))
        argv = ["measure", "--state-file", str(path)]
    else:
        argv = ["measure", "--state", "maxmixed"]
    code, out, _ = run(capsys, *argv, "--measures", "mana")
    assert code == 0
    code, out, err = run(capsys, *argv, *extra, "--measures", "mana")
    assert code == 2 and out == "" and "error:" in err
    assert all(flag in err for flag in named)


@pytest.mark.parametrize("params,code", [("1.7", 2), ("-0.5", 2), ("1.0", 0)])
def test_measure_basis_index_must_be_an_integer(capsys, params, code):
    got, out, err = run(capsys, "measure", "--state", "basis", "--params", params, "--measures", "mana")
    assert got == code
    assert ("error:" in err and out == "") if code else out.startswith("mana = ")


@pytest.mark.parametrize("dims", ["[3.7]", '["3"]'])
def test_measure_state_file_non_integer_dims(tmp_path, capsys, dims):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": %s, "kind": "pure", "data": [[1, 0], [0, 0], [0, 0]]}' % dims)
    code, out, err = run(capsys, "measure", "--state-file", str(path), "--measures", "mana")
    assert code == 2 and out == "" and "dims" in err


@pytest.mark.parametrize("dim", ["3", "5"])
def test_measure_state_file_rejects_dim(tmp_path, capsys, dim):
    # the file fixes the dimension, so --dim would be ignored without a word
    path = tmp_path / "basis.json"
    path.write_text(state_to_json(named_state("basis", [0])))
    code, out, err = run(capsys, "measure", "--state-file", str(path), "--dim", dim, "--measures", "mana")
    assert code == 2 and out == "" and "error:" in err and "--dim" in err
    code, out, _ = run(capsys, "measure", "--state", "maxmixed", "--dim", "5", "--measures", "mana")
    assert code == 0 and out.startswith("mana = ")


def test_verify_negative_seed_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "prop1", "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0" in capsys.readouterr().err


def test_maximize_unwritable_json_prints_nothing(tmp_path, capsys):
    jpath = tmp_path / "missing-dir" / "result.json"
    code, out, err = run(capsys, "maximize", "--dim", "3", "--grid", "8", "--refine", "0", "--json", str(jpath))
    assert code == 2 and out == "" and err.startswith("error:")


def test_measure_without_a_state_is_an_error_line(capsys):
    code, out, err = run(capsys, "measure", "--measures", "mana")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("kind", ["mixed", "pure"])
def test_measure_state_file_dims_whose_product_wraps_in_int64(tmp_path, capsys, kind):
    # 17 * 8680820740569200761 is 9 modulo 2**64, the size of the data
    matrix = [[[1 / 9 if i == j else 0.0, 0.0] for j in range(9)] for i in range(9)]
    data = [[1 / 3, 0.0]] * 9 if kind == "pure" else matrix
    path = tmp_path / "wrapped.json"
    path.write_text(json.dumps({"dims": [17, 8680820740569200761], "kind": kind, "data": data}))
    code, out, err = run(capsys, "measure", "--state-file", str(path), "--measures", "entropy")
    assert code == 2 and out == "" and err.startswith("error:") and "147573952589676412937" in err


def test_out_of_memory_is_an_error_line(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "max_mana_coherent", no_memory)
    code, out, err = run(capsys, "maximize", "--dim", "7", "--grid", "100")
    assert code == 2 and out == "" and err == "error: Unable to allocate 7.28 TiB for an array\n"


def no_table(*args, **kwargs):
    raise AssertionError("a state or table was built for a refused dimension")


@pytest.mark.parametrize(
    "argv",
    [
        ["--state", "basis", "--params", "0", "--dim", "11"],
        ["--state", "maxmixed", "--dim", "11"],
        ["--state", "max_coherent", "--params", ",".join(["0.1"] * 10)],
    ],
    ids=["basis-dim", "maxmixed-dim", "max-coherent-phases"],
)
def test_measure_refuses_a_local_dimension_above_7_before_building(monkeypatch, capsys, argv):
    # the phase-space tables cost about d^6 (18.7 s at d = 41), so the cap
    # comes before any state or table of that size is built
    for name in ("named_state", "maximally_mixed"):
        monkeypatch.setattr(cli, name, no_table)
    monkeypatch.setattr(cli.mz, "measure_report", no_table)
    code, out, err = run(capsys, "measure", *argv, "--measures", "mana")
    assert (code, out, err) == (2, "", "error: measure capped at local dimension 7, got 11\n")


def test_measure_refuses_a_state_file_with_a_local_dimension_above_7(monkeypatch, tmp_path, capsys):
    path = tmp_path / "basis11.json"
    path.write_text(json.dumps({"dims": [3, 11], "kind": "pure", "data": [[1.0, 0.0]] + [[0.0, 0.0]] * 32}))
    monkeypatch.setattr(cli.mz, "measure_report", no_table)
    code, out, err = run(capsys, "measure", "--state-file", str(path), "--measures", "mana")
    assert (code, out, err) == (2, "", "error: measure capped at local dimension 7, got 11\n")


def test_measure_takes_a_local_dimension_of_7(capsys):
    code, out, err = run(capsys, "measure", "--state", "basis", "--params", "0", "--dim", "7", "--measures", "mana")
    assert (code, out, err) == (0, "mana = 0.00000000\n", "")


@pytest.mark.parametrize("measures", ["entropy,purity_bound", "mutual_information"])
def test_measure_refuses_a_state_file_with_dims_below_1(tmp_path, capsys, measures):
    # [-1, -3] multiplies to 3, the size of the 3 x 3 matrix the file holds
    path = tmp_path / "negative.json"
    data = [[[1.0 / 3.0 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
    path.write_text(json.dumps({"dims": [-1, -3], "kind": "mixed", "data": data}))
    code, out, err = run(capsys, "measure", "--state-file", str(path), "--measures", measures)
    assert (code, out, err) == (2, "", "error: dims entries must be at least 1, got (-1, -3)\n")


def test_verify_prop2_passes(capsys):
    code, out, _ = run(capsys, "verify", "prop2")
    assert code == 0 and out.count("[pass]") == 8 and out.endswith("all 8 checks passed\n")


@pytest.mark.parametrize("measures", ["", "mana,,mana"], ids=["empty", "empty-between-commas"])
def test_an_empty_measure_name_is_a_usage_error(capsys, measures):
    # an empty --measures names one empty measure; it does not mean the default set
    code, out, err = run(capsys, "measure", "--state", "strange", "--measures", measures)
    assert (code, out, err) == (2, "", "error: unknown measure ''\n")
