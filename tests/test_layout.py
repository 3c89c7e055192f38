"""Layout rules checked on the source: where validation may be skipped, what the closed forms use."""

import ast
import builtins
from pathlib import Path

import manalab

SRC = Path(manalab.__file__).parent


def test_validate_false_only_inside_states():
    # states.tensor and states.conjugate build unchecked results from valid
    # inputs; every other module gets its unchecked states from them
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and path.stem != "states":
                outside += [
                    f"{path.name}:{node.lineno}"
                    for kw in node.keywords
                    if kw.arg == "validate" and not (isinstance(kw.value, ast.Constant) and kw.value.value is True)
                ]
    assert outside == []


CLOSED_FORMS = {
    "shannon_entropy", "_check_p", "example1", "example2", "example3", "example4",
    "_example5_f", "example5", "example6", "_ml1_h_terms", "_msre2_h_terms", "ml1_h", "msre2_h",
    "table1_cell", "p_crit", "_form", "closed_form",
}
# the module-level values the closed forms read; each is assigned from math, cmath and closed forms
CONSTANTS = {"SQRT3", "_ML1_H_TERMS", "_MSRE2_H_TERMS"}
ALLOWED_GLOBALS = {"math", "cmath", "BadParams", "OracleId"} | CONSTANTS | CLOSED_FORMS


def _free_names(func: ast.FunctionDef) -> set[str]:
    """Names a function reads that it neither binds nor takes from builtins."""
    bound, read = set(), set()
    for node in ast.walk(func):
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.FunctionDef):
            bound.add(node.name)
        elif isinstance(node, ast.Name):
            (read if isinstance(node.ctx, ast.Load) else bound).add(node.id)
    return read - bound - set(dir(builtins))


def test_closed_forms_use_only_math():
    tree = ast.parse((SRC / "oracles.py").read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert CLOSED_FORMS <= set(funcs)
    used = {name: _free_names(funcs[name]) - ALLOWED_GLOBALS for name in sorted(CLOSED_FORMS)}
    assert used == {name: set() for name in sorted(CLOSED_FORMS)}
    # every module-level name a closed form reads takes its value(s) from math, cmath and closed forms only
    values = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        values.setdefault(name.id, []).append(node.value)
    read = set().union(*(_free_names(funcs[name]) for name in CLOSED_FORMS))
    assert read & set(values) == CONSTANTS
    sources = {
        name: {node.id for value in values[name] for node in ast.walk(value) if isinstance(node, ast.Name)}
        - {"math", "cmath"} - CLOSED_FORMS
        for name in sorted(CONSTANTS)
    }
    assert sources == {name: set() for name in sorted(CONSTANTS)}


def test_figure_rows_stay_off_the_dense_output_path():
    # the figures are computed from permuted single-qudit tables
    # (measures.output_measures); the per-state dense output is the reference
    tree = ast.parse((SRC / "oracles.py").read_text(encoding="utf-8"))
    (func,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "figure_rows"]
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert called & {"csum_output", "beamsplitter_output", "DensityState"} == set()
    assert "output_measures" in called


def test_cli_reads_no_private_name():
    # the CLI only parses and prints: a module's private name read from cli
    # is work that belongs in that module
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {alias.asname or alias.name for node in imports for alias in node.names}
    found = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        and node.attr.startswith("_")
    ]
    found += [f"import {alias.name}" for node in imports for alias in node.names if alias.name.startswith("_")]
    assert found == []


def _called_names(func: ast.FunctionDef) -> set[str]:
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def test_oracle_pairing_stays_off_the_dense_output_path():
    # threshold_by_bisection evaluates through _row_value, the figures'
    # output_measures path; csum_output is the dense reference
    tree = ast.parse((SRC / "oracles.py").read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = {name: _called_names(funcs[name]) for name in ("threshold_by_bisection", "_row_value")}
    dense = {"csum_output", "beamsplitter_output", "noisy_mix", "DensityState"}
    assert {name: names & dense for name, names in called.items()} == {name: set() for name in called}
    assert "_row_value" in called["threshold_by_bisection"]
    assert "output_measures" in called["_row_value"]


def test_the_numeric_description_builds_nothing():
    # oracles._numeric_input only names an id's input state and noise;
    # compare builds and checks each distinct state once per call
    tree = ast.parse((SRC / "oracles.py").read_text(encoding="utf-8"))
    (func,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_numeric_input"]
    builders = {"named_state", "PureVector", "NoisyRows", "check_noise", "_checked_noise", "output_measures", "_row_value"}
    assert _called_names(func) & builders == set()


# The operator tables, gates, B_G, stabilizer states and coherent vectors are
# evaluated on integer index arrays; a Python loop over indices here is a
# second, slower copy of a formula.  Wrapping rows of an array into objects
# (a comprehension over the array, not over range) is not an index loop.
INDEX_ARRAY_BUILDERS = {
    "phasespace": (
        "_table", "weyl_stack", "phase_point_stack", "_kernel", "point_kernel", "weyl_kernel",
    ),
    "circuits": ("beamsplitter", "clifford_gate"),
    "states": ("enumerate_stabilizer_pure", "coherent_amplitudes"),
    "search": ("PhaseVector.amplitudes", "_CoherentObjective.batch"),
    "measures": ("hermitian_basis", "_vacuum_table"),
}


def _functions(module: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    funcs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            funcs.update({f"{node.name}.{f.name}": f for f in node.body if isinstance(f, ast.FunctionDef)})
    return funcs


def _index_loops(func: ast.FunctionDef) -> list[int]:
    loops = []
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.While)):
            loops.append(node.lineno)
        elif isinstance(node, ast.comprehension):
            call = node.iter
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "range":
                loops.append(call.lineno)
    return loops


def test_operator_tables_are_built_without_index_loops():
    loops = {}
    for module, names in INDEX_ARRAY_BUILDERS.items():
        funcs = _functions(module)
        assert set(names) <= set(funcs), module
        loops.update({f"{module}.{name}": _index_loops(funcs[name]) for name in names})
    assert loops == {name: [] for name in loops}


JOINS = {"stack", "vstack", "hstack", "concatenate"}


def _block_rule_copies(tree: ast.AST) -> list[int]:
    """Lines that join a list holding one element twice, or loop over range() with a step."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        if name in JOINS and isinstance(node.args[0], (ast.List, ast.Tuple)):
            parts = [ast.dump(element) for element in node.args[0].elts]
            if len(set(parts)) < len(parts):
                found.append(node.lineno)
        elif name == "range" and len(node.args) == 3:
            found.append(node.lineno)
    return found


def test_one_copy_of_the_block_rule():
    # measures._by_rows alone cuts a block into pieces and doubles a lone row
    # (a one-row product goes to gemv, which rounds unlike gemm)
    copies = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "_by_rows" and path.stem == "measures":
                assert len(_block_rule_copies(node)) == 2  # its own cut and doubling
            elif lines := _block_rule_copies(node):
                copies[f"{path.name}:{getattr(node, 'name', node.lineno)}"] = lines
    assert copies == {}
    search = ast.parse((SRC / "search.py").read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(search) if isinstance(node, ast.Name)}
    assert not {name for name in names if "chunk" in name}


def test_search_builds_no_phase_mesh():
    # the grid gathers each piece's amplitudes from one table per axis; a
    # (grid^(d-1), d-1) mesh of phases is 143 MB at d = 7
    tree = ast.parse((SRC / "search.py").read_text(encoding="utf-8"))
    assert "meshgrid" not in _called_names(tree)


def test_one_tail_for_the_coherent_objective():
    # _CoherentObjective._from_psi alone forms |psi><psi| and takes the kernel
    # product; states.coherent_phases alone exponentiates phases, so search
    # keeps no second copy of the bits of e^{i theta} / sqrt(d)
    tail = _functions("search")["_CoherentObjective._from_psi"]
    inside = range(tail.lineno, tail.end_lineno + 1)
    found = {}
    for node in ast.walk(ast.parse((SRC / "search.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            name = "matmul"
        else:
            continue
        if name in {"conjugate", "conj", "matmul", "exp"}:
            found.setdefault(name, set()).add("_from_psi" if node.lineno in inside else node.lineno)
    assert found == {"conjugate": {"_from_psi"}, "matmul": {"_from_psi"}}


def test_measures_runs_no_scipy_optimizer_or_logm():
    # nonlocal_mana_upper runs its own lockstep Nelder-Mead and takes the
    # diagonalizing start's log from a Schur form
    tree = ast.parse((SRC / "measures.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names} | {getattr(node, "module", None)}
    assert not names & {"minimize", "logm", "scipy.optimize"}


def test_no_module_imports_scipy():
    # the runtime needs numpy only; scipy is a test dependency
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    assert found == []


def test_no_module_calls_hasattr():
    # each entry point takes one argument form (a DensityState, a state name);
    # a hasattr test is a side door for another
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "hasattr":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
