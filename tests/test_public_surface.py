"""Every name a module exports is used by the program itself.

A name in some module's `__all__` that nothing under src/fisherbound
references is reached by no command: it belongs in tests/oracles.py, or
nowhere.  References are read from the syntax tree (Name and Attribute
nodes), so strings, imports and a name's own definition do not count.
"""

import ast
from pathlib import Path

import fisherbound
from fisherbound import cli

SOURCE = Path(fisherbound.__file__).parent

# Exported names without a caller in src/, each kept for a stated reason.
ALLOWED = {
    "resolve_threads": "bench/worker.py records it; it goes with FISHERBOUND_THREADS",
    "asymptotic_upper_l2": "the paper's l2 upper limit, due as a `bounds` row",
    "entangled_pauli_l2_lower": "the paper's l2 Pauli lower limit, due as a `bounds` row",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py"))}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def _references(tree):
    """Names read anywhere in the module, outside the definition of each
    top-level function or class that bears the name."""
    names = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                names.add(name)
    return names


def test_every_exported_name_has_a_caller_in_src():
    trees = _trees()
    used = set().union(*(_references(tree) for tree in trees.values()))
    # the package's own __all__ lists its submodules, reached by imports
    exported = {f"{module}.{name}": name for module, tree in trees.items()
                if module != "__init__" for name in _exports(tree)}
    assert exported
    unused = sorted(key for key, name in exported.items() if name not in used)
    # the allowlist holds exactly the exported names that still lack a caller
    assert sorted(exported[key] for key in unused) == sorted(ALLOWED), unused


# The two functions of cli.py that may tell schemes apart: the validation
# of a config and the construction of its model.  Every other per-scheme
# fact is an attribute or method of the model.
SCHEME_BRANCHES = ("_validate_config", "build_model_and_theta")


def _scheme_names(tree):
    """String literals of cli.py that a config accepts as its scheme."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                cli._validate_config({**cli.DEFAULTS, "scheme": node.value})
            except cli.ConfigError:
                continue
            names.add(node.value)
    return names


def _names_a_scheme(operand, names):
    """Whether a comparison operand reads a scheme: cfg["scheme"], a
    `scheme` name or attribute, or a literal scheme name (also inside a
    tuple, list or set)."""
    for node in ast.walk(operand):
        key = (node.id if isinstance(node, ast.Name)
               else node.attr if isinstance(node, ast.Attribute)
               else getattr(node.slice, "value", None) if isinstance(node, ast.Subscript)
               else None)
        if key == "scheme" or (isinstance(node, ast.Constant) and node.value in names):
            return True
    return False


def test_cli_compares_scheme_names_only_where_it_builds_the_model():
    tree = _trees()["cli"]
    names = _scheme_names(tree)
    assert {"entangled-pauli", "poisson"} <= names
    offenders = []
    for statement in tree.body:
        if getattr(statement, "name", None) in SCHEME_BRANCHES:
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Compare) and any(
                    _names_a_scheme(operand, names)
                    for operand in [node.left, *node.comparators]):
                offenders.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert not offenders, offenders


# The sizes that the memory guards multiply out: a command's allocations are
# sized where they are made (the model factories and mle_lab.check_draws).
ALLOCATION_SIZES = ("TRIAL_BLOCK", "DRAW_ARRAYS", "GAUSSIAN_DENSE_ARRAYS", "_check_memory")


def test_cli_sizes_no_allocation():
    assert not _references(_trees()["cli"]) & set(ALLOCATION_SIZES)


# Per-outcome derivative tensors that no bound reads: the K x d x d Hessian
# and K x d^3 third-derivative stacks live in tests/oracles.py.
TEST_ONLY_TENSORS = ("d2logp", "d3logp")
# The truncated Poisson model's retired log-space weight path: every weight
# comes from its mode-centred _weights, and log Z's closed forms from probs.
RETIRED_POISSON_PATHS = ("_logz_derivatives", "_log_factorials")
# The two moment methods that outcome_moments replaced: a model gives every
# outcome moment at a point from one call.
RETIRED_MOMENT_METHODS = ("score_moments", "envelope_moments")


def _defined_or_read(names):
    """Where src/ defines or reads any of names, as module and line."""
    offenders = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            name = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.value if isinstance(node, ast.Constant)
                    else None)
            if name in names:
                offenders.append(f"{module} line {node.lineno}: {name}")
    return offenders


def test_src_defines_and_reads_no_derivative_tensor():
    assert not _defined_or_read(TEST_ONLY_TENSORS)


def test_src_has_one_poisson_weight_path():
    assert not _defined_or_read(RETIRED_POISSON_PATHS)


def test_src_has_one_outcome_moment_method():
    assert not _defined_or_read(RETIRED_MOMENT_METHODS)


def test_cli_runs_every_search_from_one_function():
    # simulate and separation read a search's outcome, m_star or None at
    # m_max, from the same helper, so a new table cannot grow its own path
    def reads(statement):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute))}

    callers = [getattr(statement, "name", f"line {statement.lineno}")
               for statement in _trees()["cli"].body
               if "find_min_samples" in reads(statement)]
    assert callers == ["_search"]


# probs is the one gate: it checks a parameter point and forms its
# distribution, and the layers above it read that p instead of checking the
# point again.
GATED_LAYERS = ("fisher", "bounds", "mle_lab")
# The model methods that take p = probs(theta) as an argument.
P_READERS = ("analytic_fisher", "dlogp", "outcome_moments", "estimate_batch")


def test_layers_check_a_point_only_through_probs():
    trees = _trees()
    assert [module for module in GATED_LAYERS
            if "validate_theta" in _references(trees[module])] == []


def _reads_probs(node):
    return any(isinstance(inner, ast.Attribute) and inner.attr == "probs"
               for inner in ast.walk(node))


def test_methods_given_p_form_none():
    offenders = [f"{node.name} line {node.lineno}" for node in ast.walk(_trees()["models"])
                 if isinstance(node, ast.FunctionDef) and node.name in P_READERS
                 and _reads_probs(node)]
    assert not offenders, offenders


def test_a_search_forms_p_once_for_all_its_probes():
    # success_probability takes the p that find_min_samples formed
    assert [node.name for node in _trees()["mle_lab"].body
            if isinstance(node, ast.FunctionDef) and _reads_probs(node)] == ["find_min_samples"]
