"""The relabeling gates against the per-tuple maps they were once written as.

`transposition`, the halting statement and the pair transposition U_r are
each one call to `gates.pairing_permutation`, and U_OR is one XOR on the
register column.  The hand-written involutions they replaced are kept here as
brute-force references, and each gate's compiled forward and inverse tables
are checked against them on the full domain.
"""

import ast
import itertools
from pathlib import Path

import pytest

from references import assert_tables_match, element_of_order, sole_tuple
import cycsim
from cycsim import gates, hilbert
from cycsim import halting_program as hp
from cycsim import mq_circuits as mq
from cycsim.hilbert import Register, RegisterLayout, SparseState, apply
from cycsim.numtheory import DomainError, make_group_spec
from cycsim.oracle import binary_rep, rep_value


def _ref_transposition(a, b):
    def fl(v):
        x = v[0]
        if x == a:
            return (b,)
        if x == b:
            return (a,)
        return v
    return fl


def _ref_halt(step):
    def fl(v):
        if v == (1, 0, 0):
            return (0, 1, step)
        if v == (0, 1, step):
            return (1, 0, 0)
        return v
    return fl


def _ref_u_r(config):
    exponent = {config.f_r(x): x for x in range(config.m_r)}
    values = set(exponent)

    def fl(v):
        fv, gv = v
        x = exponent.get(fv)
        if x is None or gv not in values:
            return v
        partner = config.f_r(-x % config.m_r)
        if gv == partner:
            return (fv, 1)
        if gv == 1:
            return (fv, partner)
        return v
    return fl


def _ref_u_or(rep):
    mask, top = rep_value(rep), 2**rep.n
    return lambda v: (v[0] ^ mask,) if v[0] < top else v


def test_transposition_matches_its_reference():
    for a, b in itertools.product(range(16), repeat=2):
        assert_tables_match(gates.transposition(a, b, "r"), _ref_transposition(a, b), (16,),
                            f"X_{a}_{b}")


def test_halt_gate_matches_its_reference():
    dims = (64, 2, 9)  # the pair register, halt flag and record at p=43
    for step in range(dims[2]):
        assert_tables_match(hp._halt_gate(step, "GR", "NH", "REC"), _ref_halt(step), dims,
                            f"HALT_{step}")


@pytest.mark.parametrize("m_r, p", [(3, 7), (4, 13), (8, 17), (16, 17), (None, 43)])
def test_u_r_gate_matches_its_reference(m_r, p):
    # the four programs of acceptance criterion 4, and the one a p=43 run uses
    config = (hp.ProgramConfig.from_spec(make_group_spec(p)) if m_r is None
              else hp.ProgramConfig(p, m_r, element_of_order(m_r, p)))
    dim = gates.register_dim(p)
    gate = hp.u_r_gate(config, "FR", "GR")
    assert_tables_match(gate, _ref_u_r(config), (dim, dim), "U_r")
    # x = 0 pairs 1 with itself: the gate fixes |1>|1>
    assert gate.table_for((dim, dim))[dim + 1] == dim + 1


def test_u_or_matches_its_reference():
    for n in range(1, 7):
        for value in range(2**n):
            rep = binary_rep(value, n)
            # two levels above the rep, which the gate must leave alone
            assert_tables_match(mq.u_or(rep, "q"), _ref_u_or(rep), (2**n + 2,), "U_OR")


def test_pairing_over_several_registers():
    layout = RegisterLayout([Register("a", 3), Register("b", 4)])
    cycle = [(0, 0), (1, 2), (2, 3)]
    gate = gates.pairing_permutation(cycle, cycle[1:] + cycle[:1], ("a", "b"), "CYCLE")
    want = {x: y for x, y in zip(cycle, cycle[1:] + cycle[:1])}
    assert_tables_match(gate, lambda v: want.get(v, v), (3, 4), "CYCLE")
    for v in itertools.product(range(3), range(4)):
        out = apply(SparseState.basis(layout, {"a": v[0], "b": v[1]}), gate)
        assert sole_tuple(out) == want.get(v, v)
    # leftover destinations fold back onto leftover sources in ascending order
    fold = gates.pairing_permutation([(0, 0), (0, 1)], [(1, 1), (1, 0)], ("a", "b"))
    folded = {(0, 0): (1, 1), (0, 1): (1, 0), (1, 0): (0, 0), (1, 1): (0, 1)}
    assert_tables_match(fold, lambda v: folded.get(v, v), (3, 4), "PAIR")


@pytest.mark.parametrize("src, dst, regs", [
    ([1, 2], [3], "r"),
    ([1, 1], [2, 3], "r"),
    ([1, 2], [3, 3], "r"),
    ([(0, 1), (1, 0)], [(1, 1)], ("a", "b")),
    ([(0, 1), (0, 1)], [(1, 1), (1, 0)], ("a", "b")),
    ([(0, 1), (1, 0)], [(1, 1), (1, 1)], ("a", "b")),
])
def test_pairing_refusals(src, dst, regs):
    with pytest.raises(DomainError, match="equal length|repeat"):
        gates.pairing_permutation(src, dst, regs)


# the functions allowed to construct a Permutation: the two arithmetic
# builders, the one relabeling builder, the register swap, U_OR (one XOR on
# the register column, its own inverse) and the adjoint
PERMUTATION_BUILDERS = {"gates._accumulate", "gates._scale", "gates.swap_regs",
                        "gates.pairing_permutation", "mq_circuits.u_or", "hilbert.adjoint"}


def _scoped_nodes(path):
    """(qualified enclosing function or class, node, parent) for each node of `path`."""
    def visit(node, scope, parent):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        yield scope, node, parent
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope, node)

    return visit(ast.parse(path.read_text()), path.stem, None)


def _permutation_callers(path):
    """Qualified names of the functions in `path` that call Permutation(...)."""
    return {scope for scope, node, _ in _scoped_nodes(path) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Permutation"}


def test_only_the_builders_construct_permutations():
    # a basis relabeling belongs in gates.pairing_permutation, not in a new
    # hand-written fn/inv pair
    src = Path(cycsim.__file__).parent
    callers = set().union(*(_permutation_callers(path) for path in src.glob("*.py")))
    assert callers == PERMUTATION_BUILDERS


def _map_readers(path):
    """(qualified function, called) for each read of an `fn` or `inv`
    attribute in `path`: called when the read is the function of a call."""
    return {(scope, isinstance(parent, ast.Call) and node is parent.func)
            for scope, node, parent in _scoped_nodes(path)
            if isinstance(node, ast.Attribute) and node.attr in ("fn", "inv")}


def test_only_the_evaluator_calls_a_permutation_map():
    # every map a permutation applies goes through hilbert._evaluate, which
    # checks each image; the adjoint only swaps the two maps
    src = Path(cycsim.__file__).parent
    readers = set().union(*(_map_readers(path) for path in src.glob("*.py")))
    assert readers == {("hilbert._evaluate", True), ("hilbert.adjoint", False)}


def _controlled_tests(path):
    """Qualified names of the functions in `path` that ask isinstance(..., Controlled)."""
    return {scope for scope, node, _ in _scoped_nodes(path) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and "Controlled" in _names(node.args[1])}


def test_only_the_dispatcher_applies_a_controlled_gate():
    # every gate kind is applied in one place, hilbert._apply_arrays; only
    # the chain's step builder and the adjoint also look inside a control
    src = Path(cycsim.__file__).parent
    askers = set().union(*(_controlled_tests(path) for path in src.glob("*.py")))
    assert askers == {"hilbert._apply_arrays", "hilbert._chain_step", "hilbert.adjoint"}


# the digit reads of permutations and of the kernel: numpy's remainder by a
# scalar costs several times a shift, a mask or a floor division, so these
# bodies use none
DIGIT_READERS = ("_run_value", "_digit", "_encode", "_recode", "_apply_local", "_kept_cells",
                 "_apply_pair", "_evaluate")


def test_digit_readers_use_no_remainder():
    tree = ast.parse(Path(hilbert.__file__).read_text())
    bodies = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in DIGIT_READERS:
        for node in ast.walk(bodies[name]):
            assert not isinstance(getattr(node, "op", None), ast.Mod), (name, node.lineno)
            assert getattr(node, "attr", getattr(node, "id", None)) not in (
                "remainder", "mod", "divmod", "fmod"), (name, node.lineno)


# u_log is the paper's log map |g**s> -> |s> as one gate: acceptance criterion
# 2 tests it, while a run walks the same kit stage by stage for its diagnostics
UNREACHED_BY_A_RUN = {"dlog_pipeline.u_log"}

# properties whose name another src class holds as a field or attribute: a
# read of the name may be that field's, so each counts as reached only here
SHARED_NAMES = {
    "hilbert.SparseState.entries": "the {basis tuple: amplitude} read-out of a state that the "
                                   "README documents; PipelineTrace and _Instance hold fields "
                                   "of the same name",
}


def _names(tree):
    """Every name a tree uses as a Name or an Attribute (docstrings excluded)."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _attributes(tree, called: bool = False):
    """Every name a tree reads as an attribute, x.name, or with `called` only
    those it calls, x.name(...)."""
    nodes = ast.walk(tree)
    if called:
        nodes = (n.func for n in nodes if isinstance(n, ast.Call))
    return {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def _held(cls):
    """The names a class holds as fields or attributes: assigned or annotated
    in its body, or assigned to self.<name> in a method."""
    targets = [t for n in cls.body for t in (
        n.targets if isinstance(n, ast.Assign) else [n.target] if isinstance(n, ast.AnnAssign)
        else [])]
    return {t.id for t in targets if isinstance(t, ast.Name)} | {
        n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Store) and getattr(n.value, "id", None) == "self"}


def _public_definitions():
    """The public definitions of src, top-level ("module.name") and methods
    ("module.Class.name"), each with its name and, per name, the definitions
    that reach it; and the names perfbench uses.

    A top-level definition is reached by a use of its name, a method by an
    attribute read x.name.  Where another src class holds the method's name
    as a field or attribute (other than one a src base class of its own
    holds, which it overrides), a read may be that field's: a plain method
    is then reached by calls x.name(...) alone, and a property by nothing.
    What a method's body uses counts as the method's own, and the rest of a
    class as the class's."""
    src = Path(cycsim.__file__).parent
    bench = set().union(*(_names(ast.parse(path.read_text()))
                          for path in (Path(__file__).parents[1] / "perfbench").rglob("*.py")))
    nodes = [(path.stem, node) for path in src.glob("*.py")
             for node in ast.parse(path.read_text()).body]
    classes = {node.name: node for _, node in nodes if isinstance(node, ast.ClassDef)}

    def inherited(cls, name):
        return any(name in _held(classes[b.id]) or inherited(classes[b.id], name)
                   for b in cls.bases if getattr(b, "id", None) in classes)

    defs, reach = [], {"name": {}, "read": {}, "call": {}}
    for stem, node in nodes:
        owner = f"{stem}.{getattr(node, 'name', '')}"
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            defs.append((owner, node.name, reach["name"]))
        parts = [(owner, node)]
        if isinstance(node, ast.ClassDef):
            parts = [(owner if not isinstance(n, ast.FunctionDef) else f"{owner}.{n.name}", n)
                     for n in node.body]
            for n in node.body:
                if not isinstance(n, ast.FunctionDef) or n.name[0] == "_":
                    continue
                prop = any(getattr(d, "id", None) in ("property", "cached_property")
                           for d in n.decorator_list)
                if inherited(node, n.name) or not any(
                        n.name in _held(cls) for cls in classes.values() if cls is not node):
                    reached_by = reach["read"]
                else:
                    reached_by = {} if prop else reach["call"]
                defs.append((f"{owner}.{n.name}", n.name, reached_by))
        for part, tree in parts:
            for by, names in (("name", _names(tree)), ("read", _attributes(tree)),
                              ("call", _attributes(tree, called=True))):
                for name in names:
                    reach[by].setdefault(name, set()).add(part)
    return defs, bench


def _unreached(methods: bool, listed=SHARED_NAMES) -> set[str]:
    defs, bench = _public_definitions()
    # a definition's own body (for a class, its methods too) does not reach it
    return {owner for owner, name, reached_by in defs if (owner.count(".") == 2) == methods
            and name not in bench and owner not in listed and all(
                user == owner or user.startswith(owner + ".")
                for user in reached_by.get(name, ()))}


def _orphans() -> set[str]:
    """The private top-level functions and classes of src that no other
    top-level statement of src names, and the imports their own module never
    uses (`from __future__` aside), each as "module.name"."""
    src = Path(cycsim.__file__).parent
    named = [(path.stem, node, _names(node)) for path in src.glob("*.py")
             for node in ast.parse(path.read_text()).body]
    orphans = set()
    for stem, node, _ in named:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound, scope = [node.name] if node.name[0] == "_" else [], None
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound = [] if getattr(node, "module", None) == "__future__" else [
                a.asname or a.name.split(".")[0] for a in node.names]
            scope = stem  # an import serves its own module
        else:
            continue
        orphans |= {f"{stem}.{name}" for name in bound if not any(
            name in names for at, other, names in named
            if other is not node and scope in (None, at))}
    return orphans


def test_no_private_helper_or_import_is_left_unused():
    # a helper or an import whose last user goes, goes with it
    assert _orphans() == set()


def test_every_public_definition_is_reached_outside_the_tests():
    # test-only API belongs in tests/references.py: each public top-level
    # function or class is named by another src definition or by perfbench
    assert _unreached(methods=False) == UNREACHED_BY_A_RUN


def test_every_public_method_is_called_outside_the_tests():
    # the same for methods, matched by the calls of their name, and
    # properties, by its reads: one that only the tests reach becomes a
    # function of tests/references.py.  A property whose name another class
    # holds as a field is reached only by a listing in SHARED_NAMES, which
    # lists nothing else
    assert _unreached(methods=True) == set()
    assert _unreached(methods=True, listed=()) == set(SHARED_NAMES)
