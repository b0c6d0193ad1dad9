"""Package-wide rules read from the source: internal contracts are raised
errors, never asserts (which python -O removes), the Smith form of a
presentation is computed in one place, one row reduction serves Z, Q and
F_p with one back-substitution, what every engine shares is written
once in category.py, and no cache outlives the theory that one command
builds."""

import ast
from pathlib import Path

import serreq
from serreq.linalg import MAX_INPUT_SIZE, Mat

SOURCES = sorted(Path(serreq.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _calls(tree, names, scope=()):
    """(enclosing Class.function path, callee) for each call of a name in
    `names`, whether called bare or as an attribute."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(node, names, scope + (node.name,))
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                yield ".".join(scope), name
        yield from _calls(node, names, scope)


def test_smith_form_has_one_caller_outside_linalg():
    found = [(path.name, where, name)
             for path in SOURCES if path.name != "linalg.py"
             for where, name in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                       {"smith", "presentation_normal_form"})]
    assert found == [("zmodules.py", "ZObj.normal_form_data", "presentation_normal_form")]


def _swaps_rows(loop):
    """Whether a loop body exchanges two entries of one list, x[i], x[j] =
    x[j], x[i]: the row swap of a pivot search."""
    for node in ast.walk(loop):
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.value, ast.Tuple)):
            targets, values = node.targets[0].elts, node.value.elts
            if (len(targets) == 2 and all(isinstance(t, ast.Subscript) for t in targets)
                    and [ast.unparse(v) for v in values]
                    == [ast.unparse(t) for t in reversed(targets)]):
                return True
    return False


def test_one_integer_row_reduction():
    functions = {node.name: node for node in _tree("linalg.py").body
                 if isinstance(node, ast.FunctionDef)}
    for name in ("smith", "row_echelon", "f_rref"):
        assert [callee for _, callee in _calls(functions[name], {"_hermite"})], name
    assert [node.name for node in ast.walk(functions["smith"])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))] == ["smith"]
    # one back-substitution: both solvers call the same private function
    solvers = [{callee for _, callee in _calls(functions[name], set(functions))
                if callee.startswith("_")} for name in ("int_solve", "f_solve")]
    assert solvers[0] == solvers[1] and len(solvers[0]) == 1
    # and one pivot loop in the module
    assert [name for name, node in functions.items()
            if any(isinstance(loop, (ast.For, ast.While)) and _swaps_rows(loop)
                   for loop in ast.walk(node))] == ["_hermite"]


def _tree(name):
    return ast.parse(next(p for p in SOURCES if p.name == name).read_text(encoding="utf-8"))


def _class_defs(tree):
    """{class name: the names its body defines or assigns}."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            out[node.name] = ({n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                              | {t.id for n in node.body if isinstance(n, ast.Assign)
                                 for t in n.targets if isinstance(t, ast.Name)})
    return out


def test_engines_define_only_what_differs():
    shared = {"lift_along_mono", "colift_along_epi", "random_morphism", "_same_endpoints",
              # the morphism record: construction, arithmetic and codecs
              "mor", "identity", "zero_morphism", "compose", "add", "sub", "scale",
              "_hom_vector", "_mor_from_vector", "mor_to_payload", "mor_between"}
    found = [(name, node.name) for name in ("zmodules.py", "quiver.py")
             for node in ast.walk(_tree(name))
             if isinstance(node, ast.FunctionDef) and node.name in shared]
    assert found == []
    classes = _class_defs(_tree("category.py"))
    assert shared <= classes["AbelianEngine"]
    for carrier in ("ZHomGroup", "FieldHomGroup"):
        assert classes[carrier] & {"decode", "encode", "ngens"} == set()
    engines = {**_class_defs(_tree("zmodules.py")), **_class_defs(_tree("quiver.py"))}
    for engine in ("ZModuleEngine", "A2Engine"):
        assert {"dims", "map_keys"} <= engines[engine], engine
        assert "_obj_sum" not in engines[engine], engine
    assert "direct_sum" not in classes["AbelianEngine"]
    # every Hom and Ext constraint matrix is a Kronecker product on
    # row-by-row flattened matrices, not an index loop of its own
    builders = {(name, where) for name in ("zmodules.py", "quiver.py")
                for where, _ in _calls(_tree(name), {"kron"})}
    assert builders == {("zmodules.py", "ZModuleEngine._hom_modulus"),
                        ("zmodules.py", "ZModuleEngine.hom_group"),
                        ("zmodules.py", "ZModuleEngine.ext1_group"),
                        ("quiver.py", "A2Engine._constraint_matrix")}
    # one morphism record: besides category.Mor, only the quotient
    # morphism (whose representative is a Mor) is a record with endpoints
    records = [(path.name, node.name) for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)
               and {"src", "dst"} <= {n.target.id for n in node.body
                                      if isinstance(n, ast.AnnAssign)}]
    assert records == [("category.py", "Mor"), ("serre.py", "QuotientMorphism")]


def test_no_hom_carrier_kind():
    classes = _class_defs(_tree("category.py"))
    assert [c for c in ("ZGroup", "VectorSpace", "HomBasis", "ZHomGroup", "FieldHomGroup")
            if "kind" in classes[c]] == []
    reads = [node.lineno for node in ast.walk(_tree("category.py"))
             if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert reads == []


def _attribute_stores(tree, attr, scope=()):
    """Enclosing Class.function path of each assignment to some `x.attr`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _attribute_stores(node, attr, scope + (node.name,))
            continue
        if (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.ctx, ast.Store)):
            yield ".".join(scope)
        yield from _attribute_stores(node, attr, scope)


def test_one_theory_contract():
    """session.THEORIES is the one list of theories, so cli.py and
    session.py name no kind; the reflection memo and the samplers are
    written once, in category.TorsionTheory."""
    from serreq.quiver import SinkSupportTheory
    from serreq.session import THEORIES
    from serreq.zmodules import FixtureTheory, PPrimaryTheory

    kinds = {"finite_abelian", "a2_rep", "fixture"}
    assert THEORIES == {"finite_abelian": PPrimaryTheory, "a2_rep": SinkSupportTheory,
                        "fixture": FixtureTheory}
    named = [(name, node.lineno) for name in ("cli.py", "session.py")
             for node in ast.walk(_tree(name))
             if isinstance(node, ast.Constant) and node.value in kinds]
    assert named == []
    assert [(path.name, where) for path in SOURCES
            for where in _attribute_stores(ast.parse(path.read_text(encoding="utf-8")),
                                           "_reflections")] \
        == [("category.py", "TorsionTheory.__init__")]
    assert [(path.name, where) for path in SOURCES
            for where, _ in _written(ast.parse(path.read_text(encoding="utf-8")),
                                     {"_reflections"})] \
        == [("category.py", "TorsionTheory.saturate")]
    functions = {node.name: {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                 for name in ("zmodules.py", "quiver.py") for node in ast.walk(_tree(name))
                 if isinstance(node, ast.ClassDef)}
    for name in ("ZTorsionTheory", "PPrimaryTheory", "FixtureTheory", "SinkSupportTheory"):
        assert functions[name] & {"saturate", "random_object", "random_ses"} == set(), name


_CONTAINERS = (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "set", "defaultdict", "OrderedDict",
                    "WeakKeyDictionary", "WeakValueDictionary"}
_WRITERS = {"setdefault", "update", "add", "__setitem__"}


def _shared_containers(tree):
    """Names bound to a dict or set in a module or class body."""
    bodies = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    out = set()
    for body in bodies:
        for node in body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Call):
                func = value.func
                value = (func.id if isinstance(func, ast.Name)
                         else getattr(func, "attr", None)) in _CONTAINER_CALLS
            if value is True or isinstance(value, _CONTAINERS):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def _written(node, names, scope=()):
    """(enclosing Class.function path, name) for each store into a container
    called by a name in `names`, bare or as an attribute (self.x, cls.x)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _written(child, names, scope + (child.name,))
            continue
        target = None
        if isinstance(child, ast.Subscript) and isinstance(child.ctx, ast.Store):
            target = child.value
        elif isinstance(child, ast.AugAssign):
            target = child.target
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
              and child.func.attr in _WRITERS):
            target = child.func.value
        name = (target.id if isinstance(target, ast.Name)
                else getattr(target, "attr", None))
        if name in names:
            yield ".".join(scope), name
        yield from _written(child, names, scope)


def test_no_cache_outlives_one_command():
    """Every cache lives on an instance (a theory, an object) that one
    command builds, except the bounded identity table of Mat.identity."""
    decorators, writes = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                decorators += [(path.name, a.name) for a in node.names
                               if a.name in {"cache", "lru_cache"}]
            if (isinstance(node, ast.Attribute) and node.attr in {"cache", "lru_cache"}
                    and getattr(node.value, "id", None) == "functools"):
                decorators.append((path.name, node.attr))
        writes += [(path.name, where, name)
                   for where, name in _written(tree, _shared_containers(tree))]
    assert decorators == []
    assert writes == [("linalg.py", "Mat.identity", "_IDENTITIES")]


def test_echelon_memo_lives_on_the_engine():
    """QQ is a module singleton that outlives a command, so the echelon
    memo is kept on each engine a command builds, never on the field."""
    from serreq.linalg import QQ
    from serreq.session import theory_from_descriptor

    first, second = (theory_from_descriptor({"kind": "a2_rep", "field": "q"})
                     for _ in range(2))
    assert first.field is QQ and second.field is QQ
    assert isinstance(first.engine._echelons, dict)
    assert first.engine._echelons is not second.engine._echelons
    assert not hasattr(QQ, "_echelons")


def test_identity_table_is_bounded():
    assert Mat.identity(3) is Mat.identity(3)
    assert Mat.identity(MAX_INPUT_SIZE) is Mat.identity(MAX_INPUT_SIZE)
    big = Mat.identity(MAX_INPUT_SIZE + 1)
    assert big is not Mat.identity(MAX_INPUT_SIZE + 1)
    assert big == Mat.identity(MAX_INPUT_SIZE + 1)
    assert big.data[MAX_INPUT_SIZE] == (0,) * MAX_INPUT_SIZE + (1,)


def test_subgroup_enumeration_is_independent_of_linalg():
    """The direct-limit oracle checks the HNF and Smith code, so the
    enumeration of subgroups it rests on uses none of linalg."""
    linalg = {node.name for node in _tree("linalg.py").body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"_hermite", "row_echelon", "smith", "row_basis",
            "presentation_normal_form", "Mat"} <= linalg
    helper = next(node for node in _tree("zmodules.py").body
                  if isinstance(node, ast.FunctionDef) and node.name == "_subgroup_masks")
    assert [a.arg for a in helper.args.args] == ["divisors"]
    assert list(_calls(helper, linalg)) == []
    callers = {where for where, _ in _calls(_tree("zmodules.py"), {"_subgroup_masks"})}
    assert callers == {"finite_subobject_embeddings"}
