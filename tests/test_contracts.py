"""Package-wide rules read from the source: internal contracts are raised
errors, never asserts (which python -O removes), the Smith form of a
presentation is computed in one place, one row reduction serves Z, Q and
F_p with one back-substitution, what every engine shares is written
once in category.py, linalg holds pure kernels that know no engine,
every cache is a category.Memo, no cache outlives the theory that
one command builds, cli.main alone builds and writes reports, the
rings own the one matrix arithmetic, and a candidate tag is resolved
where it comes in."""

import ast
import gc
import inspect
import weakref
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


def test_one_report_path():
    """Commands return their report's parts and text lines, and cli.main
    alone builds the report, writes it and then prints, so no command
    grows a report path of its own."""
    found = sorted((path.name, where, name)
                   for path in SOURCES
                   for where, name in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                             {"build_document", "_emit"}))
    assert found == [("cli.py", "main", "_emit"), ("cli.py", "main", "build_document")]


def _scoped(tree, scope=()):
    """(enclosing Class.function path, node) for every node of the tree."""
    for node in ast.iter_child_nodes(tree):
        yield ".".join(scope), node
        inner = scope + (node.name,) if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _scoped(node, inner)


def _writes_normal_form(node):
    """Whether a node stores an object's normal_form_data: by setdefault,
    __setitem__ or setattr with that key, by item assignment or by
    attribute assignment."""
    key = "normal_form_data"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in {"setdefault", "__setitem__", "setattr"} and any(
            isinstance(a, ast.Constant) and a.value == key for a in node.args)
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        return isinstance(node.slice, ast.Constant) and node.slice.value == key
    return isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
        and node.attr == key


def test_one_normal_form_routine():
    """A Z object's normal form is obtained in ZObj.normal_form_data: only
    the sampler, which knows its transform, records one, and the
    divisor-chain tail runs only in smith and diagonal_normal_form."""
    chains = sorted((path.name, where) for path in SOURCES
                    for where, _ in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                           {"divisor_chain"}))
    assert chains == [("linalg.py", "diagonal_normal_form"), ("linalg.py", "smith")]
    writers = [(path.name, where) for path in SOURCES
               for where, node in _scoped(ast.parse(path.read_text(encoding="utf-8")))
               if _writes_normal_form(node)]
    assert writers == [("zmodules.py", "ZModuleEngine._scrambled_from_divisors")]
    assert [path.name for path in SOURCES
            if "obj_in_normal_form" in path.read_text(encoding="utf-8")] == []


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


def _combines_two_rows(node):
    """Whether a node is a list comprehension [a*s + b*t for s, t in
    zip(...)]: one row of a 2x2 transform of two rows."""
    if not (isinstance(node, ast.ListComp) and len(node.generators) == 1):
        return False
    elt, gen = node.elt, node.generators[0]
    return (isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Add)
            and all(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                    for side in (elt.left, elt.right))
            and isinstance(gen.target, ast.Tuple) and len(gen.target.elts) == 2
            and isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None) == "zip")


def test_one_integer_row_reduction():
    """_hermite reduces whole rows, so a transform rides as their right
    block and only the inverse transpose is a second list; the row
    echelon forms over Z and over a field share one body; its column
    loop is Euclidean and takes no gcd step; and the 2x2 gcd step and its
    inverse transpose are written once, in divisor_chain."""
    tree = _tree("linalg.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert [a.arg for a in functions["_hermite"].args.args] == ["ring", "h", "ncols", "inv"]
    for name in ("row_echelon", "f_rref"):
        assert [callee for _, callee in _calls(functions[name], {"_echelon"})], name
    assert {where for where, _ in _calls(_tree("linalg.py"), {"_hermite"})} \
        == {"_echelon", "smith"}
    # _hermite calls neither _xgcd nor any other gcd step
    callees = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
               for node in ast.walk(functions["_hermite"]) if isinstance(node, ast.Call)}
    assert [c for c in callees if c and ("gcd" in c or "step" in c)] == []
    assert [name for name, node in functions.items()
            if any(map(_combines_two_rows, ast.walk(node)))] == ["divisor_chain"]
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and node.name == "_unimodular_step"] == []
    assert [node.name for node in ast.walk(functions["smith"])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))] == ["smith"]
    # one back-substitution: linalg's standalone integer solve and the
    # engines' memoized solve call the same private function, and no other
    assert {callee for _, callee in _calls(functions["int_solve"], set(functions))
            if callee.startswith("_")} == {"_solve"}
    assert {where for where, _ in _calls(_tree("category.py"), {"_solve"})} \
        == {"AbelianEngine.solve"}
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
              "_hom_vector", "_mor_from_vector", "mor_to_payload", "mor_between",
              # the matrix kernels around the echelon memo (ZObj.rank is
              # the free rank of an object, so rank is not listed)
              "rref", "kernel", "solve", "inv"}
    found = [(name, node.name) for name in ("zmodules.py", "quiver.py")
             for node in ast.walk(_tree(name))
             if isinstance(node, ast.FunctionDef) and node.name in shared]
    assert found == []
    classes = _class_defs(_tree("category.py"))
    assert shared <= classes["AbelianEngine"]
    engines = {**_class_defs(_tree("zmodules.py")), **_class_defs(_tree("quiver.py"))}
    for carrier in ("ZHomGroup", "FieldHomGroup"):
        assert engines[carrier] & {"decode", "encode", "ngens"} == set()
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
    classes = {name: defs for module in ("category.py", "zmodules.py", "quiver.py")
               for name, defs in _class_defs(_tree(module)).items()}
    assert [c for c in ("ZGroup", "VectorSpace", "HomBasis", "ZHomGroup", "FieldHomGroup")
            if "kind" in classes[c]] == []
    reads = [node.lineno for node in ast.walk(_tree("category.py"))
             if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert reads == []


def test_category_knows_no_engine():
    """category.py keeps what every engine shares, the Hom-basis codec
    among it; each engine's Hom and Ext carriers live in its module, and
    the brute-force element lists live in the tests (tests/brute_force.py)."""
    tree = _tree("category.py")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert defined & {"ZGroup", "VectorSpace", "ZHomGroup", "FieldHomGroup"} == set()
    imported = {node.module: sorted(a.name for a in node.names) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert imported["linalg"] == ["MAX_INPUT_SIZE", "Mat", "_solve", "unflatten"]
    assert "itertools" not in imported and "cached_property" not in imported.get("functools", [])
    enumerators = [(path.name, node.name) for path in SOURCES
                   for node in ast.walk(_tree(path.name)) if isinstance(node, ast.FunctionDef)
                   and node.name in {"enumerate_elements", "presentation_enumerate"}]
    assert enumerators == []
    solvers = sorted(name for path in SOURCES
                     for name, defs in _class_defs(_tree(path.name)).items()
                     if "_solve_coeffs" in defs)
    assert solvers == ["HomBasis", "ZHomGroup"]


def _attribute_uses(tree, attr, ctx=ast.Store, scope=()):
    """Enclosing Class.function path of each assignment to some `x.attr`,
    or of each read of it with ctx=ast.Load."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _attribute_uses(node, attr, ctx, scope + (node.name,))
            continue
        if (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.ctx, ctx)):
            yield ".".join(scope)
        yield from _attribute_uses(node, attr, ctx, scope)


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
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert [(name, where) for name, tree in trees.items()
            for where in _attribute_uses(tree, "_reflections")] \
        == [("category.py", "TorsionTheory.__init__")]
    assert [(name, where) for name, tree in trees.items()
            for where in _attribute_uses(tree, "_reflections", ast.Load)] \
        == [("category.py", "TorsionTheory.saturate")]
    assert [ast.unparse(node.func) for node in ast.walk(trees["category.py"])
            if isinstance(node, ast.Call) and "_reflections" in ast.unparse(node.func)] \
        == ["self._reflections.get_or"]
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


def _instance_caches(tree, scope=()):
    """(enclosing Class.function path, attribute, what is assigned) for each
    assignment of a dict, a set or a Memo to some `x.attribute`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _instance_caches(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Assign):
            value = node.value
            made = ast.unparse(value.func) if isinstance(value, ast.Call) else None
            if isinstance(value, _CONTAINERS) or made in _CONTAINER_CALLS | {"Memo"}:
                yield from ((".".join(scope), t.attr, ast.unparse(value))
                            for t in node.targets if isinstance(t, ast.Attribute))
        yield from _instance_caches(node, scope)


def test_every_cache_is_one_memo():
    """Each engine and theory cache is a category.Memo made in an
    __init__, and it is filled only by calling it: no sentinel, no store
    of its own."""
    caches = {(path.name, where, attr, made) for path in SOURCES
              for where, attr, made in _instance_caches(
                  ast.parse(path.read_text(encoding="utf-8")))}
    assert caches == {("category.py", "AbelianEngine.__init__", "_echelons", "Memo()"),
                      ("category.py", "AbelianEngine.__init__", "_solutions", "Memo()"),
                      ("category.py", "AbelianEngine.__init__", "_inverses", "Memo()"),
                      ("category.py", "TorsionTheory.__init__", "_reflections", "Memo()"),
                      ("zmodules.py", "ZModuleEngine.__init__", "_objects", "Memo()")}
    names = {attr for _, _, attr, _ in caches}
    assert [(path.name, where, name) for path in SOURCES
            for where, name in _written(ast.parse(path.read_text(encoding="utf-8")),
                                        names)] == []
    assert [path.name for path in SOURCES
            if "_MISS" in path.read_text(encoding="utf-8")] == []


def test_linalg_knows_no_engine():
    """The lattice operations live on the integer engine, over its memoized
    rref, kernel and solve; linalg keeps only pure kernels, none of which
    takes an echelon to call in place of its own."""
    functions = [node for node in ast.walk(_tree("linalg.py"))
                 if isinstance(node, ast.FunctionDef)]
    assert [f.name for f in functions
            if "echelon" in {a.arg for a in f.args.args + f.args.kwonlyargs}] == ["_solve"]
    assert {f.name for f in functions} & {"int_kernel", "row_basis", "kernel_mod_rows",
                                          "solve_mod_rows", "f_solve"} == set()
    engines = _class_defs(_tree("zmodules.py"))
    assert {"row_basis", "kernel_mod_rows", "solve_mod_rows"} <= engines["ZModuleEngine"]


def test_no_memo_keeps_its_owner_alive():
    """A memo that stored a bound method of its owner would make a cycle
    that only the cyclic collector frees, so every command's engine and
    theory would outlive it; reference counting alone must free them."""
    from serreq import serre, session

    descriptors = [{"kind": "finite_abelian", "p": 2}, {"kind": "a2_rep", "field": "q"},
                   {"kind": "fixture", "p": 0}]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for desc in descriptors:
            theory = session.theory_from_descriptor(desc)
            refs = weakref.ref(theory), weakref.ref(theory.engine)
            serre.run_suite(theory, "all", 1, 3)
            del theory
            assert [ref() for ref in refs] == [None, None], desc
    finally:
        if enabled:
            gc.enable()


def test_echelon_memo_lives_on_the_engine():
    """QQ is a module singleton that outlives a command, so the echelon,
    solution and inverse memos are kept on each engine a command builds,
    never on the field."""
    from serreq.linalg import QQ
    from serreq.session import theory_from_descriptor

    first, second = (theory_from_descriptor({"kind": "a2_rep", "field": "q"})
                     for _ in range(2))
    assert first.field is QQ and second.field is QQ
    for memo in ("_echelons", "_solutions", "_inverses"):
        assert isinstance(getattr(first.engine, memo), dict)
        assert getattr(first.engine, memo) is not getattr(second.engine, memo)
        assert not hasattr(QQ, memo)


def test_z_memos_live_on_the_engine():
    """ZZ is a module singleton too, so the integer engines keep their
    echelon, solution and inverse memos and their one object per relation
    matrix on each engine a command builds."""
    from serreq.linalg import ZZ
    from serreq.session import theory_from_descriptor
    from serreq.zmodules import ZModuleEngine

    for kind in ("finite_abelian", "fixture"):
        first, second = (theory_from_descriptor({"kind": kind, "p": 2}) for _ in range(2))
        assert first.engine.ring is ZZ and second.engine.ring is ZZ
        for memo in ("_echelons", "_solutions", "_inverses", "_objects"):
            assert isinstance(getattr(first.engine, memo), dict)
            assert getattr(first.engine, memo) is not getattr(second.engine, memo)
            assert not hasattr(ZZ, memo) and not hasattr(ZModuleEngine, memo)


def test_one_matrix_arithmetic():
    """A Mat is a plain value with no arithmetic of its own, and ZZ, QQ
    and every PrimeField inherit mul, add, sub and scale from one base,
    so no code builds a matrix without naming the ring of its entries."""
    from serreq.linalg import IntegerRing, PrimeField, RationalField

    ops = {"mul", "add", "sub", "scale"}
    assert ops & set(dir(Mat)) == set()
    rings = (IntegerRing, PrimeField, RationalField)
    assert [ops & set(vars(ring)) for ring in rings] == [set()] * len(rings)
    owners = {next(base for base in ring.__mro__ if op in vars(base))
              for ring in rings for op in ops}
    assert len(owners) == 1 and object not in owners


def test_identity_table_is_bounded():
    assert Mat.identity(3) is Mat.identity(3)
    assert Mat.identity(MAX_INPUT_SIZE) is Mat.identity(MAX_INPUT_SIZE)
    big = Mat.identity(MAX_INPUT_SIZE + 1)
    assert big is not Mat.identity(MAX_INPUT_SIZE + 1)
    assert big == Mat.identity(MAX_INPUT_SIZE + 1)
    assert big.data[MAX_INPUT_SIZE] == (0,) * MAX_INPUT_SIZE + (1,)


def test_subgroup_enumeration_is_independent_of_linalg():
    """The direct-limit oracle checks the HNF and Smith code, so the
    enumeration of subgroups it rests on uses none of linalg and none of
    the integer engine's lattice methods."""
    linalg = {node.name for node in _tree("linalg.py").body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"_hermite", "row_echelon", "smith", "kron",
            "presentation_normal_form", "Mat"} <= linalg
    helper = next(node for node in _tree("zmodules.py").body
                  if isinstance(node, ast.FunctionDef) and node.name == "_subgroup_masks")
    assert [a.arg for a in helper.args.args] == ["divisors"]
    lattice = {"rref", "kernel", "solve", "row_basis", "kernel_mod_rows", "solve_mod_rows"}
    assert list(_calls(helper, linalg | lattice)) == []
    callers = {where for where, _ in _calls(_tree("zmodules.py"), {"_subgroup_masks"})}
    assert callers == {"_finite_subgroups"}


def test_the_oracle_reads_no_z_orders():
    """ColimitHom takes its terminal stage from the theory, so serre.py,
    generic over theories, names none of the Z theory's order methods."""
    names = set()
    for node in ast.walk(_tree("serre.py")):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    assert "terminal_stage" in names
    assert names & {"order", "order_in_c", "subobject_embeddings"} == set()


def test_tags_are_resolved_where_they_come_in():
    """A candidate tag comes in by --candidate or in a witness document
    and is resolved there; the suites and replay take a Candidate value,
    so a candidate built in code needs no tag, and cli.py names none."""
    from serreq import cli, serre
    from serreq.session import THEORIES

    found = sorted((path.name, where) for path in SOURCES
                   for where, _ in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                          {"make_candidate"}))
    assert found == [("cli.py", "cmd_check"), ("serre.py", "run_suite"),
                     ("session.py", "replay_witness")]
    for fn in (serre.run_suite, serre.replay_check):
        assert [p for p in inspect.signature(fn).parameters if "tag" in p] == [], fn.__name__
    choices = cli.FLAGS["candidate"]["choices"]
    canonical = [cls.canonical_tag for cls in THEORIES.values()]
    assert len(choices) == len(set(choices))
    assert choices == list(serre.CANDIDATE_TAGS) + [
        t for t in dict.fromkeys(canonical) if t not in serre.CANDIDATE_TAGS]
    named = [node.lineno for node in ast.walk(_tree("cli.py"))
             if isinstance(node, ast.Constant) and node.value in choices]
    assert named == []


def test_quotient_hom_is_the_ambient_carrier():
    """Hom_{A/C}(M, N) is Hom(M, W(N)), so q_hom returns the engine's own
    carrier of (M, W(N)), with no quotient class around it."""
    from serreq.category import rng_for
    from serreq.linalg import PrimeField
    from serreq.quiver import SinkSupportTheory
    from serreq.serre import q_hom
    from serreq.zmodules import PPrimaryTheory

    tree = _tree("serre.py")
    assert "QHomGroup" not in _class_defs(tree)
    assert list(_attribute_uses(tree, "inner", ast.Load)) == []
    fa, a2 = PPrimaryTheory(2), SinkSupportTheory(PrimeField(101))
    rng = rng_for(35, "q-hom-carrier")
    v, u = a2.random_object(rng), a2.random_object(rng)
    cases = [(fa, fa.engine.cyclic(12), fa.engine.cyclic(9),
              {"kind": "Z", "rank": 0, "divisors": [3]}),
             (a2, v, u, {"kind": "field", "field": "F101", "dim": v.d2 * u.d2})]
    for th, m, n, described in cases:
        w = th.saturate(n)[0]
        qh = q_hom(th, m, n)
        assert isinstance(qh, type(th.engine.hom_group(m, w)))
        assert qh.src is m and qh.dst == w
        assert qh.describe() == described
