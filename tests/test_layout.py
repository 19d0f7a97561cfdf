"""Layout rules of the `ucalc` package, read from its source with `ast`.

1. No module imports a private `_name` from another ucalc module, except
   the entries of PRIVATE_IMPORTS, each with its reason.
2. Every public top-level name is reached from the command line: from
   the console script `ucalc.cli:main` (pyproject.toml) through a chain
   of references in the package.  A name reached only from tests is
   dead library code, except the entries of UNREACHED, which ROADMAP
   item 10 gives a seeded suite.
3. Every public method of a package class is used as an attribute
   somewhere in the package, except the entries of UNUSED_METHODS.  The
   scan matches attribute names, not receivers, so a name that some
   other object also has counts as used.
4. Every function that enumerates cells (`Ball.level_reps`,
   `ClopenRegion.level_points`) is on CELL_SCANS with its reason.  A scan
   grows as p^(d m) with the level m, so certification decides without
   one (`_image_in_ball`, `certify_omega`), and this keeps it so.

The allowlists are exact: an entry the source no longer needs fails the
test too, so a fix shortens the list.
"""

import ast
import os

import ucalc

SRC = os.path.dirname(ucalc.__file__)

# (importing module, defining module, name): why the import stays
PRIVATE_IMPORTS = {
    ("diffeo", "calculus", "_image_in_ball"): "perfbench/tracing.py wraps it by name in every importer",
    ("suites", "calculus", "_dqk_fr"): "perfbench/tracing.py wraps it by name in every importer",
    ("suites", "calculus", "_fr_point"): "the suite laws build quotient points as Fraction trees",
}

# ROADMAP item 10 gives these constructions seeded suites: the exponential
# law (curry), Diff_c(U), weak-product regrouping and cutoff.  The helpers
# and exceptions only they use come with them.
UNREACHED = {
    ("calculus", "curry"),
    ("calculus", "NotProductPartition"),
    ("diffeo", "CompactlySupportedEndo"),
    ("diffeo", "endo_compose"),
    ("diffeo", "diffc_membership"),
    ("diffeo", "DiffcDecision"),
    ("calculus", "identity_model"),
    ("calculus", "rescaled_chart"),
    ("weakprod", "regroup"),
    ("weakprod", "flatten"),
    ("weakprod", "relabel"),
    ("weakprod", "GroupedElement"),
    ("weakprod", "NotBijective"),
    ("balls", "cutoff"),
    ("balls", "NotContained"),
}

ENTRY = ("cli", "main")

# (class, method): why the method stays with no caller in the package
UNUSED_METHODS = {
    ("FunctionModel", "eval"): "the public value of a model at a PadicVector point, which the tests read",
}


# (module, dotted function name): why it enumerates cells
CELL_SCANS = {
    ("balls", "Ball.children"): "a ball's children are its cells one level down",
    ("balls", "ClopenRegion.level_points"): "a region's cells are the cells of its balls",
    ("balls", "subordinate_partition"): "reads the first uncovered cell as the error's witness",
    ("diffeo", "induced_level_map"): "the induced permutation maps cells; it evaluates each coarse cell once",
    ("suites", "_unity.law"): "the partition-of-unity law spot-checks at most 1500 cells",
    ("suites", "_inversion.law"): "the inversion law round-trips every cell at an affordable level",
}


def _modules():
    out = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                out[fname[:-3]] = ast.parse(fh.read())
    return out


def _definitions(tree):
    """Top-level name -> the statement that binds it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node
    return out


def _imports(tree):
    """Local name -> (module, name), name None for `from . import module`."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                out[local] = (alias.name, None) if node.module is None else (node.module, alias.name)
    return out


def test_no_private_name_is_imported_across_modules():
    found = set()
    for name, tree in _modules().items():
        for src, imported in _imports(tree).values():
            if imported is not None and imported.startswith("_"):
                found.add((name, src, imported))
    assert found == set(PRIVATE_IMPORTS)


def test_every_public_name_is_reached_from_the_command_line():
    mods = _modules()
    defs = {m: _definitions(t) for m, t in mods.items()}
    imps = {m: _imports(t) for m, t in mods.items()}

    def refs(m, node):
        """(module, name) of each package-level name the node mentions."""
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                if n.id in defs[m]:
                    out.add((m, n.id))
                elif n.id in imps[m] and imps[m][n.id][1] is not None:
                    out.add(imps[m][n.id])
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                src = imps[m].get(n.value.id)
                if src and src[1] is None:
                    out.add((src[0], n.attr))
        return out

    # module-level code outside definitions (the __main__ guard) runs too
    todo = [ENTRY]
    for m, tree in mods.items():
        for node in tree.body:
            if isinstance(node, ast.If):
                todo.extend(refs(m, node))
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached or key[1] not in defs.get(key[0], {}):
            continue
        reached.add(key)
        todo.extend(refs(key[0], defs[key[0]][key[1]]))
    unreached = {(m, n) for m in defs for n in defs[m] if not n.startswith("_") and (m, n) not in reached}
    assert unreached == UNREACHED


def test_every_public_method_is_used_in_the_package():
    mods = _modules()
    used = {n.attr for tree in mods.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unused = {
        (cls.name, item.name)
        for tree in mods.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_") and item.name not in used
    }
    assert unused == set(UNUSED_METHODS)


def test_cell_scans_are_on_the_allowlist():
    found = set()

    def visit(module, node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(module, child, path + (child.name,))
            else:
                if isinstance(child, ast.Attribute) and child.attr in ("level_reps", "level_points"):
                    found.add((module, ".".join(path)))
                visit(module, child, path)

    for name, tree in _modules().items():
        visit(name, tree, ())
    assert found == set(CELL_SCANS)
