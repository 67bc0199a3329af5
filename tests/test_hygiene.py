import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import fracdim

MODULES = sorted(p for p in Path(fracdim.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that nothing else in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names listed in __all__ count as used: the module re-exports them
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import json\nimport math\nmath.pi\n") == ["json (line 1)"]
    assert unused_imports("from __future__ import annotations\nfrom x import y as z\nz()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def callers_of(source: str, target: str) -> list[str]:
    """Innermost function around each call to target, a dotted name; "<module>" outside any."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) == target:
                found.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_each_caller():
    source = "import sys\nsys.exit(1)\ndef f():\n    def g(): sys.exit(2)\n    sys.exit(3)\n"
    assert callers_of(source, "sys.exit") == ["<module>", "g", "f"]


def test_cli_exits_from_one_function():
    # the exit-code policy lives in one place, the command group's main
    callers = callers_of((Path(fracdim.__file__).parent / "cli.py").read_text(), "sys.exit")
    assert len(set(callers)) == 1, callers


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level _names (def, class or assignment) that no module reads.

    A name read only inside its own definition, as by a recursive call,
    counts as unread.  Dunder names are left out.
    """
    defined, read = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                own = set()
            for name in own:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}:{node.lineno}"
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    seen = n.id
                elif isinstance(n, ast.Attribute):
                    seen = n.attr
                else:
                    continue
                if seen not in own:
                    read.add(seen)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in read)


def test_scan_finds_an_unread_private_name():
    sources = {
        "a.py": "def _f(): pass\ndef _g(n): return _g(n - 1)\n_h = 1\nclass _K: pass\n__all__ = []\n",
        "b.py": "from a import _h\nx = _h\n",
    }
    assert unread_private_names(sources) == ["_K (a.py:4)", "_f (a.py:1)", "_g (a.py:2)"]
    assert unread_private_names({"c.py": "_x = 1\ndef f(): return m._x\n"}) == []


def test_no_unread_private_helpers():
    package = Path(fracdim.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unread_private_names(sources) == []


LIBRARY = ["errors", "functions", "bernstein", "fif", "dimension", "pipeline"]
# names the package exported before it re-exported each __all__; none may be dropped
PINNED_EXPORTS = {
    "errors": "BetaRangeError CollinearDataError ConditionError ConvergenceError DegenerateDenominatorError "
              "DomainError FracdimError HypothesisError ScaleError",
    "functions": "AntiDerivative Func GridFunction Partition Polynomial Scaled Shifted Sum WeierstrassSeries "
                 "func_from_json func_to_json lipschitz_estimate sample sup_norm_diff write_xy_csv",
    "bernstein": "BernsteinFunc BernsteinPoly bernstein_build bernstein_derivative_eval bernstein_eval "
                 "modulus_smoothness totik_error_report",
    "fif": "AffineBranch AlphaFractalBranch FifFunction FifSpec affine_branch_coeffs affine_map_params chaos_game "
           "make_affine_spec make_alpha_fractal_spec rb_apply self_ref_residual solve_fixed_point spec_from_json "
           "spec_to_json",
    "dimension": "DataSet DimReport box_count collinear dimension_equation_root estimate_box_dim "
                 "hausdorff_condition predict_box_dim predict_hausdorff_dim",
    "pipeline": "Anchor ExtensionDomain dense_approximant derivative_dim_approximant dim_preserving_sequence "
                "extend_function hausdorff_preserving_sequence lipschitz_invariance_check make_anchor",
}


def test_package_exports_each_module_all():
    # each library module's __all__ is the one list of its public names; the package re-exports them
    lists = [importlib.import_module(f"fracdim.{name}").__all__ for name in LIBRARY]
    listed = [name for names in lists for name in names]
    assert len(listed) == len(set(listed)), "a name is in two modules' __all__"
    public = {name for name, value in vars(fracdim).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(listed)


@pytest.mark.parametrize("module", LIBRARY)
def test_pinned_exports_are_the_module_objects(module):
    mod = importlib.import_module(f"fracdim.{module}")
    for name in PINNED_EXPORTS[module].split():
        assert getattr(fracdim, name) is getattr(mod, name), name


README_PYTHON = re.findall(r"```python\n(.*?)```", (Path(__file__).resolve().parents[1] / "README.md").read_text(), re.S)


@pytest.mark.parametrize("block", README_PYTHON)
def test_readme_python_blocks_run(tmp_path, block):
    # each block runs in a fresh interpreter, so a name removed from the package fails here
    src = str(Path(fracdim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
