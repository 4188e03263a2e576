"""Every name a module exports resolves: tools that walk ``__all__`` rely on it."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import reafuse

MODULES = ["reafuse"] + [f"reafuse.{m.name}" for m in pkgutil.iter_modules(reafuse.__path__)
                         if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    """Names a file imports but never reads; names in its ``__all__`` count as read."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, unused


def _group_order_divisions(path: Path) -> list[str]:
    """Floor divisions with a literal 4 operand outside ``config.quarter_turns``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = [range(f.lineno, f.end_lineno + 1) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "quarter_turns"
               and path.name == "config.py"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.FloorDiv):
            operands = (node.value,)
        else:
            continue
        if (any(isinstance(o, ast.Constant) and o.value == 4 for o in operands)
                and not any(node.lineno in lines for lines in allowed)):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


# where src may call rot90: the one statement of the group action, verify's
# reference rotation of the input image, and the gradcheck case of rot90 itself
PIXEL_TURNS = {("groupequiv.py", "_action_index"), ("harness.py", "_rotate")}


def _pixel_turns(path: Path) -> list[str]:
    """rot90 calls outside ``PIXEL_TURNS`` and the gradcheck case named for rot90."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and (path.name, node.name) in PIXEL_TURNS
               or isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple)
               and isinstance(node.value.elts[0], ast.Constant)
               and str(node.value.elts[0].value).startswith("rot90")]
    return [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "rot90" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
            and not any(node.lineno in lines for lines in allowed)]


def test_group_order_is_derived_in_one_place():
    # pixels rotate by 4/N quarter turns; only quarter_turns may work that out,
    # so that the check that N divides 4 cannot be skipped.  Only the places in
    # PIXEL_TURNS turn pixels, so feature maps, filters, banks and biases all
    # follow one statement of the action.  naive.py is the independent
    # reference and keeps its own copy of the rules; tensor.py defines rot90.
    files = sorted(p for p in (ROOT / "src").rglob("*.py") if p.name != "naive.py")
    assert any(p.name == "config.py" for p in files)
    found = [entry for path in files for entry in _group_order_divisions(path)]
    found += [entry for path in files if path.name != "tensor.py" for entry in _pixel_turns(path)]
    assert not found, found


CONTRACTIONS = {"tensordot", "einsum", "dot", "inner"}


def _contractions(path: Path) -> tuple[list[str], list[str]]:
    """(contractions outside ``tensor.conv2d``, matmuls inside it) in one file.

    A contraction is a ``tensordot``, ``einsum``, ``dot``, ``inner`` or
    ``matmul`` attribute (``np.dot``, ``a.dot``, ...) or an ``@`` operator.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = [range(f.lineno, f.end_lineno + 1) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "conv2d"
               and path.name == "tensor.py"]
    found, seam = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in CONTRACTIONS:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.attr}")
        elif (isinstance(node, ast.Attribute) and node.attr == "matmul"
              or isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.MatMult)):
            where = f"{path.relative_to(ROOT)}:{node.lineno} matmul"
            inside = any(node.lineno in lines for lines in allowed)
            (seam if inside else found).append(where)
    return found, seam


def test_conv2d_gemm_is_the_one_contraction():
    # one contraction seam (ROADMAP item 10): every channel contraction, the
    # conv input gradient included, runs conv2d's banded GEMM; naive.py is the
    # independent reference and keeps its own products
    files = sorted(p for p in (ROOT / "src").rglob("*.py") if p.name != "naive.py")
    found, seam = [], []
    for path in files:
        outside, inside = _contractions(path)
        found += outside
        seam += inside
    assert not found, found
    # the forward GEMM and the kernel gradient's; the scan does see them
    assert len(seam) == 2, seam


def test_config_imports_the_standard_library_alone():
    # a config check must not load numpy: config.py imports no third-party
    # module and no other module of the package, which would bring numpy in
    tree = ast.parse((ROOT / "src" / "reafuse" / "config.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [f"config.py:{node.lineno} {m}" for m in modules
                  if m.split(".")[0] not in sys.stdlib_module_names]
    assert not found, found


def test_no_global_statements():
    # a module-level switch flipped through ``global`` is a mode shared by every
    # caller and thread; whether an op records a graph is decided by its inputs
    files = sorted((ROOT / "src" / "reafuse").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert not found, found


def _data_subscript_writes(path: Path) -> list[str]:
    """Assignment targets that are a subscript of a ``.data`` attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            base = node.value
            while isinstance(base, ast.Subscript):  # t.data[0][1] = ...
                base = base.value
            if isinstance(base, ast.Attribute) and base.attr == "data":
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_no_writes_into_tensor_data():
    # a Tensor's values are fixed once it is built; every op returns a new one.
    # The one documented exception is gradcheck, which perturbs one coordinate
    # at a time through its own flat view of the array and restores it in a
    # ``finally``; that write does not go through ``.data[...]``.
    files = sorted((ROOT / "src" / "reafuse").rglob("*.py"))
    assert files
    found = [entry for path in files for entry in _data_subscript_writes(path)]
    assert not found, found
