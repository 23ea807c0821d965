"""The public API surface: everything advertised imports and works."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import repro

#: Every ``repro`` submodule that declares ``__all__``; the top-level
#: package has its own tests below.
SUBMODULES_WITH_ALL = [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if hasattr(importlib.import_module(info.name), "__all__")
]


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    @pytest.mark.parametrize("module", SUBMODULES_WITH_ALL)
    def test_submodule_all_names_resolve(self, module):
        mod = importlib.import_module(module)
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{module}.__all__ lists missing {missing}"

    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize(
        "module",
        [
            "repro.relational",
            "repro.relational.algebra",
            "repro.relational.optimize",
            "repro.relational.io",
            "repro.logic",
            "repro.logic.transform",
            "repro.ast",
            "repro.ast.transform",
            "repro.ast.report",
            "repro.parser",
            "repro.semantics",
            "repro.semantics.topdown",
            "repro.semantics.provenance",
            "repro.semantics.maintenance",
            "repro.semantics.counting",
            "repro.semantics.choice",
            "repro.languages",
            "repro.translate",
            "repro.programs",
            "repro.workloads",
            "repro.ordered",
            "repro.statelog",
            "repro.active",
            "repro.pipeline",
            "repro.tools",
            "repro.cli",
        ],
    )
    def test_submodules_import(self, module):
        importlib.import_module(module)

    def test_package_exports_are_unique(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    @pytest.mark.parametrize("module", SUBMODULES_WITH_ALL)
    def test_submodule_exports_are_unique(self, module):
        exports = importlib.import_module(module).__all__
        assert len(exports) == len(set(exports))


class TestImportFootprint:
    """Package namespaces resolve their names on first use, so importing
    one engine loads the modules it runs and no others."""

    def test_engine_import_leaves_other_packages_unloaded(self):
        code = (
            "import sys\n"
            "import repro.parser, repro.semantics.inflationary\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        loaded = set(completed.stdout.split())
        assert "repro.semantics.inflationary" in loaded
        for package in ("repro.analysis", "repro.cli", "repro.translate",
                        "repro.languages", "repro.programs",
                        "repro.logic.formula"):
            assert package not in loaded

    def test_submodule_import_keeps_same_named_exports(self):
        # ``repro.programs.closer`` is both a module and the function it
        # exports; importing the module first must not shadow the export.
        code = (
            "import importlib, pkgutil, types, repro\n"
            "names = ['repro'] + [m.name for m in pkgutil.walk_packages(\n"
            "    repro.__path__, 'repro.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "for name in names:\n"
            "    module = importlib.import_module(name)\n"
            "    for attr in getattr(module, '__all__', ()):\n"
            "        if isinstance(getattr(module, attr), types.ModuleType):\n"
            "            print(f'{name}.{attr}')\n"
            "from repro.programs import *\n"
            "print(callable(closer) and callable(good_nodes))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert completed.stdout.split() == ["repro.relational.algebra", "True"]

    def test_unlisted_name_resolves(self):
        from repro.programs import reference_complement_tc
        from repro.programs.tc import reference_complement_tc as defined

        assert reference_complement_tc is defined
        assert "reference_complement_tc" not in repro.programs.__all__

    def test_submodule_resolves_as_attribute(self):
        import repro.relational

        assert repro.relational.algebra is importlib.import_module(
            "repro.relational.algebra"
        )
        with pytest.raises(AttributeError):
            repro.relational.no_such_name


class TestQuickstartFromDocstring:
    """The module docstring's quickstart must actually run."""

    def test_readme_quickstart(self):
        from repro import Database, evaluate_wellfounded, parse_program

        win = parse_program("win(x) :- moves(x, y), not win(y).")
        game = Database(
            {
                "moves": [
                    ("b", "c"), ("c", "a"), ("a", "b"), ("a", "d"),
                    ("d", "e"), ("d", "f"), ("f", "g"),
                ]
            }
        )
        model = evaluate_wellfounded(win, game)
        assert model.answer("win") == frozenset({("d",), ("f",)})
        assert model.unknowns("win") == frozenset({("a",), ("b",), ("c",)})
        assert model.truth_value("win", ("e",)) == "false"

    def test_init_docstring_quickstart(self):
        from repro import Database, evaluate_inflationary, parse_program

        program = parse_program(
            """
            T(x, y) :- G(x, y).
            T(x, y) :- G(x, z), T(z, y).
            """
        )
        db = Database({"G": [("a", "b"), ("b", "c")]})
        result = evaluate_inflationary(program, db)
        assert result.answer("T") == frozenset(
            {("a", "b"), ("b", "c"), ("a", "c")}
        )
