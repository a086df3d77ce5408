"""Every name a module lists in __all__, or a demo imports, resolves, the
fast demos run cleanly, importing the package loads no scipy and no
module it does not use, and the public settings are pinned."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sparseland

MODULES = [sparseland] + [
    importlib.import_module(f"sparseland.{info.name}")
    for info in pkgutil.iter_modules(sparseland.__path__)
]
DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
# a child process imports this sparseland
ENV = dict(os.environ, PYTHONPATH=str(Path(sparseland.__file__).resolve().parents[1]))
DEMOS = sorted(DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    # parsed, so that a demo that is not run below is checked too
    missing = []
    for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sparseland":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    assert missing == []


def test_demos_found():
    assert len(DEMOS) >= 5


# the demos that take well under a second and write no file;
# resolve_close_sources runs the full experiment and writes its outputs
FAST_DEMOS = ["shrinkage_tour", "spectral_filters", "wavelet_scales",
              "error_bound_calculator"]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_fast_demo_runs_cleanly(name, tmp_path):
    # any warning is an error, and a clean run prints nothing on stderr
    done = subprocess.run([sys.executable, "-W", "error", str(DEMO_DIR / f"{name}.py")],
                          cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert list(tmp_path.iterdir()) == []


def _fresh(code):
    """Output lines of ``code`` run in a fresh process on this sparseland."""
    done = subprocess.run([sys.executable, "-c", "import sparseland\n"
                           "print(sparseland.__file__)\n" + code],
                          env=ENV, capture_output=True, text=True, timeout=120, check=True)
    path, *lines = done.stdout.splitlines()
    assert Path(path).resolve() == Path(sparseland.__file__).resolve()
    return lines


def test_dir_lists_every_public_name():
    # a fresh process, where no name has loaded its module yet
    code = "print(set(sparseland.__all__) <= set(dir(sparseland)))\n"
    assert _fresh(code) == ["True"]


def test_import_loads_no_scipy():
    # a fresh process, since this one has loaded scipy for other tests
    code = ("import sys, sparseland.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _fresh(code) == ["[]"]


def test_names_load_their_modules_on_first_use():
    loaded = "print(sorted(m for m in sys.modules if m.startswith('sparseland.')))\n"
    code = ("import sys\n" + loaded
            + "sparseland.Convolution2DOperator((8, 8), (16, 16))\n" + loaded)
    assert _fresh(code) == ["[]", "['sparseland.core', 'sparseland.errors', "
                                  "'sparseland.operators', 'sparseland.shrinkage']"]


def test_cli_loads_a_subcommand_s_modules_when_it_runs():
    # the solver and grid I/O load with the CLI; the experiment, the
    # bounds calculators and the transforms only with a subcommand that uses them
    loaded = "print(sorted(m[11:] for m in sys.modules if m.startswith('sparseland.')))\n"
    code = ("import contextlib, io, sys, sparseland.cli\n" + loaded
            + "with contextlib.redirect_stdout(io.StringIO()):\n"
            + "    sparseland.cli.main(['bounds', '--epsilon', '0.1', '--rho', '1'])\n" + loaded)
    eager = ['cli', 'core', 'errors', 'gridio', 'operators', 'shrinkage', 'solver']
    assert _fresh(code) == [str(eager), str(sorted(eager + ['regularization']))]


@pytest.mark.parametrize("name, module", sorted(sparseland._HOME.items()))
def test_each_lazy_name_is_exported_by_its_module(name, module):
    home = importlib.import_module(f"sparseland.{module}")
    assert name in home.__all__
    assert getattr(sparseland, name) is getattr(home, name)
    # kept in the package namespace, where wrappers that replace a name
    # wherever a module holds it (as perfbench's tracing does) find it
    assert vars(sparseland)[name] is getattr(home, name)


# the fields each public config or value dataclass takes at construction;
# a new setting, or a derived value turned settable, edits this table
INIT_FIELDS = {
    "SolverConfig": ("max_iterations", "step_tolerance", "projection"),
    "ExperimentConfig": ("grid", "pad", "radius_fraction", "total_photons", "iterations",
                         "seed", "smoothing_sigma", "cases", "output_dir"),
    "CaseSpec": ("name", "p", "mu", "project"),
    "WaveletSpec": ("family", "levels"),
    "WeightSequence": ("w",),
    "PenaltySpec": ("p", "weights", "mu", "asymmetric"),
    "ObjectiveBreakdown": ("discrepancy", "penalty"),
    "BesovWeightSpec": ("s", "p", "d"),
    "NoisePrior": ("epsilon", "rho"),
    "SpectralEnvelope": ("b", "B"),
}


@pytest.mark.parametrize("name", sorted(INIT_FIELDS))
def test_dataclass_settings_pinned(name):
    fields = dataclasses.fields(getattr(sparseland, name))
    assert tuple(f.name for f in fields if f.init) == INIT_FIELDS[name]
