"""Every public name of the package resolves: each entry of a module's
__all__, and each name that cavityqed/__init__.py imports. Names that only
the tests needed are not library names, and only the command-line front end
imports the command-line module."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import cavityqed
from cavityqed import cli
from cavityqed.dipole_response import enhancement_ray, response
from cavityqed.io_formats import ResultTable
from cavityqed.quadrature import AngularGrid, PVResult, pv_integrate
from cavityqed.specfun import plane_wave_coeffs
from cavityqed.structures import AngularFunction, FieldPoint, HarmonicBasis
from cavityqed.wave_ops import (CavityOperatorSet, OperatorBlock, build_operators,
                                enhancement_full)

# names that only the tests called: deleted, or moved to tests/oracles.py
RETIRED = (
    "radial_bessel", "ylm", "solid_angle_fraction", "finesse_param", "FinesseParam",
    "perfect_sphere_frequency", "polarization_factor", "serialize_config",
    "asymptotic_radial_bessel", "bessel_weights", "closed_cavity_mode_sum",
    "intracavity_field_coeffs", "_transmission_operator", "read_table_json",
    "_ray_reflectivities", "_legendre_column", "center_closed_forms", "one_mirror_response",
    "build_grid",
)


def _modules():
    yield cavityqed
    for info in pkgutil.iter_modules(cavityqed.__path__):
        yield importlib.import_module(f"cavityqed.{info.name}")


def test_module_all_entries_resolve():
    missing = []
    for module in _modules():
        missing += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(cavityqed.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(cavityqed, n)] == []


def test_test_only_names_are_not_in_the_library():
    # the invariant self-check is pytest itself; the dense block assembly,
    # the equal-mirror kernel oracles and the reference routines of
    # tests/oracles.py live with the tests
    assert importlib.util.find_spec("cavityqed.checks") is None
    members = {AngularGrid: ("integrate_polar", "integrate", "phi_az", "n_polar",
                             "n_azimuthal"),
               PVResult: ("converged", "periods"),
               FieldPoint: ("as_array",), AngularFunction: ("block",),
               OperatorBlock: ("dense_rho", "dense_tau_sq", "block_diagonal"),
               HarmonicBasis: ("block_dim",), ResultTable: ("column",)}
    assert [f"{cls.__name__}.{name}" for cls, names in members.items()
            for name in names if hasattr(cls, name)
            or name in {f.name for f in dataclasses.fields(cls)}] == []
    found = [f"{module.__name__}.{name}" for module in _modules() for name in RETIRED
             if hasattr(module, name) or name in getattr(module, "__all__", ())]
    assert found == []


def _imported_modules(tree):
    """Absolute names of the modules and module attributes that a module
    of the package imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ("cavityqed", base)))
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return names


def test_only_the_cli_imports_the_cli():
    importers = []
    for path in sorted(Path(cavityqed.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(name == "cavityqed.cli" or name.startswith("cavityqed.cli.")
               for name in _imported_modules(tree)):
            importers.append(path.name)
    assert importers == []


def test_parameters_that_no_program_path_varies_stay_retired():
    # pv_integrate runs the one configuration of the airy-check scan,
    # operator blocks always sit on operator_grid, response always applies
    # both ray corrections and enhancement_ray switches them together, the
    # ray quadrature sets its own orders, the full route reports no
    # condition estimate and every point's truncation tail is judged
    # against specfun.TAIL_TOL;
    # perfbench/worker.py passes the first four parameters of
    # enhancement_full by position
    params = {f.__name__: list(inspect.signature(f).parameters)
              for f in (pv_integrate, cli.pv_oracle_errors, build_operators, response,
                        enhancement_ray, enhancement_full, plane_wave_coeffs)}
    assert params == {
        "pv_integrate": ["kernel", "period", "refine_points"],
        "pv_oracle_errors": ["rho", "phi"],
        "build_operators": ["geom", "basis", "m_values"],
        "response": ["point", "orientation", "geom", "phi0"],
        "enhancement_ray": ["geom", "point", "phi0", "corrections"],
        "enhancement_full": ["geom", "basis", "point", "detuning_phase", "ops"],
        "plane_wave_coeffs": ["point", "l_max"],
    }
    kinds = [p.kind for p in inspect.signature(enhancement_full).parameters.values()]
    assert kinds[:4] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 4
    # the caches of an operator set are built by the set, not passed in
    assert [f.name for f in dataclasses.fields(CavityOperatorSet) if f.init] == [
        "geometry", "basis"]
