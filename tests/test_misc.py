"""Tests for units, errors, Verilog export, and the public API surface."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import errors, units
from repro.circuit.verilog_io import write_verilog, write_verilog_file


class TestUnits:
    def test_discharge_time(self):
        # 1 fC at 1 uA takes 1 ns = 1000 ps.
        assert units.discharge_time_ps(1.0, 1.0) == pytest.approx(1000.0)
        assert math.isinf(units.discharge_time_ps(1.0, 0.0))

    def test_charge(self):
        assert units.charge_fc(2.0, 0.5) == 1.0

    def test_dynamic_energy(self):
        assert units.dynamic_energy_fj(2.0, 1.0) == 2.0
        assert units.dynamic_energy_fj(2.0, 2.0) == 8.0

    def test_leakage_energy(self):
        # 1 uA at 1 V over 1000 ps = 1 fJ.
        assert units.leakage_energy_fj(1.0, 1.0, 1000.0) == pytest.approx(1.0)


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            errors.CircuitError,
            errors.BenchFormatError,
            errors.TechnologyError,
            errors.TableError,
            errors.LibraryError,
            errors.SimulationError,
            errors.AnalysisError,
            errors.OptimizationError,
        ):
            assert issubclass(exc, errors.ReproError)
        assert issubclass(errors.CircuitCycleError, errors.CircuitError)
        assert issubclass(errors.UnknownGateError, errors.CircuitError)


class TestVerilogExport:
    def test_c17_export(self, c17):
        text = write_verilog(c17)
        assert "module c17" in text
        assert text.count("nand ") == 6
        assert "endmodule" in text
        for name in c17.inputs:
            # c17 names are numeric, so they appear as escaped identifiers.
            assert f"input \\{name} ;" in text

    def test_escaped_identifiers(self, c17):
        # c17 signal names are numeric -> must be escaped.
        text = write_verilog(c17)
        assert "\\10 " in text

    def test_file_export(self, tmp_path, c17):
        path = tmp_path / "c17.v"
        write_verilog_file(c17, path)
        assert path.read_text().startswith("module")


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_quick_workflow(self):
        """The README quickstart, in miniature."""
        import repro

        circuit = repro.iscas85_circuit("c17")
        analyzer = repro.AsertaAnalyzer(
            circuit, repro.AsertaConfig(n_vectors=300, seed=1)
        )
        report = analyzer.analyze()
        assert report.total > 0.0


#: Runs with ``scipy`` hidden (``sys.modules["scipy"] = None`` makes
#: every ``import scipy...`` raise ImportError).
NUMPY_ONLY_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.modules["scipy"] = None

    import repro
    from repro.core.delay_assignment import DelaySpace
    from repro.errors import OptimizationError

    circuit = repro.iscas85_circuit("c17")
    config = repro.AsertaConfig(n_vectors=300, seed=1)
    assert repro.AsertaAnalyzer(circuit, config).analyze().total > 0.0
    result = repro.Sertopt(
        circuit,
        config=repro.SertoptConfig(max_evaluations=8, seed=1, aserta=config),
    ).optimize()
    assert result.optimized.total <= result.baseline.total + 1e-9
    delays = {name: 10.0 for name in circuit.signal_names()}
    try:
        DelaySpace(circuit, delays, method="svd")
    except OptimizationError as exc:
        assert "scipy" in str(exc), exc
    else:
        raise AssertionError("method='svd' ran without scipy")
    """
)


class TestDependencies:
    """scipy is an optional extra: no default path may need it."""

    @staticmethod
    def _run(code: str) -> subprocess.CompletedProcess:
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=300,
        )

    def test_import_does_not_load_scipy(self):
        done = self._run(
            "import sys, repro; "
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules), "
            "sorted(m for m in sys.modules if m.startswith('scipy'))"
        )
        assert done.returncode == 0, done.stderr

    def test_default_paths_run_with_scipy_hidden(self):
        done = self._run(NUMPY_ONLY_SCRIPT)
        assert done.returncode == 0, done.stderr
