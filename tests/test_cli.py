"""Tests for the batch front end: configs, reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ymdec import cli
from ymdec import cochain as co
from ymdec import solver as so
from ymdec.complex4 import Domain


def run(args):
    return cli.main(args)


def write_config(tmp_path, **overrides):
    cfg = {}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults_validate(self):
        cfg = cli.load_config()
        assert cfg["topology"] == "sphere" and cfg["sizes"] == [2, 2, 2, 2]
        assert cfg["solver"]["seed"] == cfg["seed"]

    def test_rejects_degenerate_sizes(self, tmp_path):
        path = write_config(tmp_path, sizes=[1, 2, 2, 2])
        assert run(["verify", "--config", path]) == 2

    def test_rejects_unknown_fields(self, tmp_path):
        path = write_config(tmp_path, topologyy="sphere")
        assert run(["verify", "--config", path]) == 2

    def test_rejects_bad_solver_block(self, tmp_path):
        path = write_config(tmp_path, solver={"momentum": 0.9})
        assert run(["relax", "--config", path]) == 2

    def test_seed_override(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "--seed", "11", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == 11


class TestVerify:
    def test_default_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["command"] == "verify"
        assert all(c["pass"] for c in report["checks"])
        names = {c["name"] for c in report["checks"]}
        assert "bianchi_identity" in names and "energy_split" in names
        assert "green_boundary_magnitude_sphere" in report["scalars"]
        table = capsys.readouterr().out
        assert "bianchi_identity" in table and "pass" in table

    def test_report_embeds_metadata(self, tmp_path):
        out = tmp_path / "report.json"
        run(["verify", "--output", str(out)])
        report = json.loads(out.read_text())
        assert report["version"] == cli.__version__
        assert report["cell_ordering"] == cli.CELL_ORDERING
        assert report["config"]["sizes"] == [2, 2, 2, 2]

    def test_byte_identical_reports(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--output", str(out)]) == 0
        first = out.read_bytes()
        assert run(["verify", "--output", str(out)]) == 0
        assert out.read_bytes() == first

    def test_violating_gauge_recorded_as_expected_fail(self, tmp_path):
        path = write_config(tmp_path, gauge="random")
        out = tmp_path / "report.json"
        assert run(["verify", "--config", path, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        entry = next(
            c
            for c in report["checks"]
            if c["name"] == "configured_gauge_right_cup_dual_expected_fail"
        )
        assert entry["expected_fail"] and entry["pass"] and entry["defect"] > 1e-6

    def test_block_topology_passes(self, tmp_path):
        path = write_config(tmp_path, topology="block", sizes=[2, 2, 2, 2])
        out = tmp_path / "report.json"
        assert run(["verify", "--config", path, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "ym_gauge_invariance_boundary_defect" in report["scalars"]


class TestAction:
    def test_zero_connection_scalars(self, tmp_path):
        path = write_config(tmp_path, connection="zero")
        out = tmp_path / "report.json"
        assert run(["action", "--config", path, "--output", str(out)]) == 0
        scalars = json.loads(out.read_text())["scalars"]
        assert scalars["action"] == 0.0
        assert scalars["ym_residual_norm"] == 0.0
        assert scalars["sd_residual"] == 0.0
        assert scalars["bianchi_defect"] == 0.0

    def test_connection_file_source(self, tmp_path):
        domain = Domain((2, 2, 2, 2), "sphere")
        a = co.random_connection(domain, 0.2, seed=3)
        conn = tmp_path / "a.form.json"
        conn.write_bytes(co.serialize(a))
        path = write_config(tmp_path, connection=f"file:{conn}")
        out = tmp_path / "report.json"
        assert run(["action", "--config", path, "--output", str(out)]) == 0
        scalars = json.loads(out.read_text())["scalars"]
        assert scalars["action"] == pytest.approx(so.action(a))

    def test_mismatched_file_domain_is_config_error(self, tmp_path):
        a = co.random_connection(Domain((2, 2, 2, 2), "block"), 0.2, seed=3)
        conn = tmp_path / "a.form.json"
        conn.write_bytes(co.serialize(a))
        path = write_config(tmp_path, connection=f"file:{conn}")  # sphere by default
        assert run(["action", "--config", path]) == 2


class TestSolverCommands:
    def test_relax_writes_connection_and_report(self, tmp_path):
        out = tmp_path / "final.form.json"
        path = write_config(
            tmp_path,
            amplitude=0.05,
            solver={"max_iters": 80, "grad_tol": 1e-5},
            output=str(out),
        )
        assert run(["relax", "--config", path]) == 0
        final = co.deserialize(out.read_bytes())
        assert final.degree == 1 and final.domain == Domain((2, 2, 2, 2), "sphere")
        report = json.loads((tmp_path / "final.form.json.report.json").read_text())
        objs = [row[0] for row in report["trace"]]
        assert all(b <= a for a, b in zip(objs, objs[1:]))
        assert report["scalars"]["action"] == pytest.approx(so.action(final), rel=1e-9)

    def test_selfdual_reports_component_defects(self, tmp_path):
        out = tmp_path / "sd.form.json"
        path = write_config(
            tmp_path,
            amplitude=0.05,
            solver={"max_iters": 150, "grad_tol": 1e-5},
            output=str(out),
        )
        assert run(["selfdual", "--config", path]) == 0
        report = json.loads((tmp_path / "sd.form.json.report.json").read_text())
        defects = report["scalars"]["sd_component_defects"]
        assert len(defects) == 3 and all(d >= 0 for d in defects)

    def test_solver_abort_exit_code(self, tmp_path):
        domain = Domain((2, 2, 2, 2), "sphere")
        huge = so.vectors_to_connection(
            domain, np.full((2, 2, 2, 2, 2, 4, 3), 1e200)
        )
        conn = tmp_path / "huge.form.json"
        conn.write_bytes(co.serialize(huge))
        path = write_config(tmp_path, connection=f"file:{conn}")
        assert run(["relax", "--config", path]) == 3

    def test_stdout_report_when_no_output(self, capsys):
        assert run(["action", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        # the summary table comes first, the JSON report after it
        assert "ymdec action" in out
        payload = out[out.index("{") :]
        report = json.loads(payload)
        assert report["command"] == "action"


class TestBoundary:
    @pytest.mark.parametrize(
        "payload",
        [
            {"amplitude": "abc"},
            {"amplitude": float("nan")},
            {"seed": True},
            {"sizes": [2, 2, 2, True]},
            {"output": 5},
            {"gauge": 5},
            {"solver": {"max_iters": -5}},
            {"solver": {"max_iters": 10.5}},
            {"solver": {"grad_tol": "nan"}},
            {"solver": {"grad_tol": float("inf")}},
            {"solver": {"armijo_c": "0.1"}},
            {"solver": {"seed": True}},
            {"solver": {"anti": "yes"}},
            {"solver": {"objective": ["action"]}},
        ],
    )
    def test_bad_field_types_are_config_errors(self, tmp_path, capsys, payload):
        path = write_config(tmp_path, **payload)
        assert run(["relax", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def _nan_connection_config(self, tmp_path):
        a = co.random_connection(Domain((2, 2, 2, 2), "sphere"), 0.2, seed=3)
        a.values[0, 0, 0, 0, 0, 0, 0, 1] = np.nan
        conn = tmp_path / "nan.form.json"
        conn.write_bytes(co.serialize(a))
        return write_config(tmp_path, connection=f"file:{conn}")

    def test_nan_connection_file_is_config_error(self, tmp_path, capsys):
        assert run(["action", "--config", self._nan_connection_config(tmp_path)]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_nan_connection_file_is_config_error_without_asserts(self, tmp_path):
        # python -O strips assert statements; the guard must not be one
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "ymdec", "action", "--config",
             self._nan_connection_config(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_verify_on_non_cubic_sphere(self, tmp_path, capsys):
        path = write_config(tmp_path, sizes=[2, 3, 4, 2], gauge="identity")
        out = tmp_path / "report.json"
        assert run(["verify", "--config", path, "--output", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads(out.read_text())
        skipped = report["scalars"]["skipped_checks"]
        assert set(skipped) == {
            "gauge_group_closure", "right_cup_dual_compatible", "ym_residual_gauge_invariance"
        }
        names = {c["name"] for c in report["checks"]}
        assert not names & set(skipped) and "bianchi_identity" in names
        assert all(c["pass"] for c in report["checks"])

    def test_sum_profile_gauge_on_non_cubic_sphere_is_config_error(self, tmp_path):
        path = write_config(tmp_path, sizes=[2, 3, 4, 2], gauge="sum_profile")
        assert run(["verify", "--config", path]) == 2

    def test_relax_report_counts_evaluations_and_is_byte_stable(self, tmp_path):
        out = tmp_path / "final.form.json"
        path = write_config(
            tmp_path, amplitude=0.05, solver={"max_iters": 80, "grad_tol": 1e-5}, output=str(out)
        )
        report_path = tmp_path / "final.form.json.report.json"
        assert run(["relax", "--config", path]) == 0
        first = report_path.read_bytes()
        assert run(["relax", "--config", path]) == 0
        assert report_path.read_bytes() == first
        scalars = json.loads(first)["scalars"]
        for key in ("objective_gradient_evals", "line_coefficient_evals", "restarts"):
            assert type(scalars[key]) is int
        assert scalars["line_coefficient_evals"] == scalars["iterations"] + scalars["restarts"]
