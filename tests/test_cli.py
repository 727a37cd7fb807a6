"""Tests for the batch front end: configs, reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import abelian_connection
from ymdec import cli
from ymdec import cochain as co
from ymdec import gauge as ga
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


# the checks that verify builds on dual-compatible gauges
DUAL_COMPATIBLE_CHECKS = {"gauge_group_closure", "right_cup_dual_compatible", "ym_residual_gauge_invariance"}


class TestConfig:
    def test_defaults_validate(self, tmp_path, capsys):
        cfg = cli.load_config("relax").config
        assert cfg["topology"] == "sphere" and cfg["sizes"] == [2, 2, 2, 2]
        assert list(cfg["solver"]) == ["max_iters", "grad_tol"]
        assert list(cli.load_config("selfdual").config["solver"]) == ["max_iters", "grad_tol", "anti"]
        # knobs that nothing read are gone and now unknown
        for key, value in (("backtrack_factor", 0.5), ("initial_step", 1.0), ("seed", 7)):
            path = write_config(tmp_path, solver={key: value})
            assert run(["relax", "--config", path]) == 2
            assert "unknown solver fields" in capsys.readouterr().err

    def test_the_job_holds_what_the_run_uses(self, tmp_path):
        for command in ("verify", "action"):
            job = cli.load_config(command, output=str(tmp_path / "r.json"))
            assert job.domain == Domain((2, 2, 2, 2), "sphere") and job.solver is None
            assert job.outputs == (str(tmp_path / "r.json"),)
        for command in ("relax", "selfdual"):
            job = cli.load_config(command, output=str(tmp_path / "f.json"))
            assert job.solver == so.SolverConfig()
            assert job.outputs == (str(tmp_path / "f.json"), str(tmp_path / "f.json.report.json"))
        assert cli.load_config("action").outputs == ()

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

    @pytest.mark.parametrize("amplitude", [100, 1e6])
    def test_large_amplitude_passes(self, tmp_path, amplitude):
        # amplitude-dependent defects are relative to max|F|, the FD step to max|A|
        path = write_config(tmp_path, amplitude=amplitude)
        out = tmp_path / "report.json"
        assert run(["verify", "--config", path, "--output", str(out)]) == 0
        assert all(c["pass"] for c in json.loads(out.read_text())["checks"])

    def test_report_embeds_metadata(self, tmp_path):
        out = tmp_path / "report.json"
        run(["verify", "--output", str(out)])
        report = json.loads(out.read_text())
        assert report["version"] == cli.__version__
        assert report["cell_ordering"] == co.CELL_ORDERING
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

    @pytest.mark.parametrize("gauge", ["dual_compatible", "random"])
    def test_non_cubic_block_topology_passes(self, tmp_path, gauge):
        path = write_config(tmp_path, topology="block", sizes=[2, 3, 4, 2], gauge=gauge)
        out = tmp_path / "report.json"
        assert run(["verify", "--config", path, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(c["pass"] for c in report["checks"])
        assert "ym_gauge_invariance_boundary_defect" in report["scalars"]
        names = {c["name"] for c in report["checks"]}
        expected_fail = "configured_gauge_right_cup_dual_expected_fail"
        assert (expected_fail in names) == (gauge == "random")


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

    @pytest.mark.parametrize("command", ["relax", "action"])
    def test_zero_connection_writes_no_negative_zero(self, tmp_path, command):
        # project_su2 reads the zero connection as -0 vectors and embed_su2
        # writes them back as +0 entries, as sum_a v_a lam_a does: the final
        # form is the zero form's bytes, and no written file holds a -0
        out = tmp_path / "out.json"
        assert run([command, "--config", write_config(tmp_path, connection="zero"), "--output", str(out)]) == 0
        written = [out.read_bytes()]
        if command == "relax":
            zero = co.serialize(co.Cochain.zeros(Domain((2, 2, 2, 2), "sphere"), 1))
            assert written[0] == zero
            written.append((tmp_path / "out.json.report.json").read_bytes())
        assert all(b"-0.0" not in data and b"-0e" not in data for data in written)


class TestSingleCurvature:
    """The four connection scalars of a report come from one curvature."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The solver phase open at each gauge.curvature call ("-" outside)."""
        calls, open_phases = [], ["-"]
        curvature, phase = ga.curvature, so.phase

        def counting(A):
            calls.append(open_phases[-1])
            return curvature(A)

        @contextmanager
        def tracked(log, name):
            open_phases.append(name)
            try:
                with phase(log, name):
                    yield
            finally:
                open_phases.pop()

        monkeypatch.setattr(ga, "curvature", counting)
        monkeypatch.setattr(so, "phase", tracked)
        return calls

    def test_action_builds_it_once(self, tmp_path, calls):
        assert run(["action", "--output", str(tmp_path / "report.json")]) == 0
        assert len(calls) == 1

    def test_relax_diagnostics_build_it_once(self, tmp_path, calls):
        out = tmp_path / "final.form.json"
        path = write_config(tmp_path, amplitude=0.05, solver={"max_iters": 5}, output=str(out))
        assert run(["relax", "--config", path]) == 0
        assert calls == ["diagnostics"]

    def test_selfdual_builds_it_once(self, tmp_path, calls):
        out = tmp_path / "final.form.json"
        path = write_config(tmp_path, amplitude=0.05, solver={"max_iters": 5}, output=str(out))
        assert run(["selfdual", "--config", path]) == 0
        assert calls == ["diagnostics"]


class TestVerifyAtFour:
    def _report(self, tmp_path, **config):
        out = tmp_path / "report.json"
        path = write_config(tmp_path, sizes=[4, 4, 4, 4], **config)
        assert run(["verify", "--config", path, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["checks"] and all(c["pass"] for c in report["checks"])
        assert "skipped_checks" not in report["scalars"]
        return report

    def test_sphere_dual_compatible_gauge(self, tmp_path):
        self._report(tmp_path)

    def test_block_random_gauge(self, tmp_path):
        report = self._report(tmp_path, topology="block", gauge="random")
        names = {c["name"] for c in report["checks"]}
        assert "configured_gauge_right_cup_dual_expected_fail" in names


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

    @pytest.mark.parametrize(
        "topology,sizes", [("sphere", [2, 2, 2, 2]), ("block", [2, 3, 4, 2])], ids=["sphere", "block"]
    )
    def test_anti_selfdual_reports_the_minimized_residual(self, tmp_path, topology, sizes):
        out = tmp_path / "asd.form.json"
        path = write_config(
            tmp_path, topology=topology, sizes=sizes, amplitude=0.3,
            solver={"max_iters": 100, "anti": True}, output=str(out),
        )
        assert run(["selfdual", "--config", path]) == 0
        report = json.loads((tmp_path / "asd.form.json.report.json").read_text())
        objective = report["trace"][-1][0]
        assert report["scalars"]["asd_residual"] ** 2 == pytest.approx(objective, rel=1e-10)

    @pytest.mark.parametrize("s", [1, -1], ids=["self-dual", "anti-self-dual"])
    def test_the_abelian_solution_from_a_form_file_takes_no_step(self, tmp_path, s):
        # the exact solution of tests/oracles.py on block 2^4 at B = 0.3, read
        # through the form reader: a stop before the first step, at action
        # B^2 N^4 = 1.44 and the minimized residual at rounding level
        form = tmp_path / "abelian.form.json"
        form.write_bytes(co.serialize(abelian_connection(Domain((2, 2, 2, 2), "block"), 0.3, s)))
        out = tmp_path / "sd.form.json"
        path = write_config(tmp_path, topology="block", connection=f"file:{form}",
                            solver={"anti": s < 0}, output=str(out))
        assert run(["selfdual", "--config", path]) == 0
        scalars = json.loads((tmp_path / "sd.form.json.report.json").read_text())["scalars"]
        assert scalars["iterations"] == 0 and scalars["converged"] is True
        assert scalars["action"] == pytest.approx(1.44, rel=1e-12)
        assert scalars["asd_residual" if s < 0 else "sd_residual"] <= 1e-15
        # the same values: the round trip through su(2) vectors turns some -0.0 into 0.0
        assert np.array_equal(co.deserialize(out.read_bytes()).values, co.deserialize(form.read_bytes()).values)

    def test_reports_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # block 3^4 relax at amplitude 0.5 is the run that moves with rounding:
        # its final form and report are the same bytes at 1 and 2 threads
        out = tmp_path / "block3.form.json"
        path = write_config(tmp_path, topology="block", sizes=[3, 3, 3, 3], amplitude=0.5, output=str(out))
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "ymdec", "relax", "--config", path],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out.read_bytes(), (tmp_path / "block3.form.json.report.json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["scalars"]["converged"] is True

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
            {"solver": {"objective": "action"}},
            {"solver": {"armijo_c": 1e-4}},
            {"solver": {"anti": True}},
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

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_config_error(self, unbuffered):
        # the reader of stdout has exited: the summary table's first print
        # fails, or with stdout buffered its flush
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ymdec", "action"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("config error: cannot write output")

    def test_verify_on_non_cubic_sphere(self, tmp_path, capsys):
        path = write_config(tmp_path, sizes=[2, 3, 4, 2], gauge="identity")
        out = tmp_path / "report.json"
        assert run(["verify", "--config", path, "--output", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert "skipped_checks" not in report["scalars"]
        names = {c["name"] for c in report["checks"]}
        assert DUAL_COMPATIBLE_CHECKS <= names and "bianchi_identity" in names
        assert all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("sizes", [[2, 3, 4, 2], [4, 4, 4, 2]], ids=["2342", "4442"])
    def test_dual_compatible_gauge_on_non_cubic_sphere(self, tmp_path, sizes):
        # 4 and 8 gauge classes there: every check runs and passes
        path = write_config(tmp_path, sizes=sizes, gauge="dual_compatible")
        out = tmp_path / "report.json"
        assert run(["verify", "--config", path, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "skipped_checks" not in report["scalars"]
        passed = {c["name"] for c in report["checks"] if c["pass"]}
        assert DUAL_COMPATIBLE_CHECKS | {"configured_gauge_right_cup_dual"} <= passed
        assert all(c["pass"] for c in report["checks"])

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
        for key in ("objective_gradient_evals", "line_coefficient_evals", "jacobian_products"):
            assert type(scalars[key]) is int
        assert scalars["line_coefficient_evals"] == scalars["iterations"]


class TestVerbose:
    def test_phase_times_on_stderr_and_identical_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, amplitude=0.05, solver={"max_iters": 30})
        out = tmp_path / "final.form.json"
        outputs = []
        for flags in ([], ["-v"]):
            assert run(["relax", "--config", cfg, "--output", str(out), *flags]) == 0
            outputs.append((out.read_bytes(), Path(f"{out}.report.json").read_bytes()))
            err = capsys.readouterr().err
            for name in ("load", "solve", "diagnostics", "write"):
                assert (f" {name} " in err) == bool(flags)
        assert outputs[0] == outputs[1]

    def test_verify_logs_each_check(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        outputs = []
        for flags in ([], ["-v"]):
            assert run(["verify", "--output", str(out), *flags]) == 0
            outputs.append(out.read_bytes())
        err = capsys.readouterr().err
        assert outputs[0] == outputs[1]
        for c in json.loads(outputs[1])["checks"]:
            assert f"check {c['name']} " in err


# Boundary property: whatever the JSON config or form file, the CLI exits with
# a documented code (0 pass, 1 check failure, 2 config error, 3 abort) and
# raises nothing.  Valid sizes stay at 2..3 and max_iters at most 3, so every
# accepted payload runs in well under a second; "file:" sources are only
# the generated form file or a missing one, and the only output paths are one
# in a missing directory and the empty one, neither of which can be written.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=6)
)
_JUNK = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6,
)
_NON_LIST_JUNK = _JUNK.filter(lambda v: not isinstance(v, list))
_NON_STRING_JUNK = _JUNK.filter(lambda v: not isinstance(v, str))
_NUMBER = st.one_of(st.floats(), st.integers(-3, 3), _SCALARS)
# stands for <test temp dir>/missing/out.json, filled in by the test
_MISSING_DIR_OUTPUT = "<missing-dir>/out.json"
_SOLVER = st.fixed_dictionaries(
    {"max_iters": st.one_of(st.integers(0, 3), _SCALARS.filter(lambda v: not isinstance(v, int)))},
    optional={
        "grad_tol": _NUMBER,
        "armijo_c": _NUMBER,
        "backtrack_factor": _NUMBER,
        "initial_step": _NUMBER,
        "objective": st.one_of(st.sampled_from(["action", "sd_residual", "energy"]), _JUNK),
        "seed": _NUMBER,
        "anti": _JUNK,
    },
)
_CONFIG = st.fixed_dictionaries(
    {},
    optional={
        "solver": st.one_of(_SOLVER, _NON_LIST_JUNK.filter(lambda v: not isinstance(v, dict))),
        "topology": st.one_of(st.sampled_from(["sphere", "block"]), _JUNK),
        "sizes": st.one_of(
            st.lists(st.integers(2, 3), min_size=4, max_size=4),
            st.lists(st.integers(-2, 3), max_size=5),
            _NON_LIST_JUNK,
        ),
        "seed": _NUMBER,
        "amplitude": _NUMBER,
        "connection": st.one_of(
            st.sampled_from(["zero", "random", "file:missing.form.json"]),
            _JUNK.filter(lambda v: not (isinstance(v, str) and v.startswith("file:"))),
        ),
        "gauge": st.one_of(
            st.sampled_from(["identity", "random", "dual_compatible"]),
            _JUNK.filter(lambda v: not (isinstance(v, str) and v.startswith("file:"))),
        ),
        "output": st.one_of(st.none(), st.just(_MISSING_DIR_OUTPUT), st.just(""), _NON_STRING_JUNK),
        "unknown": _JUNK,
    },
)


def _form_document(degree):
    domain = Domain((2, 2, 2, 2), "sphere")
    form = co.random_connection(domain, 0.3, seed=5) if degree == 1 else co.random_gauge(domain, 6)
    return json.loads(co.serialize(form))


@st.composite
def _form_payloads(draw):
    """A valid form file with some of its fields or coefficients spoiled."""
    doc = _form_document(draw(st.sampled_from([0, 1])))
    if draw(st.booleans()):
        doc["copy"] = "tilde"
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        doc[key] = draw(_JUNK)
    if isinstance(doc["data"], list) and doc["data"] and draw(st.booleans()):
        n = draw(st.integers(0, len(doc["data"]) - 1))
        rows = st.lists(st.lists(st.floats(), max_size=3), max_size=5)
        doc["data"][n] = draw(st.one_of(_JUNK, rows))
    if draw(st.booleans()):
        doc.pop(draw(st.sampled_from(sorted(doc))))
    return json.dumps(doc, allow_nan=True)


class TestBoundaryRegressions:
    @pytest.mark.parametrize("command", ["action", "verify", "relax"])
    def test_overflowing_amplitude_aborts_with_exit_3(self, tmp_path, capsys, command):
        solver = {"solver": {"max_iters": 3}} if command == "relax" else {}
        path = write_config(tmp_path, amplitude=1e300, **solver)
        assert run([command, "--config", path]) == 3
        assert "abort" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["action", "verify", "relax"])
    def test_negative_zero_amplitude_runs_as_zero(self, tmp_path, command):
        reports = []
        for amplitude in (0.0, -0.0):
            out = tmp_path / f"amp{amplitude}.json"
            assert run([command, "--config", write_config(tmp_path, amplitude=amplitude, output=str(out))]) == 0
            report = json.loads((out if command != "relax" else Path(f"{out}.report.json")).read_text())
            del report["config"]  # echoes the output path
            reports.append(report)
        assert reports[0]["scalars"] and reports[0] == reports[1]

    @staticmethod
    def _subprocess(command, tmp_path, amplitude):
        src = str(Path(cli.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "ymdec", command, "--config", write_config(tmp_path, amplitude=amplitude)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )

    @pytest.mark.parametrize("command", ["action", "verify"])
    def test_numerical_abort_prints_one_stderr_line(self, tmp_path, command):
        # numpy's overflow warnings stay off stderr; the abort names the non-finite value,
        # also at 1e308, where the connection draw's interval width once overflowed
        for amplitude in (1e200, 1e308):
            proc = self._subprocess(command, tmp_path, amplitude)
            assert proc.returncode == 3
            [line] = proc.stderr.splitlines()
            assert line.startswith("numerical abort:") and "not finite" in line

    def test_verify_aborts_past_its_amplitude_range(self, tmp_path):
        # the Yang-Mills residual is cubic in A: its squared norm overflows from amplitude ~1e52
        proc = self._subprocess("verify", tmp_path, 1e100)
        assert proc.returncode == 3
        [line] = proc.stderr.splitlines()
        assert line.startswith("numerical abort")

    @pytest.mark.parametrize("where", ["config", "form"])
    def test_deeply_nested_json_is_config_error(self, tmp_path, capsys, where):
        # json.loads raises RecursionError, not ValueError, past its nesting limit
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        path = str(deep) if where == "config" else write_config(tmp_path, connection=f"file:{deep}")
        assert run(["action", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err

    def test_integer_beyond_the_float_range_in_form_data_is_config_error(self, tmp_path, capsys):
        doc = _form_document(1)
        doc["data"][0][0][0] = 10**400
        form = tmp_path / "input.form.json"
        form.write_text(json.dumps(doc))
        assert run(["action", "--config", write_config(tmp_path, connection=f"file:{form}")]) == 2
        assert "bad connection file: bad data payload" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value", [("copy", []), ("copy", {}), ("degree", 9), ("degree", float("inf"))]
    )
    def test_spoiled_form_file_is_config_error(self, tmp_path, field, value):
        doc = _form_document(1)
        doc[field] = value
        form = tmp_path / "input.form.json"
        form.write_text(json.dumps(doc))
        assert run(["action", "--config", write_config(tmp_path, connection=f"file:{form}")]) == 2

    @pytest.mark.parametrize("command", ["verify", "action", "relax"])
    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, command, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
        solver = {"solver": {"max_iters": 3}} if command == "relax" else {}
        path = write_config(tmp_path, **solver)
        assert run([command, "--config", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "action", "relax", "selfdual"])
    def test_unwritable_output_is_found_before_the_run(self, tmp_path, capsys, command):
        # default solver: the run would take seconds, and its table would reach stdout
        assert run([command, "--output", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "cannot write output" in err

    @pytest.mark.parametrize("command", ["relax", "selfdual"])
    def test_unwritable_report_path_is_found_before_the_run(self, tmp_path, capsys, command):
        # a solve writes <out> and then <out>.report.json; both are checked before it starts
        out = tmp_path / "out.json"
        (tmp_path / "out.json.report.json").mkdir()
        assert run([command, "--output", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "cannot write output" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "action", "relax", "selfdual"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_empty_output_path_is_found_before_the_run(
        self, tmp_path, capsys, monkeypatch, command, where
    ):
        monkeypatch.chdir(tmp_path)
        if where == "flag":
            args = [command, "--output", ""]
        else:
            args = [command, "--config", write_config(tmp_path, output="")]
        before = sorted(tmp_path.iterdir())
        assert run(args) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "cannot write output" in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("output", ["a\x00b", "a" * 5000], ids=["nul-byte", "name-too-long"])
    def test_output_path_that_cannot_be_stat_is_config_error(self, tmp_path, capsys, output):
        # stat raises here (ValueError for a NUL byte, OSError for a long name), and so
        # does writing; both must end in exit 2, never a traceback
        assert run(["action", "--config", write_config(tmp_path, output=output)]) == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "action", "relax"])
    def test_form_file_on_the_tilde_copy_is_config_error(self, tmp_path, capsys, command):
        # connections and gauges live on the base copy
        doc = _form_document(0 if command == "verify" else 1)
        doc["copy"] = "tilde"
        form = tmp_path / "input.form.json"
        form.write_text(json.dumps(doc))
        config = {"gauge" if command == "verify" else "connection": f"file:{form}"}
        if command == "relax":
            config["solver"] = {"max_iters": 3}
        assert run([command, "--config", write_config(tmp_path, **config)]) == 2
        assert "on the tilde copy" in capsys.readouterr().err


def _assert_documented_exit(args, capsys):
    assert run(args) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


_PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestBoundaryProperties:
    @_PROPERTY_SETTINGS
    @given(command=st.sampled_from(["verify", "action", "relax", "selfdual"]), config=_CONFIG)
    def test_any_config_payload(self, capsys, command, config):
        with tempfile.TemporaryDirectory() as tmp:
            if config.get("output") == _MISSING_DIR_OUTPUT:
                config["output"] = str(Path(tmp) / "missing" / "out.json")
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config, allow_nan=True))
            _assert_documented_exit([command, "--config", str(path)], capsys)

    @_PROPERTY_SETTINGS
    @given(command=st.sampled_from(["action", "relax", "verify"]), payload=_form_payloads())
    def test_any_form_file_payload(self, capsys, command, payload):
        with tempfile.TemporaryDirectory() as tmp:
            form = Path(tmp) / "input.form.json"
            form.write_text(payload)
            field = "gauge" if command == "verify" else "connection"
            path = Path(tmp) / "config.json"
            config = {field: f"file:{form}"}
            if command == "relax":
                config["solver"] = {"max_iters": 3}
            path.write_text(json.dumps(config))
            _assert_documented_exit([command, "--config", str(path)], capsys)


_COMMON_FIELDS = ["amplitude", "output", "seed", "sizes", "topology"]


class TestCommandTable:
    """Each command accepts, validates and echoes only the fields it reads."""

    @pytest.mark.parametrize(
        "command,fields,solver",
        [
            ("verify", ["gauge"], None),
            ("action", ["connection"], None),
            ("relax", ["connection", "solver"], ["grad_tol", "max_iters"]),
            ("selfdual", ["connection", "solver"], ["anti", "grad_tol", "max_iters"]),
        ],
        ids=["verify", "action", "relax", "selfdual"],
    )
    def test_report_echoes_the_fields_the_command_reads(self, tmp_path, command, fields, solver):
        out = tmp_path / "out.json"
        config = {"solver": {"max_iters": 3}} if solver else {}
        path = write_config(tmp_path, output=str(out), **config)
        assert run([command, "--config", path]) == 0
        report_path = out if solver is None else tmp_path / "out.json.report.json"
        echoed = json.loads(report_path.read_text())["config"]
        assert sorted(echoed) == sorted(_COMMON_FIELDS + fields)
        if solver is not None:
            assert sorted(echoed["solver"]) == solver

    @pytest.mark.parametrize(
        "command,payload",
        [
            ("verify", {"connection": "zero"}),
            ("verify", {"solver": {"max_iters": 3}}),
            ("action", {"gauge": "identity"}),
            ("action", {"solver": {"max_iters": 3}}),
            ("relax", {"gauge": "identity"}),
            ("relax", {"solver": {"anti": False}}),
            ("selfdual", {"gauge": "identity"}),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(v),
    )
    def test_fields_the_command_does_not_read_are_config_errors(
        self, tmp_path, capsys, command, payload
    ):
        assert run([command, "--config", write_config(tmp_path, **payload)]) == 2
        assert f"unknown config fields for {command}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,field", [("verify", "gauge"), ("action", "connection")])
    def test_source_fields_are_type_checked(self, tmp_path, capsys, command, field):
        # relax's {"gauge": 5} in test_bad_field_types_are_config_errors now stops at the
        # unknown-field check; these reach the source check itself
        assert run([command, "--config", write_config(tmp_path, **{field: 5})]) == 2
        assert f"{field} must be one of" in capsys.readouterr().err

    def test_the_retired_gauge_name_is_a_config_error(self, tmp_path, capsys):
        # dual_compatible replaced it with no alias
        assert run(["verify", "--config", write_config(tmp_path, gauge="sum_profile")]) == 2
        assert "gauge must be one of" in capsys.readouterr().err

    def test_selfdual_checks_the_anti_type(self, tmp_path, capsys):
        path = write_config(tmp_path, solver={"anti": "yes"})
        assert run(["selfdual", "--config", path]) == 2
        assert "anti must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,payload",
        [("action", {"amplitude": 10**400}), ("relax", {"solver": {"grad_tol": 10**400}})],
        ids=["amplitude", "grad_tol"],
    )
    def test_integers_beyond_the_float_range_are_config_errors(
        self, tmp_path, capsys, command, payload
    ):
        assert run([command, "--config", write_config(tmp_path, **payload)]) == 2
        assert "finite number" in capsys.readouterr().err


class TestResourceLimits:
    @pytest.mark.parametrize("command", ["verify", "action", "relax", "selfdual"])
    @pytest.mark.parametrize("topology", ["sphere", "block"])
    def test_sizes_beyond_numpy_arrays_are_config_errors(self, tmp_path, capsys, command, topology):
        # rejected while validating the config, before anything is allocated
        path = write_config(tmp_path, topology=topology, sizes=[1_000_000] * 4)
        assert run([command, "--config", path]) == 2
        assert "too large" in capsys.readouterr().err

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(co, "random_connection", exhausted)
        assert run(["action"]) == 3
        err = capsys.readouterr().err
        assert "out of memory" in err and "Traceback" not in err
