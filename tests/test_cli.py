"""End-to-end checks of the command-line sweep tool."""

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import OMEGA_B_CALIBRATED, strip_timestamp
import spaserkit
from spaserkit import analysis, cli, tables
from spaserkit.analysis import (
    frame_at_spasing_frequency,
    growth_rate,
    spasing_frequency,
    steady_state_numeric,
    threshold_find,
    weak_field_background,
)
from spaserkit.cli import entry_point
from spaserkit.dynamics import integrate
from spaserkit.errors import RegimeWarning
from spaserkit.params import default_params
from spaserkit.state import SpaserState
from spaserkit.tables import read_csv, read_json

# the checkout under test, for runs in a fresh interpreter
SRC = str(Path(spaserkit.__file__).resolve().parent.parent)


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def data_lines(text):
    return [l for l in text.splitlines() if not l.startswith("#")]


def bits(rows):
    return [[float(x).hex() for x in row] for row in rows]


def run_at_workers(cfg, command, *flags):
    """Exit code, stdout (timestamp line aside) and stderr of one run at
    --workers 1 and one at --workers 2."""
    runs = []
    for workers in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "spaserkit", command, "--config", cfg,
             "--workers", workers, *flags],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        )
        runs.append((proc.returncode, strip_timestamp(proc.stdout).splitlines(), proc.stderr))
    return runs


# a short build-up at two drives with every step stored; the packaging
# smoke in .github/workflows/tier1.yml runs the same config
SHORT_TRAJECTORY = {
    "model": {"gain": {"pump_g": 8e12, "gamma_ph": 0.0}},
    "sweep": [{"path": "drive.omega_a_rabi", "values": [4e12, 24e12]}],
    "trajectory": {"t_end": {"value": 0.02, "unit": "ps"}, "store_every": 1},
}


class TestTrajectory:
    # sha256 of the SHORT_TRAJECTORY table without its timestamp line; the
    # metadata, the generator's version included, is part of these bytes
    SHORT_TABLE_SHA256 = {
        "csv": "fc1e192fb57320fe92c0cc518dd4c515aa9c191673a7fe3629e5615b03b986ed",
        "json": "91e590f29afe849aff4e4f2305cce6a1050116141ab321827995074e6fb362af",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_short_table_bytes_are_pinned(self, tmp_path, capsys, fmt):
        cfg = write_config(tmp_path, SHORT_TRAJECTORY)
        for workers in ("1", "2"):
            argv = ["trajectory", "--config", cfg, "--format", fmt, "--workers", workers]
            assert entry_point(argv) == 0
            text = strip_timestamp(capsys.readouterr().out)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == self.SHORT_TABLE_SHA256[fmt], workers

    def test_relaxes_onto_the_algebraic_operating_point(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {
                    "gain": {"pump_g": 8e12},
                    "drive": {"omega_a_rabi": 16e12},
                },
                "trajectory": {"t_end": 4e-12, "store_every": 100},
            },
        )
        out = str(tmp_path / "traj.csv")
        code = entry_point(["trajectory", "--config", cfg, "--out", out])
        assert code == 0
        table = read_csv(out)
        assert [c[0] for c in table.columns] == [
            "t", "N_n", "rho11", "rho22", "rho33",
            "re_rho21", "im_rho21", "trace_err",
        ]
        p = default_params(pump_g=8e12, omega_a_rabi=16e12)
        target = steady_state_numeric(p).n_n
        final_n = table.rows[-1][table.column_index("N_n")]
        assert final_n == pytest.approx(target, rel=0.01)
        assert table.rows[0][0] == 0.0
        assert all(abs(r[-1]) <= 1e-6 for r in table.rows)

    def test_axis_prefixes_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "sweep": [{"path": "gain.pump_g", "values": [6e12, 8e12]}],
                "trajectory": {"t_end": 1e-13, "store_every": 50},
            },
        )
        out = str(tmp_path / "traj.csv")
        assert entry_point(["trajectory", "--config", cfg, "--out", out]) == 0
        table = read_csv(out)
        assert table.columns[0] == ("gain.pump_g", "rad/s")
        idx = table.column_index("gain.pump_g")
        pumps = sorted({row[idx] for row in table.rows})
        assert pumps == [6e12, 8e12]

    def test_auto_frame_without_spasing_frequency_warns_and_uses_omega21(
        self, tmp_path
    ):
        """A detuned drive has no spasing frequency, so ``nu_ref: "auto"``
        warns and rotates at omega21, exactly like an explicit omega21."""

        def run(nu_ref):
            cfg = write_config(
                tmp_path,
                {
                    "model": {
                        "drive": {"omega_a_rabi": 4e12, "delta_a": 2e12},
                        "frame": {"nu_ref": nu_ref},
                    },
                    "trajectory": {"t_end": 1e-13, "store_every": 50},
                },
            )
            out = str(tmp_path / "traj.csv")
            assert entry_point(["trajectory", "--config", cfg, "--out", out]) == 0
            return read_csv(out).rows

        with pytest.warns(RegimeWarning, match="spasing frequency unavailable"):
            auto = run("auto")
        explicit = run(default_params().gain.omega21)
        assert len(auto) > 2
        assert auto == explicit

    def test_worker_count_does_not_change_the_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "sweep": [
                    {"path": "drive.omega_a_rabi", "values": [0.0, 12e12, 24e12]}
                ],
                "trajectory": {"t_end": 1e-14, "store_every": 1},
            },
        )
        texts = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            code = entry_point(
                ["trajectory", "--config", cfg, "--preset", "fig4b",
                 "--out", str(out), "--workers", workers]
            )
            assert code == 0
            texts.append(strip_timestamp(out.read_text()))
        assert texts[0] == texts[1]
        drives = {line.split(",")[0] for line in data_lines(texts[0])[1:]}
        assert drives == {"0", "12000000000000", "24000000000000"}

    def test_failed_points_are_reported_in_axis_order(self, tmp_path, capsys):
        """Pump 0 with gamma21 = gamma_ph = 0 and no drive leaves the
        weak-field background undefined; the other points still run."""
        cfg = write_config(
            tmp_path,
            {
                "model": {
                    "gain": {"gamma21": 0.0, "gamma_ph": 0.0},
                    "drive": {"omega_a_rabi": 0.0},
                },
                "sweep": [
                    {"path": "gain.pump_g", "values": [0.0, 8e12, 0.0, 4e12]}
                ],
                "trajectory": {"t_end": 1e-14, "store_every": 10},
            },
        )
        runs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            code = entry_point(
                ["trajectory", "--config", cfg, "--preset", "fig4b",
                 "--out", str(out), "--workers", workers]
            )
            runs.append((code, capsys.readouterr().err, data_lines(out.read_text())))
        assert runs[0] == runs[1]
        code, err, lines = runs[0]
        assert code == 2
        failures = err.splitlines()
        assert len(failures) == 2
        assert all(
            f.startswith("trajectory failed at gain.pump_g=0.0: ") for f in failures
        )
        pumps = [line.split(",")[0] for line in lines[1:]]
        assert pumps == ["8000000000000"] * 82 + ["4000000000000"] * 82

    def test_write_table_sees_what_the_tracer_reads(self, tmp_path, monkeypatch):
        """A benchmark tracer reads ``len(table.rows)`` and the returned
        text of ``write_table``.  On a pooled run, with the rows rendered
        in the workers, they are still the data rows and the file's text."""
        calls = []

        def recording_write_table(table, path, fmt):
            text = tables.write_table(table, path, fmt)
            calls.append((table, text))
            return text

        monkeypatch.setattr(cli, "write_table", recording_write_table)
        cfg = write_config(
            tmp_path,
            {"sweep": [{"path": "drive.omega_a_rabi", "values": [0.0, 8e12, 16e12]}],
             "trajectory": {"t_end": 1e-14, "store_every": 1}},
        )
        out = tmp_path / "traj.csv"
        assert entry_point(
            ["trajectory", "--config", cfg, "--preset", "fig4b",
             "--out", str(out), "--workers", "2"]
        ) == 0
        ((table, text),) = calls
        file_text = out.read_text()
        n_data = len(data_lines(file_text)) - 1  # the header aside
        assert n_data > 30
        assert len(table.rows) == n_data
        assert text == file_text

    def test_rows_equal_the_per_step_states(self, tmp_path, monkeypatch):
        """Each row is the stored step's state read field by field, so N_n
        stays Re(a)^2 + Im(a)^2 of the stored amplitude."""
        runs = []

        def recording_integrate(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            runs.append(traj)
            return traj

        monkeypatch.setattr(cli, "integrate", recording_integrate)
        cfg = write_config(tmp_path, {"trajectory": {"t_end": 5e-15}})
        out = str(tmp_path / "traj.csv")
        assert entry_point(
            ["trajectory", "--config", cfg, "--preset", "fig4b",
             "--out", out, "--workers", "1"]
        ) == 0
        table = read_csv(out)
        expected = []
        for drive, traj in zip((0.0, 24e12), runs, strict=True):
            for i in range(len(traj.t)):
                rho = traj.state(i).rho
                expected.append(
                    (drive, traj.t[i], traj.n_n[i], rho.p1, rho.p2, rho.p3,
                     rho.rho21.real, rho.rho21.imag, traj.trace_error[i])
                )
        assert len(expected) > 10
        assert bits(table.rows) == bits(expected)

    @pytest.mark.parametrize(
        "tol, rel_tol, abs_tol",
        [("1e-8", 1e-10, 1e-12), ("1e-3", 1e-6, 1e-8)],  # the second is clamped
    )
    def test_tol_sets_the_step_tolerances(self, tmp_path, tol, rel_tol, abs_tol):
        """--tol X runs the steps at rel_tol min(max(X/100, 1e-12), 1e-6)
        and abs_tol a hundredth of that.  (At X = 1e-5 the hundredth is
        1.0000000000000001e-07, not the float 1e-7, so X is chosen where
        it is exact.)"""
        cfg = write_config(tmp_path, {"trajectory": {"t_end": 2e-14, "store_every": 1}})
        out = str(tmp_path / "traj.csv")
        assert entry_point(["trajectory", "--config", cfg, "--out", out, "--tol", tol]) == 0
        params = frame_at_spasing_frequency(default_params())
        state0 = SpaserState(rho=weak_field_background(params), amplitude=1e-3 + 0j)
        traj = integrate(state0, params, 2e-14, rel_tol=rel_tol, abs_tol=abs_tol)
        expected = np.column_stack(
            (traj.t, traj.n_n, traj.y[:, :5], traj.trace_error)
        ).tolist()
        assert len(expected) > 10
        assert bits(read_csv(out).rows) == bits(expected)

    def test_trajectory_options_land_in_the_metadata(self, tmp_path):
        cfg = write_config(tmp_path, {"trajectory": {"t_end": 1e-15}})
        out = str(tmp_path / "traj.json")
        assert entry_point(
            ["trajectory", "--config", cfg, "--out", out, "--format", "json",
             "--tol", "1e-7", "--seed-amplitude", "1e-2"]
        ) == 0
        options = read_json(out).metadata["config"]["options"]
        assert options == {"tol": 1e-7, "seed_amplitude": 1e-2}


class TestSteadySweep:
    def test_rows_in_lexicographic_axis_order(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "sweep": [
                    {"path": "gain.pump_g", "values": [6e12, 2e13]},
                    {"path": "drive.omega_a_rabi", "values": [0.0, 16e12]},
                ],
            },
        )
        out = str(tmp_path / "s.csv")
        assert entry_point(["steady-sweep", "--config", cfg, "--out", out]) == 0
        table = read_csv(out)
        heads = [(r[0], r[1]) for r in table.rows]
        assert heads == [
            (6e12, 0.0), (6e12, 16e12), (2e13, 0.0), (2e13, 16e12),
        ]

    def test_rows_match_direct_solver_calls(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "sweep": [
                    {"path": "gain.pump_g", "values": [6e12, 2e13]},
                    {"path": "drive.omega_a_rabi", "values": [0.0, 16e12]},
                ],
            },
        )
        out = str(tmp_path / "s.csv")
        entry_point(["steady-sweep", "--config", cfg, "--out", out])
        table = read_csv(out)
        idx = table.column_index("N_n")
        for row in table.rows:
            ref = steady_state_numeric(
                default_params(pump_g=row[0], omega_a_rabi=row[1])
            )
            assert row[idx] == pytest.approx(ref.n_n, rel=1e-9, abs=1e-30)
            assert row[table.column_index("converged")] == 1.0

    def test_invalid_grid_point_flags_partial_exit(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"sweep": [{"path": "plasmon.n_p", "values": [60000.0, 0.5]}]},
        )
        out = str(tmp_path / "s.csv")
        code = entry_point(["steady-sweep", "--config", cfg, "--out", out])
        assert code == 2
        table = read_csv(out)
        assert len(table.rows) == 2
        good, bad = table.rows
        assert good[table.column_index("converged")] == 1.0
        assert bad[table.column_index("converged")] == 0.0
        assert math.isnan(bad[table.column_index("N_n")])

    def test_worker_count_does_not_change_the_bytes(self, tmp_path):
        data = {
            "sweep": [
                {"path": "gain.pump_g", "values": [4.4e12, 6e12, 8e12]},
                {"path": "drive.omega_a_rabi", "values": [0.0, 16e12]},
            ],
        }
        cfg = write_config(tmp_path, data)
        out1 = str(tmp_path / "w1.csv")
        outn = str(tmp_path / "wn.csv")
        assert entry_point(
            ["steady-sweep", "--config", cfg, "--out", out1, "--workers", "1"]
        ) == 0
        assert entry_point(
            ["steady-sweep", "--config", cfg, "--out", outn, "--workers", "3"]
        ) == 0
        strip = lambda p: strip_timestamp(open(p).read())
        assert strip(out1) == strip(outn)

    def test_requires_a_sweep_axis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        assert entry_point(["steady-sweep", "--config", cfg]) == 1
        assert "sweep" in capsys.readouterr().err

    def test_stdout_when_no_out_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"sweep": [{"path": "gain.pump_g", "values": [8e12]}]},
        )
        assert entry_point(["steady-sweep", "--config", cfg]) == 0
        text = capsys.readouterr().out
        lines = data_lines(text)
        assert lines[0].startswith("gain.pump_g (rad/s),N_n (1)")
        assert len(lines) == 2

    def test_json_format(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"sweep": [{"path": "gain.pump_g", "values": [8e12]}]},
        )
        out = str(tmp_path / "s.json")
        assert entry_point(
            ["steady-sweep", "--config", cfg, "--out", out, "--format", "json"]
        ) == 0
        payload = json.loads(open(out).read())
        assert payload["metadata"]["command"] == "steady-sweep"
        assert "config_hash" in payload["metadata"]
        table = read_json(out)
        assert table.rows[0][0] == 8e12


    def test_chromophore_count_axis_is_dimensionless(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"sweep": [{"path": "plasmon.n_p", "values": [60000.0]}]},
        )
        assert entry_point(["steady-sweep", "--config", cfg]) == 0
        header = data_lines(capsys.readouterr().out)[0]
        assert header.startswith("plasmon.n_p (1),N_n (1)")


class TestThreshold:
    def test_threshold_sweep_matches_direct_calls(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"sweep": [{"path": "drive.omega_a_rabi", "values": [0.0, 16e12]}]},
        )
        out = str(tmp_path / "th.csv")
        assert entry_point(["threshold", "--config", cfg, "--out", out]) == 0
        table = read_csv(out)
        idx = table.column_index("g_th")
        for row in table.rows:
            ref = threshold_find(default_params(omega_a_rabi=row[0])).g_th
            assert row[idx] == pytest.approx(ref, rel=1e-9)

    def test_missing_threshold_is_a_nan_sentinel_not_a_failure(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"model": {"plasmon": {"omega_b_single": 0.0}}},
        )
        out = str(tmp_path / "th.csv")
        code = entry_point(["threshold", "--config", cfg, "--out", out])
        assert code == 0
        table = read_csv(out)
        assert len(table.rows) == 1
        assert math.isnan(table.rows[0][table.column_index("g_th")])

    def test_rejected_swept_value_is_a_failure_not_the_sentinel(self, tmp_path):
        """A swept value the model rejects is no missing threshold: its NaN
        row is written and the run is partial, as in steady-sweep."""
        cfg = write_config(
            tmp_path,
            {"sweep": [{"path": "plasmon.n_p", "values": [0.5, 6e4]}]},
        )
        out = str(tmp_path / "th.csv")
        assert entry_point(["threshold", "--config", cfg, "--out", out]) == 2
        bad, good = read_csv(out).rows
        assert bad[0] == 0.5 and all(math.isnan(x) for x in bad[1:])
        assert good[0] == 6e4 and all(math.isfinite(x) for x in good[1:])

    def test_worker_count_does_not_change_the_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"sweep": [{"path": "drive.omega_a_rabi", "values": [0.0, 8e12, 16e12]}]},
        )
        runs = run_at_workers(cfg, "threshold")
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        assert len(data_lines("\n".join(runs[0][1]))) == 4


class TestStability:
    def test_columns_and_growth_values(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"drive": {"omega_a_rabi": 16e12}},
                "sweep": [{"path": "gain.pump_g", "values": [4.4e12, 6e12, 8e12]}],
            },
        )
        out = str(tmp_path / "st.csv")
        assert entry_point(["stability", "--config", cfg, "--out", out]) == 0
        table = read_csv(out)
        assert [c[0] for c in table.columns] == [
            "omega_a", "pump_g", "gamma_s", "gamma_s_over_gamma_n",
            "leading_re", "leading_im",
        ]
        gs = [row[table.column_index("gamma_s")] for row in table.rows]
        assert gs == sorted(gs)  # growth rate rises with pump
        ref = growth_rate(default_params(pump_g=8e12, omega_a_rabi=16e12))
        assert gs[-1] == pytest.approx(ref.gamma_s, rel=1e-9)
        assert all(row[table.column_index("omega_a")] == 16e12 for row in table.rows)

    def test_auto_frame_rotates_at_the_spasing_frequency(self, tmp_path):
        """Under ``nu_ref: "auto"`` a point's spectrum is taken in the frame
        of its own spasing frequency: the data rows are those of an
        explicit ``nu_ref`` at that frequency, and not those at omega21."""
        model = {"gain": {"pump_g": 8e12}, "drive": {"omega_a_rabi": 16e12}}

        def rows(nu_ref):
            cfg = write_config(tmp_path, {"model": {**model, "frame": {"nu_ref": nu_ref}}})
            out = tmp_path / "st.csv"
            assert entry_point(["stability", "--config", cfg, "--out", str(out)]) == 0
            return data_lines(out.read_text())

        auto = rows("auto")
        nu_s = spasing_frequency(default_params(pump_g=8e12, omega_a_rabi=16e12))
        assert len(auto) == 2  # the header and one point
        assert auto == rows(nu_s)
        assert auto != rows(default_params().gain.omega21)

    def test_a_swept_frame_is_fixed_and_gives_one_mode_frequency(self, tmp_path):
        """A ``frame.nu_ref`` axis under the default ``"auto"`` frame: each
        row is computed in its own frame, which the metadata records, and
        both rows give the same mode frequency nu_ref - leading_im, on
        either side of the frame, and the same growth rate."""
        cfg = write_config(tmp_path, {
            "sweep": [{"path": "frame.nu_ref", "values": [3.7e15, 3.9e15]}]})
        out = str(tmp_path / "st.csv")
        assert entry_point(["stability", "--config", cfg, "--out", out]) == 0
        table = read_csv(out)
        assert table.metadata["config"]["model"]["frame"]["nu_ref"] != "auto"
        nu, gamma_s, leading_im = (
            [row[table.column_index(name)] for row in table.rows]
            for name in ("frame.nu_ref", "gamma_s", "leading_im"))
        assert leading_im[0] < 0.0 < leading_im[1]
        modes = [n - im for n, im in zip(nu, leading_im)]
        assert modes[0] == pytest.approx(3.79987e15, rel=1e-5)
        assert modes[1] == pytest.approx(modes[0], rel=1e-9)
        assert gamma_s[1] == pytest.approx(gamma_s[0], rel=1e-9)

    def test_worker_count_does_not_change_the_bytes(self, tmp_path):
        cfg = write_config(tmp_path, {})
        runs = run_at_workers(cfg, "stability", "--preset", "fig4a")
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        assert len(data_lines("\n".join(runs[0][1]))) > 10

    def test_point_warnings_print_the_same_for_any_worker_count(self, tmp_path):
        """A frame far from the transitions warns at every point.  Each
        point's warnings travel with its rows, and the calling process
        prints each message once, in axis order, at the line that raised
        it: stderr does not depend on the worker count."""
        cfg = write_config(tmp_path, {
            "model": {"frame": {"nu_ref": 2.3e15}},
            "sweep": [{"path": "gain.pump_g", "values": [4.4e12, 8e12]}],
        })
        runs = run_at_workers(cfg, "stability")
        assert runs[0] == runs[1]
        code, _, err = runs[0]
        assert code == 0
        raised = [line for line in err.splitlines() if "RegimeWarning" in line]
        # the config's model warns for delta_b and delta_n in the calling
        # process, and the points' two messages are printed once
        assert len(raised) == 4
        files = [os.path.basename(line.split(": RegimeWarning")[0].rsplit(":", 1)[0])
                 for line in raised]
        assert files == ["config.py", "config.py", "cli.py", "cli.py"]

    def test_invalid_points_are_nan_rows_after_the_other_axes(self, tmp_path):
        """Other axes come first, then omega_a and pump_g (swept or not);
        a point the model rejects keeps its raw swept values."""
        cfg = write_config(
            tmp_path,
            {"sweep": [
                {"path": "plasmon.n_p", "values": [0.5, 6e4]},
                {"path": "gain.pump_g", "values": [-1.0, 8e12]},
            ]},
        )
        out = str(tmp_path / "st.csv")
        assert entry_point(["stability", "--config", cfg, "--out", out]) == 2
        table = read_csv(out)
        assert table.columns == (
            ("plasmon.n_p", "1"), ("omega_a", "rad/s"), ("pump_g", "rad/s"),
            ("gamma_s", "rad/s"), ("gamma_s_over_gamma_n", "1"),
            ("leading_re", "rad/s"), ("leading_im", "rad/s"),
        )
        omega_a = default_params().drive.omega_a_rabi
        heads = [row[:3] for row in table.rows]
        assert heads == [
            (0.5, omega_a, -1.0), (0.5, omega_a, 8e12),
            (6e4, omega_a, -1.0), (6e4, omega_a, 8e12),
        ]
        valid = [all(math.isfinite(x) for x in row[3:]) for row in table.rows]
        assert valid == [False, False, False, True]
        assert all(math.isnan(x) for row in table.rows[:3] for x in row[3:])


class TestCalibrate:
    def test_success_row(self, tmp_path):
        cfg = write_config(tmp_path, {})
        out = str(tmp_path / "cal.csv")
        assert entry_point(["calibrate", "--config", cfg, "--out", out]) == 0
        table = read_csv(out)
        assert [c[0] for c in table.columns] == [
            "omega_b_single", "threshold_ratio", "g_th_drive_off", "g_th_drive_on",
        ]
        (row,) = table.rows
        assert row[0] == pytest.approx(OMEGA_B_CALIBRATED, rel=1e-6)
        assert row[1] == pytest.approx(2.0, rel=0.01)
        assert row[2] / row[3] == pytest.approx(row[1], rel=1e-12)

    def test_runs_the_thresholds_inside_the_calibration_only(self, tmp_path, monkeypatch):
        """One ``calibrate`` run makes the 38 ``threshold_find`` calls of
        ``calibrate_coupling`` at the defaults and none of its own: the
        table's thresholds are the calibration's."""
        calls = {"analysis": 0, "cli": 0}

        def counting(where):
            def counted(*args, **kwargs):
                calls[where] += 1
                return threshold_find(*args, **kwargs)
            return counted

        monkeypatch.setattr(analysis, "threshold_find", counting("analysis"))
        monkeypatch.setattr(cli, "threshold_find", counting("cli"))
        cfg = write_config(tmp_path, {})
        out = str(tmp_path / "cal.csv")
        assert entry_point(["calibrate", "--config", cfg, "--out", out]) == 0
        assert calls == {"analysis": 38, "cli": 0}

    def test_unattainable_target_emits_curve_and_partial_exit(
        self, tmp_path, capsys
    ):
        cfg = write_config(tmp_path, {"calibrate": {"target_ratio": 5.0}})
        out = str(tmp_path / "cal.csv")
        code = entry_point(["calibrate", "--config", cfg, "--out", out])
        assert code == 2
        assert "calibration failed" in capsys.readouterr().err
        table = read_csv(out)
        assert [c[0] for c in table.columns] == ["omega_b_single", "threshold_ratio"]
        assert len(table.rows) >= 3
        for _w, ratio in table.rows:
            assert math.isnan(ratio) or ratio < 5.0

    @pytest.mark.parametrize("data, preset", [
        ({"sweep": [{"path": "gain.pump_g", "values": [1e12, 2e12, 3e12]}]}, None),
        ({}, "fig2"),
    ], ids=["file", "preset"])
    def test_sweep_axes_are_rejected(self, tmp_path, capsys, data, preset):
        """``calibrate`` fits one point, the config's model: a sweep axis,
        from the file or from a preset, is a config error, not a grid it
        ignores, and no table is written."""
        cfg = write_config(tmp_path, data)
        out = tmp_path / "cal.csv"
        argv = ["calibrate", "--config", cfg, "--out", str(out)]
        if preset is not None:
            argv += ["--preset", preset]
        assert entry_point(argv) == 1
        assert capsys.readouterr().err == "error: calibrate takes no sweep axes\n"
        assert not out.exists()


class TestGridHelpers:
    """``cli._map_chunks``: the calling process runs one share of the
    chunks and forked helpers run the rest.  The table, stderr, the
    warnings and the exit code are those of ``--workers 1`` for any grid
    size against any worker count, and every helper is gone when
    ``entry_point`` returns or raises, whether its share succeeded,
    raised or died.  (``conftest.py`` checks after every test that no
    child process is left.)"""

    # a far frame warns at every point, with the point's own nu_ref in the
    # message; n_p = 0.5 is a point the model rejects (a NaN row, exit 2)
    FAR = {"frame": {"nu_ref": 2.3e15}}
    NU_REF = "frame.nu_ref"
    GRIDS = {
        1: ({}, [(NU_REF, [2.3e15])]),
        2: ({}, [(NU_REF, [2.3e15, 3.8e15])]),
        3: (FAR, [("plasmon.n_p", [0.5, 6e4, 1e5])]),
        5: ({}, [(NU_REF, [2.3e15, 2.6e15, 3.0e15, 3.4e15, 3.8e15])]),
        9: ({}, [(NU_REF, [2.3e15, 2.6e15, 3.8e15]),
                 ("plasmon.n_p", [0.5, 6e4, 1e5])]),
    }

    @staticmethod
    def run(argv, capsys):
        """Exit code, stdout (timestamp line aside), stderr and the
        warnings shown, in order, as (message, category, file, line)."""
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            code = entry_point(argv)
        out, err = capsys.readouterr()
        return (code, strip_timestamp(out), err,
                [(str(w.message), w.category, w.filename, w.lineno) for w in shown])

    def grid(self, tmp_path, n):
        model, axes = self.GRIDS[n]
        return write_config(tmp_path, {
            "model": {"gain": {"pump_g": 8e12}, **model},
            "sweep": [{"path": p, "values": v} for p, v in axes]})

    @pytest.mark.parametrize("n", sorted(GRIDS))
    def test_steady_sweep_is_the_same_for_any_worker_count(self, tmp_path, capsys, n):
        cfg = self.grid(tmp_path, n)
        runs = [self.run(["steady-sweep", "--config", cfg, "--workers", w], capsys)
                for w in ("1", "2", "3", "4")]
        assert all(run == runs[0] for run in runs[1:])
        code, out, _, shown = runs[0]
        assert len(data_lines(out)) == n + 1
        assert code == (2 if n in (3, 9) else 0)
        assert len(shown) >= min(n, 3)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_short_trajectory_is_the_same_for_any_worker_count(self, tmp_path, capsys, fmt):
        cfg = write_config(tmp_path, SHORT_TRAJECTORY)
        runs = [self.run(["trajectory", "--config", cfg, "--format", fmt, "--workers", w],
                         capsys) for w in ("1", "2", "3", "4")]
        assert all(run == runs[0] for run in runs[1:])
        assert runs[0][0] == 0

    def share_in_helpers(self, monkeypatch, helper, caller=None):
        """Replace ``cli._chunk`` (before any fork) by ``helper`` in the
        helpers and by ``caller`` (else the real one) in this process."""
        real, parent = cli._chunk, os.getpid()

        def chunk(tasks):
            if os.getpid() != parent:
                return helper(tasks)
            return (caller or real)(tasks)

        monkeypatch.setattr(cli, "_chunk", chunk)

    def argv(self, tmp_path):
        return ["steady-sweep", "--config", self.grid(tmp_path, 9), "--workers", "3"]

    def test_an_error_in_a_helper_reaches_the_caller(self, tmp_path, monkeypatch):
        def broken(tasks):
            raise ValueError(f"no share of {len(tasks)} points")

        self.share_in_helpers(monkeypatch, broken)
        with pytest.raises(ValueError, match=r"^no share of 1 points$"):
            entry_point(self.argv(tmp_path))
        assert multiprocessing.active_children() == []

    def test_an_error_that_does_not_pickle_keeps_its_type_and_text(
        self, tmp_path, monkeypatch
    ):
        class LocalError(Exception):
            pass

        def broken(tasks):
            raise LocalError("defined in a test")

        self.share_in_helpers(monkeypatch, broken)
        with pytest.raises(RuntimeError, match=r"^LocalError: defined in a test$"):
            entry_point(self.argv(tmp_path))

    def test_a_helper_that_dies_is_named_with_its_exit_code(self, tmp_path, monkeypatch):
        self.share_in_helpers(monkeypatch, lambda tasks: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with code 3"):
            entry_point(self.argv(tmp_path))
        assert multiprocessing.active_children() == []

    def test_an_error_in_the_callers_share_stops_the_helpers(self, tmp_path, monkeypatch):
        def stuck(tasks):
            time.sleep(60)

        def broken(tasks):
            raise ValueError("the caller's share broke")

        self.share_in_helpers(monkeypatch, stuck, broken)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="the caller's share broke"):
            entry_point(self.argv(tmp_path))
        assert time.perf_counter() - start < 30.0
        assert multiprocessing.active_children() == []

    def test_without_fork_every_share_runs_here(self, tmp_path, capsys, monkeypatch):
        argv = self.argv(tmp_path)
        serial = self.run([*argv[:-1], "1"], capsys)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])

        def no_context(method=None):
            raise AssertionError("no helper may start without fork")

        monkeypatch.setattr(multiprocessing, "get_context", no_context)
        assert self.run(argv, capsys) == serial


class TestWrappedNames:
    """The public lane functions, replaced in ``analysis`` and ``cli`` by
    plain wrappers with no ``.lane`` (as the benchmark's tracer replaces
    them): the name a grid point calls is called once per point, and the
    table keeps its bytes."""

    NAMES = ("growth_rate", "spasing_frequency", "steady_state_numeric",
             "weak_field_background")

    @pytest.mark.parametrize("command, name", [
        ("steady-sweep", "steady_state_numeric"), ("stability", "growth_rate")])
    def test_called_once_per_point(self, tmp_path, capsys, monkeypatch, command, name):
        cfg = write_config(tmp_path, {"sweep": [
            {"path": "gain.pump_g", "values": [2e12, 8e12, 2e13]},
            {"path": "drive.omega_a_rabi", "values": [0.0, 16e12]},
        ]})
        argv = [command, "--config", cfg, "--workers", "1"]
        assert entry_point(argv) == 0
        plain = strip_timestamp(capsys.readouterr().out)
        calls = []

        def wrapped(fn, counted):
            def wrapper(*args, **kwargs):
                if counted:
                    calls.append(args)
                return fn(*args, **kwargs)
            return wrapper

        for module in (analysis, cli):
            for n in self.NAMES:
                if hasattr(module, n):
                    counted = module is cli and n == name
                    monkeypatch.setattr(module, n, wrapped(getattr(module, n), counted))
        assert entry_point(argv) == 0
        assert strip_timestamp(capsys.readouterr().out) == plain
        assert len(calls) == 6


class TestFiniteExtremes:
    """Every finite config value ends a run with its table or its
    ``failed at`` lines (exit 0 or 2), never with an error the CLI does
    not catch."""

    LEAVES = ("gain.omega21", "gain.omega32", "gain.gamma21", "gain.gamma31",
              "gain.gamma32", "gain.gamma_ph", "gain.pump_g", "plasmon.omega_n",
              "plasmon.gamma_n", "plasmon.n_p", "plasmon.omega_b_single",
              "drive.omega_a_rabi", "drive.delta_a")

    @pytest.mark.parametrize("leaf", LEAVES)
    @pytest.mark.filterwarnings("ignore")  # points this far out warn by design
    def test_each_leaf_at_its_extremes(self, tmp_path, capsys, leaf):
        """Each model leaf swept at 1e300, 1e200 and 1e-300 through
        ``steady-sweep`` and ``threshold`` (drive 16e12) and ``stability``:
        one row per run, a NaN row where the point fails."""
        for value in (1e300, 1e200, 1e-300):
            for command in ("steady-sweep", "stability", "threshold"):
                data = {"sweep": [{"path": leaf, "values": [value]}]}
                if command != "stability" and leaf != "drive.omega_a_rabi":
                    data["model"] = {"drive": {"omega_a_rabi": 16e12}}
                cfg = write_config(tmp_path, data)
                code = entry_point([command, "--config", cfg, "--workers", "1"])
                assert code in (0, 2), (command, value)
                assert len(data_lines(capsys.readouterr().out)) == 2, (command, value)

    def test_a_non_finite_spasing_frequency_is_none(self, tmp_path):
        """Undriven at gamma_n 1e300 the weighted-mean frequency overflows:
        the zero-branch row has nu_s NaN, not inf."""
        cfg = write_config(tmp_path, {
            "sweep": [{"path": "plasmon.gamma_n", "values": [1e300]}]})
        out = str(tmp_path / "ss.csv")
        assert entry_point(["steady-sweep", "--config", cfg, "--out", out]) == 0
        (row,) = read_csv(out).rows
        assert row[1] == 0.0 and math.isnan(row[4]) and row[5] == 1

    @pytest.mark.parametrize("frame", ["auto", 3.8e15])
    # the auto frame, with no spasing frequency there, warns and rotates at omega21
    @pytest.mark.filterwarnings("ignore::spaserkit.errors.RegimeWarning")
    def test_a_first_step_that_overflows_fails_the_point(self, tmp_path, capsys, frame):
        cfg = write_config(tmp_path, {
            "model": {"gain": {"pump_g": 8e12}, "frame": {"nu_ref": frame}},
            "sweep": [{"path": "drive.omega_a_rabi", "values": [1e300]}],
            "trajectory": {"t_end": {"value": 0.01, "unit": "ps"}},
        })
        assert entry_point(["trajectory", "--config", cfg, "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert "trajectory failed at drive.omega_a_rabi=1e+300: no first step" in err

    def test_a_coupling_without_a_defined_threshold_bounds_no_cell(self, tmp_path):
        """Couplings up to 1e300 rad/s: past ~1e154 the threshold is
        undefined (the coupling's square overflows), and the calibration
        goes on over the other couplings."""
        cfg = write_config(tmp_path, {"calibrate": {"bracket": [1e12, 1e300]}})
        out = str(tmp_path / "cal.csv")
        assert entry_point(["calibrate", "--config", cfg, "--out", out]) == 0
        (row,) = read_csv(out).rows
        assert row[1] == pytest.approx(2.0, rel=0.01)

    def test_a_detuned_drive_fails_the_calibration(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"drive": {"delta_a": 1e12}}})
        out = str(tmp_path / "cal.csv")
        assert entry_point(["calibrate", "--config", cfg, "--out", out]) == 2
        assert "calibration failed: " in capsys.readouterr().err
        assert read_csv(out).rows == ()


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = entry_point(
            ["steady-sweep", "--config", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert entry_point(["threshold", "--config", str(path)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_bad_worker_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        assert entry_point(
            ["threshold", "--config", cfg, "--workers", "0"]
        ) == 1
        assert capsys.readouterr().err == (
            "error: 'options.workers' must be an integer >= 1 or null\n"
        )

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tol", "nan", "'options.tol' must be finite, got nan"),
            ("--tol", "inf", "'options.tol' must be finite, got inf"),
            ("--seed-amplitude", "nan", "'options.seed_amplitude' must be finite, got nan"),
            ("--seed-amplitude", "inf", "'options.seed_amplitude' must be finite, got inf"),
            ("--seed-amplitude", "0", "'options.seed_amplitude' must be positive"),
        ],
    )
    def test_flags_pass_the_config_check(self, tmp_path, capsys, flag, value, message):
        """A flag gets the check and the message its config key gets, and
        a rejected run writes no table."""
        cfg = write_config(tmp_path, {"trajectory": {"t_end": 1e-15}})
        out = tmp_path / "traj.csv"
        assert entry_point(["trajectory", "--config", cfg, "--out", str(out), flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_flag_replaces_the_file_value_before_the_check(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"trajectory": {"t_end": 1e-15}, "options": {"tol": NaN}}')
        out = str(tmp_path / "traj.json")
        assert entry_point(
            ["trajectory", "--config", str(cfg), "--out", out, "--format", "json",
             "--tol", "1e-7"]
        ) == 0
        assert read_json(out).metadata["config"]["options"]["tol"] == 1e-7

    def test_unwritable_out_path_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"sweep": [{"path": "gain.pump_g", "values": [8e12]}]}
        )
        out = str(tmp_path / "missing" / "table.csv")
        assert entry_point(["steady-sweep", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n"
        )

    def test_unknown_command_usage_error(self):
        assert entry_point(["frobnicate", "--config", "x"]) == 1

    @pytest.mark.parametrize(
        "command, n_axes, message",
        [
            ("steady-sweep", 0, "steady-sweep needs between 1 and 3 sweep axes"),
            ("threshold", 2, "threshold supports at most 1 sweep axis"),
            ("stability", 3, "stability supports at most 2 sweep axes"),
            ("trajectory", 2, "trajectory supports at most 1 sweep axis"),
        ],
    )
    def test_axis_count_outside_the_command_range(
        self, tmp_path, capsys, command, n_axes, message
    ):
        paths = ("gain.pump_g", "drive.omega_a_rabi", "gain.gamma_ph")
        cfg = write_config(
            tmp_path,
            {"sweep": [{"path": p, "values": [8e12]} for p in paths[:n_axes]]},
        )
        assert entry_point([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestKnobInventory:
    """Every option each subcommand accepts.  A new knob must show up here;
    one that a command does not read is a usage error, never ignored, with
    one exception: ``calibrate`` accepts and ignores ``--workers``, because
    the benchmark loop (``bench/loop.py``) passes it to every command.  A
    sweep axis, which ``calibrate`` does not read either, is an error there
    (``TestCalibrate.test_sweep_axes_are_rejected``)."""

    COMMON = {"help", "config", "out", "format", "workers", "preset"}
    EXPECTED = {
        "trajectory": COMMON | {"tol", "seed_amplitude"},
        "steady-sweep": COMMON,
        "threshold": COMMON,
        "stability": COMMON,
        "calibrate": COMMON,
    }

    def test_option_dests_per_command(self):
        (subparsers,) = [
            a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        found = {
            name: {a.dest for a in sub._actions}
            for name, sub in subparsers.choices.items()
        }
        assert found == self.EXPECTED

    @pytest.mark.parametrize("flag", ["--tol", "--seed-amplitude"])
    def test_trajectory_only_flag_is_a_usage_error_elsewhere(
        self, tmp_path, capsys, flag
    ):
        cfg = write_config(
            tmp_path, {"sweep": [{"path": "gain.pump_g", "values": [8e12]}]}
        )
        assert entry_point(["steady-sweep", "--config", cfg, flag, "1e-8"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_console_script_is_installed():
    # run the checkout under test even when the package is not installed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spaserkit", "--help"],
        env=env,
        capture_output=True,
        text=True,
    )
    # module execution and the console script share entry_point
    assert proc.returncode == 0
    assert "steady-sweep" in proc.stdout
