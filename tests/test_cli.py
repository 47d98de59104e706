import hashlib
import math

import numpy as np
import pytest

from triclone import cli
from triclone.cli import (
    MAX_POINTS,
    SWEEP_COLUMNS,
    format_iteration_csv,
    format_sweep_csv,
    main,
    sweep_table,
)
from triclone.cloners import apply_local_cloning, apply_nonlocal_cloning, evaluate
from triclone.entanglement import PAIRS, input_state, measures
from triclone.linalg import fidelity_pure

# SHA-256 of the default 201-point sweep CSV, pinned with numpy 2.4.6.
SWEEP_201_SHA256 = "55e5bc56e5c6e9f6bbde71a567ed875f213d2d62aec71deee4b30c3bab1271fe"
# The same at 2 points and at 1000 points (seven full SWEEP_BLOCKs of 128
# points and one partial block).
SWEEP_SHA256 = {
    2: "160d1cd94611f82074e048c77953d61afcd62a0da9955db74ec5f4fc3998c7f2",
    1000: "758f5650f06d4ce784c1518ecb41c7d519cd6cebb6f2bad67645d0733d5855e7",
}

# SHA-256 of ``verify --seed <seed>`` stdout (exit code 1: criterion 06
# fails by design) and of the ``iterate --alpha 0.7 --steps 12`` CSV, pinned
# with numpy 2.4.6.
VERIFY_STDOUT_SHA256 = {
    12345: "33ab7765facc811f39cf40670ffa79591c72908a2bdb5c91cbbd6740a3afb143",
    301: "96ab08c05f08c4f4cccc7419a16b22b3ffa35b013be365418991b06f82cc748e",
}
ITERATE_07_CSV_SHA256 = (
    "86d0da2116b5d25f7f7e832e491f3b7ba7e34f9cc33da548dab00cca1a8f918a"
)
# SHA-256 of the ``iterate`` stdout table and CSV, keyed by the extra argv:
# the default (alpha pi/4, 6 steps), a generic angle, and the near-product
# corner where most eigenvectors fall under ``EIGENVALUE_CUTOFF``.  Pinned
# with numpy 2.4.6.
ITERATE_SHA256 = {
    (): (
        "bccdf272662889efbbf35de786597d0cdad870d45d2855c870497c7785664f7c",
        "c07b914ef173aaeb3a8ae1c9b8bacf6c93cf5745458e20c1ec2cf1a22f709f87",
    ),
    ("--alpha", "0.7", "--steps", "12"): (
        "3b9b9fd7cdb3766ad0a9b8226b715987a7bb46811b81976f98bbafc5ad47abb4",
        ITERATE_07_CSV_SHA256,
    ),
    ("--alpha", "1e-9", "--steps", "12"): (
        "e1199fc0ee51852688afcce73e422c268bc3f6e7bff620912e8f2296772b8881",
        "e6cf77545aa73b6ea6866cb7a80d8c5c6206a7f1f7f7ef220e0e6b873d5f8eed",
    ),
}

# Corners, the balanced state, cos(alpha) = 0.5, and generic angles whose
# outputs have dense spectra.
ALPHAS = (0.0, 0.3, math.acos(0.5), math.pi / 4, 0.7, 1.2, math.pi / 2)


def _parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestSweep:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "5", "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        header, rows = _parse_csv(text)
        assert tuple(header) == SWEEP_COLUMNS
        assert len(rows) == 5
        cos_column = [r[0] for r in rows]
        assert cos_column == sorted(cos_column)
        assert cos_column[0] == 0.0 and cos_column[-1] == 1.0

    def test_deterministic_bytes(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["sweep", "--points", "21", "--output", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_endpoint_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "3", "--output", str(out)]) == 0
        _, rows = _parse_csv(out.read_text(encoding="utf-8"))
        last = dict(zip(SWEEP_COLUMNS, rows[-1]))
        assert last["cos_alpha"] == 1.0
        assert last["e3_input"] <= 1e-12
        assert last["e2_input"] <= 1e-12
        assert last["e3_local"] <= 1e-12
        assert last["f_local"] == pytest.approx(125.0 / 216.0, abs=1e-12)
        assert last["f_nonlocal"] == pytest.approx(11.0 / 18.0, abs=1e-12)

    def test_f_nonlocal_column_is_constant(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "11", "--output", str(out)]) == 0
        _, rows = _parse_csv(out.read_text(encoding="utf-8"))
        column = [r[SWEEP_COLUMNS.index("f_nonlocal")] for r in rows]
        assert max(abs(v - 11.0 / 18.0) for v in column) <= 1e-12

    def test_default_sweep_digest(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_201_SHA256

    @pytest.mark.parametrize("points", sorted(SWEEP_SHA256))
    def test_sweep_digest(self, tmp_path, points):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", str(points), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256[points]

    def test_values_round_trip_exactly(self):
        table = sweep_table(5)
        header, parsed = _parse_csv(format_sweep_csv(table))
        assert tuple(header) == SWEEP_COLUMNS
        assert parsed == table.tolist()
        grid = evaluate([math.acos(x) for x in np.linspace(0.0, 1.0, 5)])
        assert [r[1] for r in parsed] == grid.e3_in.tolist()
        assert [r[5] for r in parsed] == grid.e2_local[:, 0].tolist()
        assert [r[8] for r in parsed] == grid.f_nonlocal.tolist()

    def test_row_values_come_from_the_simulated_channel(self):
        grid = evaluate(ALPHAS)
        for i, alpha in enumerate(ALPHAS):
            psi = input_state(alpha)
            rho = psi.density_matrix()
            local = apply_local_cloning(rho)
            nonlocal_ = apply_nonlocal_cloning(rho)
            assert np.array_equal(grid.local_out[i], local.matrix)
            assert np.array_equal(grid.nonlocal_out[i], nonlocal_.matrix)
            for e3, e2, state in (
                (grid.e3_in, grid.e2_in, rho),
                (grid.e3_local, grid.e2_local, local),
                (grid.e3_nonlocal, grid.e2_nonlocal, nonlocal_),
            ):
                report = measures(state)
                assert e3[i] == report.e3
                assert e2[i].tolist() == [report.e2[p] for p in PAIRS]
            assert grid.f_local[i] == fidelity_pure(psi, local)
            assert grid.f_nonlocal[i] == fidelity_pure(psi, nonlocal_)

    def test_stdout_mode(self, capsys):
        assert main(["sweep", "--points", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(",".join(SWEEP_COLUMNS))

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "sweep.csv"
        assert main(["sweep", "--points", "3", "--output", str(target)]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_points_is_usage_error(self, capsys):
        assert main(["sweep", "--points", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_points_above_cap_is_rejected_before_computing(self, monkeypatch, capsys):
        requested = []

        def record(points):
            requested.append(points)
            return np.empty((0, len(SWEEP_COLUMNS)))

        monkeypatch.setattr(cli, "sweep_table", record)
        assert main(["sweep", "--points", "1000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(MAX_POINTS) in err
        assert requested == []
        assert main(["sweep", "--points", str(MAX_POINTS)]) == 0
        assert requested == [MAX_POINTS]


class TestIterate:
    def test_table_output(self, capsys):
        assert main(["iterate"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].split() == ["step", "0", "1", "2", "3", "4", "5", "6"]
        assert "1.0000" in lines[1] and "0.3086" in lines[1]
        assert "0.3333" in lines[2] and "0.1029" in lines[2]
        # Step 6 shows the computed value, not a hard zero.
        assert lines[1].split()[-1] == "0.0009"
        assert lines[2].split()[-1] == "0.0003"

    def test_csv_full_precision(self, tmp_path, capsys):
        out = tmp_path / "decay.csv"
        assert main(["iterate", "--output", str(out)]) == 0
        capsys.readouterr()
        header, rows = _parse_csv(out.read_text(encoding="utf-8"))
        assert header == ["step", "e3", "e2"]
        assert len(rows) == 7
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
        assert rows[2][1] == pytest.approx((25.0 / 81.0) ** 2, abs=1e-12)

    def test_custom_alpha_and_steps(self, capsys):
        assert main(["iterate", "--alpha", "0.3", "--steps", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split() == ["step", "0", "1", "2"]

    def test_failed_internal_check_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr("triclone.iteration.ROUTE_AGREEMENT_ATOL", -1.0)
        assert main(["iterate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal check failed:")
        assert "spectral-mixture route" in err

    def test_non_finite_alpha_is_usage_error(self, capsys):
        for alpha in ("nan", "inf"):
            assert main(["iterate", "--alpha", alpha]) == 2
            assert capsys.readouterr().err == "error: alpha must be finite\n"

    def test_too_many_steps_is_usage_error(self, capsys):
        for steps in ("13", "0"):
            assert main(["iterate", "--steps", steps]) == 2
            assert "error" in capsys.readouterr().err

    def test_csv_digest(self, tmp_path, capsys):
        out = tmp_path / "decay.csv"
        argv = ["iterate", "--alpha", "0.7", "--steps", "12", "--output", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == ITERATE_07_CSV_SHA256

    @pytest.mark.parametrize(
        "extra", sorted(ITERATE_SHA256), ids=lambda extra: " ".join(extra) or "default"
    )
    def test_table_and_csv_digests(self, tmp_path, capsys, extra):
        out = tmp_path / "decay.csv"
        assert main(["iterate", *extra, "--output", str(out)]) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        table_sha, csv_sha = ITERATE_SHA256[extra]
        assert hashlib.sha256(stdout).hexdigest() == table_sha
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha

    def test_format_iteration_csv_round_trip(self):
        from triclone.iteration import iterate

        trace = iterate(0.4, 1)
        header, rows = _parse_csv(format_iteration_csv(trace))
        assert rows[0][1] == trace.steps[0].e3


class TestParser:
    def test_one_parser_serves_every_call(self, capsys):
        assert main(["sweep", "--points", "3"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == ",".join(SWEEP_COLUMNS) and len(out) == 4
        assert main(["iterate", "--steps", "13"]) == 2
        assert "n_steps must be between 1 and 12, got 13" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--points", "three"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["iterate", "--alpha", "0.3", "--steps", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split() == ["step", "0", "1", "2"]
        assert main(["iterate"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split() == ["step", "0", "1", "2", "3", "4", "5", "6"]
        assert lines[1].split()[1] == "1.0000"
        assert cli.build_parser.cache_info().misses == 1


class TestVerify:
    def test_exit_code_matches_reported_status(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        lines = [l for l in out.strip().split("\n")]
        status_lines = [l for l in lines if l.startswith("[")]
        assert len(status_lines) == 10
        failures = [l for l in status_lines if " FAIL " in l]
        assert code == (0 if not failures else 1)
        assert sum(1 for l in lines if l.startswith("info:")) == 2
        assert lines[-1].endswith("checks passed")

    @pytest.mark.parametrize("seed", sorted(VERIFY_STDOUT_SHA256))
    def test_stdout_digest(self, capsys, seed):
        assert main(["verify", "--seed", str(seed)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
        assert digest == VERIFY_STDOUT_SHA256[seed]

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["dance"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
