import ctypes
import errno
import functools
import hashlib
import io
import math
import os
import platform
import shlex
import subprocess
import sys
import tracemalloc
import weakref
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from triclone import cli, iteration
from triclone.cli import (
    MAX_POINTS,
    SWEEP_COLUMNS,
    format_iteration_csv,
    format_sweep_csv,
    main,
    sweep_table,
)
from triclone.cloners import MAP_BLOCK, evaluate, local_channel, nonlocal_channel
from triclone.entanglement import input_states, measure_stack
from triclone.linalg import check_density_matrices, fidelities
from triclone.verification import check_channel_properties

# SHA-256 of the default 201-point sweep CSV, pinned with numpy 2.4.6.
SWEEP_201_SHA256 = "55e5bc56e5c6e9f6bbde71a567ed875f213d2d62aec71deee4b30c3bab1271fe"
# The same at 2 points and at 1000 points (three full blocks of
# ``cloners.MAP_BLOCK`` = 256 points and one partial block).
SWEEP_SHA256 = {
    2: "160d1cd94611f82074e048c77953d61afcd62a0da9955db74ec5f4fc3998c7f2",
    1000: "758f5650f06d4ce784c1518ecb41c7d519cd6cebb6f2bad67645d0733d5855e7",
}

# What each forced ``OPENBLAS_CORETYPE`` reports as its kernel; numpy's
# OpenBLAS reports a forced Prescott as Katmai.
KERNEL_NAMES = {
    "SkylakeX": "SkylakeX",
    "Haswell": "Haswell",
    "Sandybridge": "Sandybridge",
    "Prescott": "Katmai",
}

# SHA-256 of ``verify --seed <seed>`` stdout (exit code 1: criterion 06
# fails by design) and of the ``iterate --alpha 0.7 --steps 12`` CSV, pinned
# with numpy 2.4.6.  The CSV is the same under the SkylakeX and Haswell
# OpenBLAS kernels.
VERIFY_STDOUT_SHA256 = {
    12345: "33ab7765facc811f39cf40670ffa79591c72908a2bdb5c91cbbd6740a3afb143",
    301: "96ab08c05f08c4f4cccc7419a16b22b3ffa35b013be365418991b06f82cc748e",
    0: "e634dede321de958a3089fed5a9cc99017ad6e11d64877facf2c9dcb7ee3355c",
    1: "4089541059b9366fa42fb53d363562bfb4eed1c71d86e38e5330ffdcb5189c29",
    7: "ee92abd00b6ff1b0ec34d922cc43ba3ca367d2bec39db926dc2d093616429b79",
}
ITERATE_07_CSV_SHA256 = (
    "e08e9d6919a8406f2e84b0931d92c68a4a80bc2c7eb9fe5788de1e7f42c756f4"
)
# SHA-256 of the ``iterate`` stdout table and CSV, keyed by the extra argv:
# the default (alpha pi/4, 6 steps), a generic angle, and the near-product
# corner, whose pure step 0 gives the route seven eigenvectors of weight at
# rounding level.  Pinned with numpy 2.4.6.
ITERATE_SHA256 = {
    (): (
        "bccdf272662889efbbf35de786597d0cdad870d45d2855c870497c7785664f7c",
        "daa949026b58b3f3bf2170453b75357b5dd6314f66bfba63f516ea458f89bfee",
    ),
    ("--alpha", "0.7", "--steps", "12"): (
        "3b9b9fd7cdb3766ad0a9b8226b715987a7bb46811b81976f98bbafc5ad47abb4",
        ITERATE_07_CSV_SHA256,
    ),
    ("--alpha", "1e-9", "--steps", "12"): (
        "e1199fc0ee51852688afcce73e422c268bc3f6e7bff620912e8f2296772b8881",
        "f37b7357031e6fc7b67f868a0a24bd5791db86e3006b3c2c8a24670f15d423d6",
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

    @pytest.fixture(scope="class")
    def kernel_sweeps(self, tmp_path_factory):
        """Digests of the pinned sweeps under a forced kernel, one process each."""

        @functools.cache
        def digests(kernel):
            out = tmp_path_factory.mktemp(kernel)
            paths = {points: out / f"{points}.csv" for points in (201, 1000)}
            commands = [
                f"sweep --points {points} --output {shlex.quote(str(path))}"
                for points, path in paths.items()
            ]
            # One BLAS thread: with two, the 201-point sweep also moves under
            # Prescott, and reads 15d5c25d... under both Sandybridge and Prescott.
            code, err = _run_cli(
                [sys.executable, "-c", KERNEL_SCRIPT, *commands],
                extra_env={"OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1"},
            )
            assert code == 0
            if not err:
                pytest.skip("numpy's OpenBLAS does not report its kernel")
            assert err == f"{KERNEL_NAMES[kernel]}\n"
            return {
                points: hashlib.sha256(path.read_bytes()).hexdigest()
                for points, path in paths.items()
            }

        return digests

    @pytest.mark.parametrize("points", [201, 1000])
    @pytest.mark.parametrize("kernel", sorted(KERNEL_NAMES))
    def test_sweep_digest_under_each_blas_kernel(
        self, request, kernel_sweeps, kernel, points
    ):
        if (kernel, points) == ("Sandybridge", 201):
            request.applymarker(
                pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 17: the expectation product "
                    "(..., 64) @ _EXPECTATION_MATRIX moves this sweep to "
                    "0a19bcb5...; its sweep slice turns this case on",
                )
            )
        expected = {201: SWEEP_201_SHA256, 1000: SWEEP_SHA256[1000]}
        assert kernel_sweeps(kernel)[points] == expected[points]

    def test_values_round_trip_exactly(self):
        table = sweep_table(5)
        header, parsed = _parse_csv(format_sweep_csv(table))
        assert tuple(header) == SWEEP_COLUMNS
        assert parsed == table.tolist()
        _, e3, e2, f = evaluate([math.acos(x) for x in np.linspace(0.0, 1.0, 5)])
        assert [r[1] for r in parsed] == e3[0].tolist()
        assert [r[5] for r in parsed] == e2[1, :, 0].tolist()
        assert [r[8] for r in parsed] == f[1].tolist()

    def test_row_values_come_from_the_simulated_channel(self):
        # Each row against the kernels run on that input alone.
        states, e3s, e2s, f = evaluate(ALPHAS)
        for i, alpha in enumerate(ALPHAS):
            psi = input_states([alpha])
            rho = psi[:, :, None] * psi[:, None, :].conj()
            local = local_channel().map(rho)
            nonlocal_ = nonlocal_channel().map(rho)
            check_density_matrices(np.concatenate([rho, local, nonlocal_]))
            assert np.array_equal(states[1, i], local[0])
            assert np.array_equal(states[2, i], nonlocal_[0])
            for e3, e2, state in zip(e3s, e2s, (rho, local, nonlocal_)):
                one_e3, one_e2, _, _ = measure_stack(state)
                assert e3[i] == one_e3[0]
                assert e2[i].tolist() == one_e2[0].tolist()
            assert f[0, i] == fidelities(psi, local)[0]
            assert f[1, i] == fidelities(psi, nonlocal_)[0]

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

    def test_each_block_frees_its_states_before_the_next(self, monkeypatch):
        # At each evaluate() call, how many earlier blocks' states are alive,
        # and how many points the call gets: one MAP_BLOCK, then the rest.
        states, live, sizes = [], [], []

        def recording(alphas):
            live.append(sum(ref() is not None for ref in states))
            sizes.append(len(alphas))
            result = evaluate(alphas)
            states.append(weakref.ref(result[0]))
            return result

        monkeypatch.setattr(cli, "evaluate", recording)
        sweep_table(400)
        full, rest = divmod(400, MAP_BLOCK)
        assert sizes == [MAP_BLOCK] * full + [rest] * (rest > 0)
        assert live == [0] * len(sizes)

    def test_csv_formatting_memory_is_bounded(self):
        # The rows are formatted one block at a time, so the Python floats and
        # strings held at once stay small next to the text returned.
        table = sweep_table(20000)
        tracemalloc.start()
        try:
            text = format_sweep_csv(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)


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

    def test_unwritable_output_still_prints_the_table(self, tmp_path, capsys):
        # The CSV cannot be opened, yet the decay table goes to stdout; the
        # command then exits 2 with one error line.
        target = tmp_path / "missing" / "decay.csv"
        assert main(["iterate", "--output", str(target)]) == 2
        captured = capsys.readouterr()
        stdout_sha = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
        assert stdout_sha == ITERATE_SHA256[()][0]
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert not target.parent.exists()

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

    @pytest.mark.parametrize("kernel", ["SkylakeX", "Haswell"])
    def test_csv_digest_under_each_blas_kernel(self, tmp_path, kernel):
        # The trajectory is a chain of channel maps, whose bits do not depend
        # on the OpenBLAS kernel; ``measure_stack`` still does under
        # Sandybridge and Prescott.
        out = tmp_path / "decay.csv"
        command = f"iterate --alpha 0.7 --steps 12 --output {shlex.quote(str(out))}"
        code, err = _run_cli(
            [sys.executable, "-c", KERNEL_SCRIPT, command],
            stdout=subprocess.DEVNULL,
            extra_env={"OPENBLAS_CORETYPE": kernel},
        )
        assert code == 0
        if not err:
            pytest.skip("numpy's OpenBLAS does not report its kernel")
        assert err == f"{kernel}\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == ITERATE_07_CSV_SHA256

    def test_format_iteration_csv_round_trip(self):
        from triclone.iteration import iterate

        e3, e2, _ = iterate(0.4, 1)
        header, rows = _parse_csv(format_iteration_csv(e3, e2))
        assert rows[0][1] == e3[0]


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


@pytest.mark.parametrize(
    "command, name, value",
    [
        ("sweep", "DEFAULT_POINTS", 203),
        ("iterate", "DEFAULT_STEPS", 5),
        ("verify", "DEFAULT_SEED", 54321),
    ],
)
def test_help_states_the_default_constant(monkeypatch, capsys, command, name, value):
    # The help is formatted from the constant, so it cannot state another
    # default: a parser built with the constant changed prints the new value.
    for default in (getattr(cli, name), value):
        monkeypatch.setattr(cli, name, default)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser.__wrapped__().parse_args([command, "--help"])
        assert exc.value.code == 0
        assert f"(default {default}" in " ".join(capsys.readouterr().out.split())


def test_iterate_help_states_the_step_bound(monkeypatch, capsys):
    # The bound is the limit ``iterate`` enforces, and the help is formatted
    # from it: a parser built with the bound changed prints the new value.
    assert cli.MAX_STEPS is iteration.MAX_STEPS
    for bound in (iteration.MAX_STEPS, 9):
        monkeypatch.setattr(cli, "MAX_STEPS", bound)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser.__wrapped__().parse_args(["iterate", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"cloning steps, 1 to {bound} (default {cli.DEFAULT_STEPS})" in help_text


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

    def test_negative_seed_is_rejected_before_any_check(self, monkeypatch, capsys):
        from triclone import verification

        def forbidden(seed):
            raise AssertionError("checks ran for a negative seed")

        monkeypatch.setattr(verification, "run_all", forbidden)
        assert main(["verify", "--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative, got -5\n"

    def test_unbracketed_crossing_exits_one(self, monkeypatch, capsys):
        # A gap of one sign everywhere leaves no root to bracket.
        monkeypatch.setattr("triclone.cloners.e2_gaps", lambda xs: np.ones(len(xs)))
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: internal check failed: E2 crossing not bracketed"
        )

    def test_non_finite_gap_exits_one(self, monkeypatch, capsys):
        # A NaN gap is a failed internal check, not a side of a bracket.
        monkeypatch.setattr(
            "triclone.cloners.e2_gaps", lambda xs: np.full(len(xs), np.nan)
        )
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal check failed: E2 gap nan at cos(alpha)=0.0 is not finite\n"
        )

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["dance"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestClosedStdout:
    """A reader that has gone away ends a command with one line, not a traceback."""

    @pytest.mark.parametrize(
        "argv, unbuffered",
        [
            (["sweep", "--points", "2"], False),
            (["iterate"], False),
            (["verify"], True),
        ],
        ids=["sweep", "iterate", "verify-unbuffered"],
    )
    def test_exits_two_with_one_line(self, argv, unbuffered):
        # The read end is closed before the command starts, so its first write
        # fails every time: buffered output at the flush in ``main``,
        # unbuffered output at the first print.  A reader that closes after
        # one line races the remaining writes, which fit in the pipe buffer.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "triclone.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=300,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode("utf-8")
        assert proc.returncode == 2
        assert "Traceback" not in err
        assert err == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


def _run_cli(argv, extra_env=(), **kwargs):
    """Exit code and stderr of ``python -m triclone.cli`` with ``src`` importable."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra_env)
    proc = subprocess.run(
        argv, stderr=subprocess.PIPE, env=env, timeout=300, check=False, **kwargs
    )
    err = proc.stderr.decode("utf-8")
    assert "Traceback" not in err
    return proc.returncode, err


# Writes the name of the kernel that numpy's bundled OpenBLAS runs, if it
# reports one, to stderr, then runs ``triclone`` once per argument, each
# argument one shell-quoted command line; exits with the largest exit code.
KERNEL_SCRIPT = """\
import ctypes, glob, os, shlex, sys
import numpy
from triclone.cli import main
libs = glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*")
name = "scipy_openblas_get_corename64_"
get = getattr(ctypes.CDLL(libs[0]), name, None) if libs else None
if get is not None:
    get.restype = ctypes.c_char_p
    print(get().decode(), file=sys.stderr)
sys.exit(max(main(shlex.split(command)) for command in sys.argv[1:]))
"""


# Runs the command with descriptor 1 closed, so the child starts with
# ``sys.stdout`` set to None.
CLOSED_STDOUT = ["sh", "-c", 'exec "$0" -m triclone.cli "$@" >&-', sys.executable]


class _ShortWriteBuffer:
    """Takes ten bytes of the first write, then fails as a departed reader does."""

    def __init__(self):
        self.requested = []

    def write(self, data):
        self.requested.append(len(data))
        if len(self.requested) > 1:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return 10

    def flush(self):
        pass


class _ShortWriteStdout:
    encoding = "utf-8"

    def __init__(self, fd):
        self.buffer = _ShortWriteBuffer()
        self.fd = fd

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestStdoutFailures:
    """Every stdout failure exits 2 with one line; ``--output`` needs no stdout."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv", [["sweep", "--points", "2"], ["iterate"], ["verify"]], ids=" ".join
    )
    def test_full_device(self, argv):
        with open("/dev/full", "wb") as full:
            code, err = _run_cli(
                [sys.executable, "-m", "triclone.cli", *argv], stdout=full
            )
        assert code == 2
        assert err == (
            "error: cannot write to stdout: [Errno 28] No space left on device\n"
        )

    def test_closed_descriptor(self):
        code, err = _run_cli([*CLOSED_STDOUT, "sweep", "--points", "3"])
        assert code == 2
        assert err == "error: cannot write to stdout: [Errno 9] Bad file descriptor\n"

    def test_output_needs_no_stdout(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        argv = ["sweep", "--points", "3", "--output", str(target)]
        assert _run_cli([*CLOSED_STDOUT, *argv]) == (0, "")
        assert main(["sweep", "--points", "3"]) == 0
        assert target.read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_short_write_is_resumed_until_it_fails(self, tmp_path, monkeypatch, capsys):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        fake = _ShortWriteStdout(fd)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", fake)
                code = main(["sweep", "--points", "3"])
        finally:
            os.close(fd)
        size = len(format_sweep_csv(sweep_table(3)))
        assert code == 2
        assert fake.buffer.requested == [size, size - 10]
        err = capsys.readouterr().err
        assert err == "error: cannot write to stdout: [Errno 32] Broken pipe\n"

    def test_stream_without_buffer_gets_the_text(self):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["sweep", "--points", "3"]) == 0
        assert out.getvalue() == format_sweep_csv(sweep_table(3))


# After a warm-up, prints to stderr the minor page faults per 400-point sweep
# over five more, then writes the default sweep to stdout.
FAULT_SCRIPT = """\
import os, resource, sys
from triclone.cli import main
argv = ["sweep", "--points", "400", "--output", os.devnull]
main(argv)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    main(argv)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / 5, file=sys.stderr)
sys.exit(main(["sweep"]))
"""


class _Mallopt:
    """Stands in for glibc's ``mallopt`` and records its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


class _Recorder:
    def __init__(self):
        self.mallopt = _Mallopt()


def _no_library():
    raise OSError("cannot open the C library")


class TestMallocThresholds:
    """``main`` keeps freed block-sized temporaries in glibc's heap, once."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
    def test_warm_sweep_reuses_its_pages(self, tmp_path):
        out = tmp_path / "stdout"
        with open(out, "wb") as fh:
            code, err = _run_cli([sys.executable, "-c", FAULT_SCRIPT], stdout=fh)
        assert code == 0
        # About 620 per call when each block's memory goes back to the kernel.
        assert float(err) <= 8
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_201_SHA256

    def test_a_block_stays_in_the_heap(self):
        # A block's largest temporary, its states buffer, is served from the
        # heap, and the block's traced peak leaves half the trim threshold free,
        # so freeing the block hands no page back to the kernel.  With 256-point
        # blocks and a 2 MiB threshold a warm 400-point sweep made about 450
        # minor faults.
        alphas = [math.acos(float(x)) for x in np.linspace(0.0, 1.0, MAP_BLOCK)]
        evaluate(alphas)
        tracemalloc.start()
        try:
            states = evaluate(alphas)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.nbytes < cli._MMAP_THRESHOLD
        assert peak <= cli._TRIM_THRESHOLD // 2

    def test_check_08_stays_in_the_heap(self):
        # Check 08's route blocks, as a sweep block, leave half the trim
        # threshold free; a warm call traced about 1.5 MiB.
        check_channel_properties(12345)
        tracemalloc.start()
        try:
            assert check_channel_properties(12345).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._TRIM_THRESHOLD // 2

    @pytest.mark.parametrize(
        "library",
        [_Recorder, object, _no_library],
        ids=["mallopt", "no-mallopt", "no-library"],
    )
    def test_set_once_and_optional(self, monkeypatch, request, capsys, library):
        names, libs = [], []

        def cdll(name):
            names.append(name)
            libs.append(library())
            return libs[-1]

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        cli._keep_freed_blocks.cache_clear()
        request.addfinalizer(cli._keep_freed_blocks.cache_clear)
        for _ in range(2):
            assert main(["sweep", "--points", "2"]) == 0
            csv = capsys.readouterr().out.encode("utf-8")
            assert hashlib.sha256(csv).hexdigest() == SWEEP_SHA256[2]
        assert names == [None]
        if library is _Recorder:
            mallopt = libs[0].mallopt
            assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
            assert mallopt.calls == [
                (-3, cli._MMAP_THRESHOLD),
                (-1, cli._TRIM_THRESHOLD),
            ]
