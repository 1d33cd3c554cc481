import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qdelannoy
from qdelannoy.polyring import IntPoly
from qdelannoy.cli import main
from reference import poly_from_json

# Where the imported package lives, so a subprocess runs the same copy.
SRC = Path(qdelannoy.__file__).resolve().parent.parent


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qdelannoy", *args],
        capture_output=True,
        env=_src_env(),
    )


def test_compute_qdelannoy_text():
    result = run_cli("compute", "qdelannoy", "--h", "2", "--k", "2")
    assert result.returncode == 0
    assert result.stdout == b"1 + 2*q + 4*q^2 + 4*q^3 + 2*q^4\n"


def test_compute_missing_flag_is_usage_error():
    result = run_cli("compute", "qdelannoy", "--h", "2")
    assert result.returncode == 2


def test_unknown_subcommand_is_usage_error():
    result = run_cli("compute", "nonsense")
    assert result.returncode == 2


def test_compute_routes_agree():
    outputs = set()
    for route in ("def", "alt", "rec"):
        result = run_cli("compute", "qdelannoy", "--h", "3", "--k", "2", "--route", route)
        assert result.returncode == 0
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_compute_delannoy_and_cyclotomic():
    assert run_cli("compute", "delannoy", "--h", "3", "--k", "3").stdout == b"63\n"
    assert run_cli("compute", "cyclotomic", "--n", "6").stdout == b"1 - q + q^2\n"
    assert run_cli("compute", "qbinom", "--h", "4", "--k", "2").stdout == b"1 + q + 2*q^2 + q^3 + q^4\n"
    assert run_cli("compute", "sigma-poly", "--h", "1", "--k", "1").stdout == b"1 + 2*q\n"


def test_compute_json_round_trips():
    result = run_cli("compute", "qdelannoy", "--h", "2", "--k", "2", "--json")
    payload = json.loads(result.stdout)
    assert payload["route"] == "rec"
    poly = poly_from_json(payload["coeffs"])
    assert poly == IntPoly([1, 2, 4, 4, 2])


def test_compute_bad_value_exits_2():
    result = run_cli("compute", "cyclotomic", "--n", "0")
    assert result.returncode == 2
    assert b"error:" in result.stderr


def test_verify_thm2_passes():
    result = run_cli("verify", "thm2", "--max-n", "3", "--max-h", "3", "--max-k", "3")
    assert result.returncode == 0
    assert b"48 cases, 48 passed, 0 failed" in result.stdout


def test_verify_json_summary():
    result = run_cli("verify", "qlucas", "--max-n", "4", "--max-a", "2", "--max-c", "2", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["failed"] == 0
    assert payload["total"] == sum(9 * n * n for n in range(1, 5))
    assert payload["failures"] == []


def test_verify_interp():
    result = run_cli("verify", "interp", "--max-h", "3", "--max-k", "3")
    assert result.returncode == 0


def test_orbits_audit_ok():
    result = run_cli("orbits", "audit", "--h", "1", "--k", "1", "--n", "2")
    assert result.returncode == 0
    assert b"violations: none" in result.stdout


def test_orbits_audit_json():
    result = run_cli("orbits", "audit", "--h", "0", "--k", "0", "--n", "2", "--json")
    payload = json.loads(result.stdout)
    assert payload["ok"] is True
    assert payload["total_paths"] == 13


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    result = run_cli(
        "verify", "thm2", "--max-n", "2", "--max-h", "2", "--max-k", "2", "--json", "--out", str(target)
    )
    assert result.returncode == 0
    assert result.stdout == b""
    payload = json.loads(target.read_text())
    assert payload["failed"] == 0


@pytest.mark.parametrize(
    "args",
    [
        ("compute", "delannoy", "--h", "1", "--k", "1"),
        ("verify", "thm2", "--max-n", "2", "--max-h", "1", "--max-k", "1"),
        ("orbits", "audit", "--h", "0", "--k", "0", "--n", "1"),
    ],
    ids=["compute", "verify", "orbits"],
)
def test_unwritable_out_is_usage_error(args, tmp_path):
    result = run_cli(*args, "--out", str(tmp_path / "missing" / "out.txt"))
    assert result.returncode == 2
    assert result.stderr.startswith(b"error:")
    assert result.stdout == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
def test_failed_out_write_is_usage_error():
    result = run_cli("compute", "delannoy", "--h", "1", "--k", "1", "--out", "/dev/full")
    assert result.returncode == 2
    assert result.stderr.startswith(b"error:")


def test_byte_identical_across_runs_and_jobs():
    base = ("verify", "thm2", "--max-n", "3", "--max-h", "2", "--max-k", "2", "--json")
    first = run_cli(*base, "--jobs", "1")
    second = run_cli(*base, "--jobs", "1")
    parallel = run_cli(*base, "--jobs", "2")
    assert first.stdout == second.stdout == parallel.stdout
    assert first.returncode == parallel.returncode == 0

    interp = ("verify", "interp", "--max-h", "5", "--max-k", "4", "--json")
    runs = [run_cli(*interp, "--jobs", jobs) for jobs in ("1", "1", "2")]
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert [run.returncode for run in runs] == [0, 0, 0]

    audit_run = ("orbits", "audit", "--h", "1", "--k", "0", "--n", "3")
    assert run_cli(*audit_run).stdout == run_cli(*audit_run).stdout


def test_requests_do_not_import_a_process_pool():
    # --jobs workers are forked directly, so no request, pooled or not,
    # pays for importing concurrent.futures or multiprocessing.
    script = (
        "import contextlib, io, sys\n"
        "from qdelannoy.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv.split())\n"
        "    print(code, 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n"
    )
    requests = (
        "compute delannoy --h 0 --k 0",
        "orbits audit --h 1 --k 0 --n 3",
        "verify interp --max-h 3 --max-k 3 --jobs 1",
        "verify thm1 --max-n 3 --max-a 1 --max-c 1 --jobs 2",
    )
    result = subprocess.run([sys.executable, "-c", script, *requests], capture_output=True, env=_src_env(), text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 False False\n" * len(requests)


def test_unflushed_output_before_a_pooled_sweep_appears_once():
    # stdout is a pipe, so the first line is still in the parent's buffer
    # when the workers fork; a worker that flushed it would print it again.
    script = (
        "from qdelannoy.congruence import SweepConfig, sweep\n"
        "print('before the sweep')\n"
        "print(sweep(SweepConfig('thm1', max_n=4, max_a=1, max_c=1, jobs=2)).total)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_src_env(), text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "before the sweep\n" + str(4 * (1 + 4 + 9 + 16)) + "\n"


def test_requests_do_not_import_dataclasses_or_inspect():
    # The package's records are NamedTuples, so no request pays for
    # dataclasses and the inspect/ast/dis/tokenize chain it imports.
    script = (
        "import contextlib, io, sys\n"
        "from qdelannoy.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv.split())\n"
        "    print(code, 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    requests = (
        "compute delannoy --h 0 --k 0",
        "verify thm2 --max-n 2 --max-h 1 --max-k 1 --jobs 1",
        "orbits audit --h 1 --k 0 --n 3",
    )
    result = subprocess.run([sys.executable, "-c", script, *requests], capture_output=True, env=_src_env(), text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 False False\n" * len(requests)


def test_main_callable_in_process(capsys):
    code = main(["compute", "qdelannoy", "--h", "1", "--k", "1"])
    assert code == 0
    assert capsys.readouterr().out == "1 + 2*q\n"


def test_audit_violations_exit_1(monkeypatch, capsys):
    import qdelannoy.cli as cli_module
    from qdelannoy.orbits import AuditReport

    broken = AuditReport(
        h=0,
        k=0,
        n=1,
        total_paths=3,
        class_counts={"Q1": 0, "Q2": 0, "Q3": 2, "Q4": 1},
        orbit_histograms={"Q1": {}, "Q2": {}, "Q3": {}, "Q4": {1: 1}},
        fixed_counts={"Q1": 0, "Q2": 0, "Q3": 2, "Q4": 1},
        sums={"S1": IntPoly(), "S2": IntPoly(), "S3": IntPoly([1, 1]), "S4": IntPoly([0, 1])},
        grand_total=IntPoly([1, 2]),
        violations=["synthetic violation"],
    )
    monkeypatch.setattr(cli_module, "audit", lambda frame: broken)
    code = main(["orbits", "audit", "--h", "0", "--k", "0", "--n", "1"])
    assert code == 1
    assert "VIOLATION synthetic violation" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, argv",
    [
        ("cyclotomic", ["compute", "cyclotomic", "--n", "100000000"]),
        ("sweep", ["verify", "thm2", "--max-n", "1000000000"]),
        ("audit", ["orbits", "audit", "--h", "0", "--k", "0", "--n", "100000000"]),
    ],
)
def test_out_of_memory_exits_2(name, argv, monkeypatch, capsys):
    # Exit 1 means a check failed, so running out of memory is reported like
    # a usage error: one line on stderr, nothing on stdout.
    import qdelannoy.cli as cli_module

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_module, name, exhausted)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("what", ["delannoy", "qdelannoy", "qbinom", "sigma-poly"])
def test_compute_negative_argument_exits_2(what, capsys):
    assert main(["compute", what, "--h", "-1", "--k", "2"]) == 2
    assert main(["compute", what, "--h", "2", "--k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 2


@pytest.mark.parametrize("flags", [("--jobs", "0"), ("--jobs", "-3"), ("--max-n", "-2"), ("--max-h", "-1")])
def test_verify_bad_bounds_exit_2(flags, capsys):
    assert main(["verify", "thm2", "--max-n", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "statement, flag",
    [("thm2", "--max-a"), ("thm2", "--max-c"), ("thm1", "--max-h"), ("lucas", "--max-k"), ("interp", "--max-n")],
)
def test_verify_foreign_bound_is_usage_error(statement, flag, capsys):
    # argparse knows only the statement's own bounds, so it exits 2 itself.
    with pytest.raises(SystemExit) as exc:
        main(["verify", statement, flag, "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


# sha256 of `verify <statement>` output, text then --json, recorded from the
# sweep whose statement knowledge was spread over name branches, before the
# one-entry-per-statement registry replaced them.
VERIFY_GOLDEN = [
    (("thm2", "--max-n", "4", "--max-h", "3", "--max-k", "3"),
     "25831d3655cf77815b790a1dd2bf62818d547d0ef95a3e6733568a1b2bc00655",
     "360de6bbab6c2ebdb7237677a4787cbe24421254b42ee21e1e8ec397bfb40e4d"),
    (("thm1", "--max-n", "5", "--max-a", "2", "--max-c", "2"),
     "909fef56cacfe58af890fd6e8a5613bdc84261d975a8d4688d77947eee7f3340",
     "a3768a0cd5868e3a88c5b065f7a15d2f59e7105c2e2a9f5006142316213ea9e2"),
    (("qlucas", "--max-n", "5", "--max-a", "2", "--max-c", "2"),
     "fb4c4fa2357fcac53d26ba68bf0943bcf320bfcae16b59cf657c810156586cf3",
     "375741e929a9b147339a85ef76a9f629b628657ff3c8ebc77a573ed70024a404"),
    (("lucas", "--max-n", "7", "--max-a", "2", "--max-c", "2"),
     "63b80804bcd5c0a6f1f93882ff66de48aa1fd111ebd075d38a2336344e00a452",
     "0153d06df252ba2fca0328bede90af90e949a923cde2869e20c24df86dece024"),
    (("dlucas", "--max-n", "7", "--max-a", "2", "--max-c", "2"),
     "38e79776ddfa8117ae223883ab2a1138fa43d0be60851fd17d2a59a8eee3e656",
     "cdc94a22efedb2b54c8d157bb6b101a0aa2ac765eb470dee3eb927ac2b2c146d"),
    (("interp", "--max-h", "4", "--max-k", "3"),
     "729b65b3c425fcf86180eb4af884cc43e037247075beae5aea352922a5a97866",
     "906fb7bc83febb151c60afa055546bc3171b2ce6187d3bf0353b337cb9c04d7c"),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "args, text_digest, json_digest", VERIFY_GOLDEN, ids=[args[0] for args, _, _ in VERIFY_GOLDEN]
)
def test_verify_golden_output(args, text_digest, json_digest, as_json, tmp_path):
    target = tmp_path / "out.txt"
    flags = ["--json"] if as_json else []
    assert main(["verify", *args, *flags, "--out", str(target)]) == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == (json_digest if as_json else text_digest)


def _readme_cli_commands():
    """(argv, expected output or None) for each command in README's CLI block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if not command.strip():
            continue
        argv = shlex.split(command)
        assert argv[0] == "qdelannoy", line
        comment = comment.strip()
        commands.append((argv[1:], comment[2:].strip() if comment.startswith("=>") else None))
    return commands


def test_readme_cli_commands_run(tmp_path):
    commands = _readme_cli_commands()
    assert len(commands) == 13
    for argv, expected in commands:
        target = tmp_path / "out.txt"
        assert main([*argv, "--out", str(target)]) == 0, argv
        if expected is not None:
            assert target.read_text(encoding="utf-8") == expected + "\n", argv


# sha256 of the output of the compute-routes benchmark's centre requests,
# recorded from the memo-table implementation the packed fills replaced.
GOLDEN = [
    (("qdelannoy", "--route", "rec", "--h", "70", "--k", "70", "--json"),
     "3347eeb2d67f699035a1242f14353a10a128cedc61f0fe11a9b841b282c294ed"),
    (("qbinom", "--h", "140", "--k", "70", "--json"),
     "f733369cf63d23c0284ade99783bd0637538ce0a7d6c9fe90fb5ee49b9152904"),
    (("qdelannoy", "--route", "def", "--h", "36", "--k", "36"),
     "705c3a8eda8d244c99286b983dd33cbf651065c9853704d75e5e339cfda7ffcc"),
    (("qdelannoy", "--route", "alt", "--h", "36", "--k", "36"),
     "705c3a8eda8d244c99286b983dd33cbf651065c9853704d75e5e339cfda7ffcc"),
]


@pytest.mark.parametrize("args, digest", GOLDEN, ids=["rec-70-70", "qbinom-140-70", "def-36-36", "alt-36-36"])
def test_compute_golden_output(args, digest, tmp_path):
    target = tmp_path / "out.txt"
    assert main(["compute", *args, "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "what, h, k, expected",
    [
        ("delannoy", 1200, 1, "2401"),
        ("qbinom", 1500, 2, str(1500 * 1499 // 2)),
        ("qdelannoy", 1200, 1, "2401"),
    ],
)
def test_compute_deep_arguments_exit_0(what, h, k, expected):
    result = run_cli("compute", what, "--h", str(h), "--k", str(k), "--json")
    assert result.returncode == 0
    assert result.stderr == b""
    payload = json.loads(result.stdout)
    if what == "delannoy":
        assert payload["value"] == expected
    else:
        assert str(sum(int(c) for c in payload["coeffs"])) == expected


def test_sigma_poly_long_path_exit_0():
    result = run_cli("compute", "sigma-poly", "--h", "1200", "--k", "0")
    assert result.returncode == 0
    assert result.stdout == b"1\n"
    assert result.stderr == b""


# sha256 of `orbits audit` output, text then --json.  The first five were
# recorded from the audit that walked orbits inline before it was rebuilt on
# `orbit()`; the orbit-audit benchmark's frames (3,3,4) and (2,2,5) from that
# rebuilt audit, which still decomposed every path twice.
AUDIT_GOLDEN = [
    ((0, 0, 1), "832c887d26d2aaecf4f2749be54ac9fae97adc69d91baf82fd005c0f59c02682",
     "5fe82471ce07227d55d9ed681ffa13aec35251994bbe8ab57483b88aa21aae62"),
    ((1, 1, 2), "d6a0c75a02ab928c1692e707cd06ad43432d563b048d4e8f69752fa6c0aec6d4",
     "1089e34a50b45c84f799d771e3cf1de3c5f4e8a97dc5922c79f6e68f5fb06244"),
    ((1, 0, 3), "2b454acb83e38cb1e3f33e84c22885c2a3d84c53a46c2a317c801f5565cc5026",
     "386e6985650c87a72312131d5d5144ff4fe47486fcf52e14ac6c24a2cb0106e3"),
    ((2, 1, 3), "952441c6cfe0cbaba40bd9bbae36bc992932963da48e3d872fbc5533d2a5d564",
     "85c0e01cca932d9754ee807b7c2c535ad24e1c797fc3c742759607887ad50234"),
    ((2, 2, 3), "44ee726c8015500a682bbbe9d9b26d713bdeca8453664af768de498e1ac718a2",
     "c2f20f63e28c3ed2cb98108eb71b7b4c4c78a316a8014ee637d282074d73d379"),
    ((3, 3, 4), "226aed460865ca9e87edd8ea10d45c4f8c682bbeec52e7b70744e91a63f22eb9",
     "de1858a7cbad5b0e49cc142a5043a15148d192b8b732780a67cc35b97b44764f"),
    ((2, 2, 5), "0735c8c6b1e660058224439bdf43b3bfa5f4a8a2089a8476048d3eb642629d75",
     "60d0ce952d80729a9dea4572c03827e7a4e1059d976c6799ed49066a9babf448"),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "frame, text_digest, json_digest", AUDIT_GOLDEN, ids=["-".join(map(str, f)) for f, _, _ in AUDIT_GOLDEN]
)
def test_audit_golden_output(frame, text_digest, json_digest, as_json, tmp_path):
    h, k, n = (str(v) for v in frame)
    target = tmp_path / "out.txt"
    flags = ["--json"] if as_json else []
    assert main(["orbits", "audit", "--h", h, "--k", k, "--n", n, *flags, "--out", str(target)]) == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == (json_digest if as_json else text_digest)


def test_audit_wrong_shift_is_a_violation(monkeypatch, tmp_path):
    import qdelannoy.orbits as orbits_module

    act = orbits_module._act

    def wrong_shift(segment, cls, n):
        image, bar, shift = act(segment, cls, n)
        return image, bar, shift + 1

    monkeypatch.setattr(orbits_module, "_act", wrong_shift)
    target = tmp_path / "out.txt"
    assert main(["orbits", "audit", "--h", "1", "--k", "1", "--n", "2", "--json", "--out", str(target)]) == 1
    payload = json.loads(target.read_text())
    assert payload["ok"] is False
    assert payload["violations"][0] == "sigma shift law failed at EEENNN (Q1)"


def test_audit_reassembly_fault_is_a_violation(monkeypatch, tmp_path):
    import qdelannoy.orbits as orbits_module

    step = orbits_module._step

    def off_by_one(state, s, h, k):
        state = step(state, s, h, k)
        return state[:4] + (state[4] + 1,) + state[5:]

    monkeypatch.setattr(orbits_module, "_step", off_by_one)
    target = tmp_path / "out.txt"
    assert main(["orbits", "audit", "--h", "1", "--k", "1", "--n", "2", "--json", "--out", str(target)]) == 1
    payload = json.loads(target.read_text())
    assert payload["ok"] is False
    assert payload["violations"][0] == "sigma reassembly failed for EEENNN"
