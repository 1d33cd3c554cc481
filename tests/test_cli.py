import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qdelannoy
from qdelannoy.polyring import IntPoly
from qdelannoy.cli import COMMANDS, build_parser, main
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


def _loaded_after(requests, modules):
    """Run each request through `main` in turn, in one fresh process; one
    line per request: its exit code and whether each module is loaded."""
    script = (
        "import contextlib, io, sys\n"
        "from qdelannoy.cli import main\n"
        "for argv in sys.argv[2:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            code = main(argv.split())\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(code, *(m in sys.modules for m in sys.argv[1].split()))\n"
    )
    argv = [sys.executable, "-c", script, " ".join(modules), *requests]
    result = subprocess.run(argv, capture_output=True, env=_src_env(), text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_requests_do_not_import_a_process_pool():
    # --jobs workers are forked directly, so no request, pooled or not,
    # pays for importing concurrent.futures or multiprocessing.
    requests = (
        "compute delannoy --h 0 --k 0",
        "orbits audit --h 1 --k 0 --n 3",
        "verify interp --max-h 3 --max-k 3 --jobs 1",
        "verify thm1 --max-n 3 --max-a 1 --max-c 1 --jobs 2",
    )
    assert _loaded_after(requests, ("concurrent.futures", "multiprocessing")) == "0 False False\n" * len(requests)


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
    requests = (
        "compute delannoy --h 0 --k 0",
        "verify thm2 --max-n 2 --max-h 1 --max-k 1 --jobs 1",
        "orbits audit --h 1 --k 0 --n 3",
    )
    assert _loaded_after(requests, ("dataclasses", "inspect")) == "0 False False\n" * len(requests)


def test_well_formed_requests_do_not_import_argparse():
    # A well-formed argv is parsed from COMMANDS.  Only --help and a usage
    # error build argparse's parser, and its first gettext lookup imports
    # locale.
    requests = (
        "compute delannoy --h 0 --k 0",
        "compute qdelannoy --route alt --h 2 --k 1 --json",
        "verify thm2 --max-n 2 --max-h 1 --max-k 1 --jobs 1",
        "orbits audit --h 1 --k 0 --n 3",
    )
    modules = ("argparse", "gettext", "locale")
    assert _loaded_after(requests, modules) == "0 False False False\n" * len(requests)
    assert _loaded_after(("compute delannoy --help",), modules) == "0 True True True\n"
    assert _loaded_after(("compute delannoy --h 1",), modules) == "2 True True True\n"


def test_only_json_requests_import_json():
    requests = (
        "compute delannoy --h 0 --k 0",
        "compute qdelannoy --h 2 --k 1 --route alt",
        "verify thm1 --max-n 3 --max-a 1 --max-c 1 --jobs 2",
        "orbits audit --h 1 --k 0 --n 3",
        "compute delannoy --h 0 --k 0 --json",
    )
    assert _loaded_after(requests, ("json",)) == "0 False\n" * 4 + "0 True\n"


# The package binds its modules lazily: each is in sys.modules from the
# start, but its code runs only when a request first reads one of its
# attributes, and only then is its type the plain module type.  Each request,
# in a fresh process, and the package modules it runs.
RUNS = {
    "compute delannoy --h 2 --k 2": "cli qcore",
    "compute qdelannoy --h 2 --k 2": "cli polyring qcore qdelannoy",
    "verify thm2 --max-n 3 --max-h 2 --max-k 2": "cli congruence polyring qcore residue",
    "verify lucas --max-n 3 --max-a 1 --max-c 1": "cli congruence polyring qcore residue",
    "orbits audit --h 1 --k 0 --n 3": "cli cyclotomic orbits paths polyring qcore qdelannoy residue",
}

# Prints the exit code, the modules that ran, "|", and the modules still lazy.
RAN_SCRIPT = (
    "import contextlib, io, sys, types\n"
    "from qdelannoy.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1].split())\n"
    "package = {name[10:]: type(m) for name, m in sys.modules.items() if name.startswith('qdelannoy.')}\n"
    "print(code, *sorted(n for n, t in package.items() if t is types.ModuleType), '|',\n"
    "      *sorted(n for n, t in package.items() if t is not types.ModuleType and issubclass(t, types.ModuleType)))\n"
)


@pytest.mark.parametrize("argv", RUNS)
def test_a_request_runs_only_the_modules_it_uses(argv):
    result = subprocess.run([sys.executable, "-c", RAN_SCRIPT, argv], capture_output=True, env=_src_env(), text=True)
    assert result.returncode == 0, result.stderr
    ran = RUNS[argv].split()
    library = {"congruence", "cyclotomic", "orbits", "paths", "polyring", "qcore", "qdelannoy", "residue"}
    assert result.stdout.split() == ["0", *ran, "|", *sorted(library - set(ran))]


def test_process_entry_freezes_start_up_objects_and_main_does_not():
    # `python -m qdelannoy` runs cli.run, which freezes what the imports
    # made before it calls main; main alone, as a library caller runs it,
    # leaves the collector as it was.
    script = (
        "import atexit, gc, runpy, sys\n"
        "from qdelannoy.cli import main\n"
        "main(sys.argv[1:])\n"
        "print(gc.get_freeze_count())\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "runpy.run_module('qdelannoy', run_name='__main__')\n"
    )
    argv = ("compute", "delannoy", "--h", "2", "--k", "1")
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=_src_env(), text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "5\n0\n5\nTrue\n"


# Every level of the command tree: the root, each command and each leaf.
LEVELS = [
    (),
    *((command,) for command in COMMANDS),
    *((command, leaf) for command, (_, _, leaves, _) in COMMANDS.items() for leaf in leaves()),
]


@pytest.mark.parametrize("level", LEVELS, ids=lambda level: " ".join(level) or "root")
def test_help_lists_the_registry(level):
    # The parser builds only the level argv names, so each level's help must
    # still list every command, leaf and flag the registry holds.
    result = run_cli(*level, "--help")
    assert result.returncode == 0, result.stderr
    text = result.stdout.decode()
    assert text.startswith(f"usage: {' '.join(('qdelannoy', *level))} [-h]")
    if len(level) < 2:
        helps = {name: entry[0] for name, entry in (COMMANDS if not level else COMMANDS[level[0]][2]()).items()}
        assert re.findall(r"\{([^}]*)\}", text)[0].split(",") == list(helps)
        assert dict(re.findall(r"^    (\S+) *(.*)$", text, re.M)) == {k: v for k, v in helps.items() if v}
    else:
        flags = COMMANDS[level[0]][2]()[level[1]][1]
        assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", text)) == {
            "-h", "--help", *(flag for flag, _ in flags), "--json", "--out"
        }


@pytest.mark.parametrize("level", LEVELS, ids=lambda level: " ".join(level) or "root")
def test_usage_error_names_its_level(level):
    # Above a leaf an unknown name is the error; at a leaf, its first flag
    # with no value, which that leaf's parser reports itself.
    if len(level) < 2:
        bad = ("nonsense",)
    else:
        bad = (COMMANDS[level[0]][2]()[level[1]][1][0][0],)
    result = run_cli(*level, *bad)
    prog = " ".join(("qdelannoy", *level))
    lines = result.stderr.decode().splitlines()
    assert result.returncode == 2
    assert result.stdout == b""
    assert lines[0].startswith(f"usage: {prog} [-h]")
    assert lines[-1].startswith(f"{prog}: error: ")


def _exit_and_output(argv, capsys):
    """`main(argv)`'s exit code, --help and usage errors included, and its stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each level's --help and of four usage errors' stderr, at 80
# columns, recorded before a well-formed argv skipped argparse; argparse
# still writes all of them.  Its wording varies across Python versions, so
# they are checked on the version they were recorded with.
ARGPARSE_RECORDED = pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="recorded with Python 3.11's argparse")
HELP_DIGESTS = {
    "": "b486993ce1a3af49f1426893c7535847b9735e14d02904bf51bce32ab57cb2a2",
    "compute": "62a5736c6550d6e65fdd5b02d9f506f10e769564c0682af04ee0384075716382",
    "verify": "7cfc4b338d735c37bf999158d296df15c4d5bc52f7e2fe4262118b50d421871c",
    "orbits": "b1661381bacc8f2ecc596982af7df7735546c64cd04d16d9017aeb3f880c29e4",
    "compute delannoy": "92b6cccc30360270e6dc14d9529ead9ffd254829a2b2124fcae6ac1219ef1b24",
    "compute qdelannoy": "e52f749d2bedbf6274a8d16be60aa90d99a23f2e72a570b0c8d5743d36c8d914",
    "compute qbinom": "5db342907402e0e0632725b90807d1c90a34047965fd443314e05121b24e22a0",
    "compute cyclotomic": "cc4a80ced5ceba66e26c2680c4a8db716aa39fc12853b64a464c161023f76fac",
    "compute sigma-poly": "a11ff4b8469de829a4d763286eaf6736b8ef17ad6648496992ed3a6245033e91",
    "verify lucas": "13434604eaac44f73057e8535ce3e960cba0551f5165b1aa6d776ca13598aea7",
    "verify dlucas": "d949f9b70e919ece58133aa3d37e5f959642890c7787cba1f0c002215caddb8f",
    "verify qlucas": "f1538de86409d2aa3a5920f10c8d963e3a9ebf0719820d1f4cc6e0186b19724f",
    "verify thm1": "e56fefe24f059f62083eacb6ebc564d3cee975a38b338f885641449ea85e1a6c",
    "verify thm2": "e8266d86d39dfaa963b073cdaedce97b568b9f95409d8804c33377ef1faf766e",
    "verify interp": "1745a625d63d85d1115729d7994f3897901f3f2e7aa3ee038a8be39a05c5d680",
    "orbits audit": "034022a44ef20344d402a7e48d30d1264163e384ce3e9329038e5c154e9554b8",
}
USAGE_ERROR_DIGESTS = [
    ("compute qdelannoy --route x --h 1 --k 1", "857762463c0a7490b1fc9e6917b4d2cc15e6f931c07bd93dc4be1ccce18e3eec"),
    ("compute delannoy --h 1", "b2b21c3ee96ed5368a96f3592ffbb5a8a07625630534f6ee4f597efd4be645b3"),
    ("compute delannoy --h ² --k 1", "63ba4a676ff8a3b6a9878ef7b64de8e066265514cb9e99f33591dd22d11f7443"),
    ("verify thm2 --max-a 1", "03cea2b33b29993b6f2f184e43bf9798088787fc0107426445a3c08edfd82c21"),
]


def test_help_digests_cover_every_level():
    assert sorted(HELP_DIGESTS) == sorted(" ".join(level) for level in LEVELS)


@ARGPARSE_RECORDED
@pytest.mark.parametrize("level, digest", HELP_DIGESTS.items(), ids=[level or "root" for level in HELP_DIGESTS])
def test_help_bytes_are_unchanged(level, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_and_output([*level.split(), "--help"], capsys)
    assert (code, err) == (0, "")
    assert _sha256(out) == digest


@ARGPARSE_RECORDED
@pytest.mark.parametrize("argv, digest", USAGE_ERROR_DIGESTS, ids=[argv for argv, _ in USAGE_ERROR_DIGESTS])
def test_usage_error_bytes_are_unchanged(argv, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_and_output(argv.split(), capsys)
    assert (code, out) == (2, "")
    assert _sha256(err) == digest


# Spellings only argparse reads, their canonical forms, and the sha256 of
# the stdout both print.
SPELLINGS = [
    ("compute qdelannoy --h=3 --k 2", "compute qdelannoy --h 3 --k 2",
     "ba83828a799e99bac454d8ae366974ed30818b98af61df02d9e33a32cbf3e6c1"),
    ("compute qdelannoy --ro rec --h 3 --k 2", "compute qdelannoy --route rec --h 3 --k 2",
     "ba83828a799e99bac454d8ae366974ed30818b98af61df02d9e33a32cbf3e6c1"),
    ("compute qdelannoy --h 3 --k 2 --json --json", "compute qdelannoy --h 3 --k 2 --json",
     "345bab07aa2398641f53673d6d969f6bc6dbe7d47299995b6d9864789052ad90"),
]


@pytest.mark.parametrize("argv, canonical, digest", SPELLINGS, ids=[argv for argv, _, _ in SPELLINGS])
def test_argparse_spellings_print_their_canonical_form(argv, canonical, digest, capsys):
    for words in (argv, canonical):
        code, out, err = _exit_and_output(words.split(), capsys)
        assert (code, err) == (0, "")
        assert _sha256(out) == digest


def test_table_parse_agrees_with_argparse():
    # Whenever the table parse reads an argv, argparse reads the same values
    # from it and does not exit.
    from qdelannoy.cli import _OUTPUT, _table_parse

    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rows = [
        (command, leaf, (*flags, *_OUTPUT))
        for command, (_, _, leaves, _) in COMMANDS.items()
        for leaf, (_, flags, _) in leaves().items()
    ]
    flags = sorted({flag for _, _, row_flags in rows for flag, _ in row_flags})
    # Values argparse reads differently or not at all, and every name, flag,
    # abbreviation and --flag=value spelling in the registry.
    odd = ["-3", "²", "١", "9" * 5000, "-", "--", ""]
    words = sorted({
        *odd, "-h", "--help", *(word for command, leaf, _ in rows for word in (command, leaf)), *flags,
        *(flag[:-1] for flag in flags if len(flag) > 3), *(f"{flag}=3" for flag in flags),
    })

    def good(options):
        if options.get("type") is int:
            return st.sampled_from(["0", "3", "12"])
        return st.sampled_from(list(options.get("choices", ["out.txt"])))

    @st.composite
    def argvs(draw):
        command, leaf, row_flags = draw(st.sampled_from(rows))
        given = [flag for flag in draw(st.permutations(row_flags)) if draw(st.integers(0, 3))]
        if given and not draw(st.integers(0, 3)):
            given.append(draw(st.sampled_from(given)))
        argv = [command, leaf]
        for flag, options in given:
            argv.append(flag)
            if options.get("action") != "store_true":
                argv.append(draw(st.sampled_from(odd) if draw(st.integers(0, 3)) == 0 else good(options)))
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(words)))
        return argv

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(argvs())
    @hypothesis.example(["compute", "qdelannoy", "--route", "alt", "--h", "3", "--k", "2", "--json", "--out", "x"])
    @hypothesis.example(["compute", "delannoy", "--h", "²", "--k", "1"])
    @hypothesis.example(["compute", "delannoy", "--h", "9" * 5000, "--k", "1"])
    @hypothesis.example(["compute", "delannoy", "--h", "1"])
    @hypothesis.example(["verify", "thm2", "--max-n", "3"])
    def agrees(argv):
        values = _table_parse(argv)
        if values is None:
            return
        try:
            namespace = build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            raise AssertionError(f"argparse exits on {argv}, which the table parse reads") from exc
        assert vars(namespace) == values

    agrees()


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        *(f"compute qdelannoy --route {route} --h {HUGE} --k 1" for route in ("rec", "def", "alt")),
        f"compute qbinom --h {HUGE} --k 1",
        f"compute sigma-poly --h {HUGE} --k 1",
        f"compute cyclotomic --n {HUGE}",
        f"verify thm1 --max-n {HUGE}",
        f"verify qlucas --max-n {HUGE}",
    ],
)
def test_overflow_exits_2(argv, capsys):
    # A size no machine word holds raises OverflowError before anything is
    # allocated; like running out of memory, that is one line and exit 2,
    # never exit 1, which means a check failed.
    code, out, err = _exit_and_output(argv.split(), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["compute", "--h", "3", "delannoy", "--k", "2"], ["--h", "1"]], ids=["compute", "root"]
)
def test_flag_before_its_leaf_is_usage_error(argv, capsys):
    # Above a leaf, `--h` must not abbreviate `--help`, which exits 0.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_main_callable_in_process(capsys):
    code = main(["compute", "qdelannoy", "--h", "1", "--k", "1"])
    assert code == 0
    assert capsys.readouterr().out == "1 + 2*q\n"


def test_audit_violations_exit_1(monkeypatch, capsys):
    import qdelannoy.orbits as orbits_module
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
    monkeypatch.setattr(orbits_module, "audit", lambda frame: broken)
    code = main(["orbits", "audit", "--h", "0", "--k", "0", "--n", "1"])
    assert code == 1
    assert "VIOLATION synthetic violation" in capsys.readouterr().out


# The library module each leaf's call reads its function from.
CALLED_FROM = {
    "cyclotomic": "cyclotomic",
    "sweep": "congruence",
    "audit": "orbits",
    "delannoy": "qcore",
    "q_delannoy": "qdelannoy",
    "q_binomial": "qcore",
    "sigma_poly": "paths",
}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("cyclotomic", ["compute", "cyclotomic", "--n", "1"]),
        ("sweep", ["verify", "thm2", "--max-n", "2"]),
        ("audit", ["orbits", "audit", "--h", "0", "--k", "0", "--n", "1"]),
        ("delannoy", ["compute", "delannoy", "--h", "2", "--k", "2"]),
        ("q_delannoy", ["compute", "qdelannoy", "--h", "2", "--k", "2"]),
        ("q_binomial", ["compute", "qbinom", "--h", "2", "--k", "2"]),
        ("sigma_poly", ["compute", "sigma-poly", "--h", "2", "--k", "2"]),
    ],
)
def test_out_of_memory_exits_2(name, argv, monkeypatch, capsys):
    # Exit 1 means a check failed, so running out of memory is reported like
    # a usage error: one line on stderr, nothing on stdout.  Each leaf must
    # call through the name patched on its library module; the arguments are
    # small, so a leaf that does not fails at once with exit 0.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(getattr(qdelannoy, CALLED_FROM[name]), name, exhausted)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "leaf",
    [("compute", "delannoy"), ("compute", "qdelannoy"), ("compute", "qbinom"), ("compute", "sigma-poly"),
     ("orbits", "audit", "--n", "2")],
    ids=["delannoy", "qdelannoy", "qbinom", "sigma-poly", "audit"],
)
def test_negative_h_or_k_exits_2(leaf, capsys):
    # Every leaf that takes --h and --k rejects a negative one in the same
    # check, before any library call.
    assert main([*leaf, "--h", "-1", "--k", "2"]) == 2
    assert main([*leaf, "--h", "2", "--k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --h and --k must be nonnegative, got h=-1 k=2\n"
        "error: --h and --k must be nonnegative, got h=2 k=-1\n"
    )


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


# sha256 of compute output: the compute-routes benchmark's centre requests,
# recorded from the memo-table implementation the packed fills replaced, then
# two sizes past them.
GOLDEN = [
    (("qdelannoy", "--route", "rec", "--h", "70", "--k", "70", "--json"),
     "3347eeb2d67f699035a1242f14353a10a128cedc61f0fe11a9b841b282c294ed"),
    (("qbinom", "--h", "140", "--k", "70", "--json"),
     "f733369cf63d23c0284ade99783bd0637538ce0a7d6c9fe90fb5ee49b9152904"),
    (("qdelannoy", "--route", "def", "--h", "36", "--k", "36"),
     "705c3a8eda8d244c99286b983dd33cbf651065c9853704d75e5e339cfda7ffcc"),
    (("qdelannoy", "--route", "alt", "--h", "36", "--k", "36"),
     "705c3a8eda8d244c99286b983dd33cbf651065c9853704d75e5e339cfda7ffcc"),
    # rec fills only one side of the diagonal, and q_binomial, def and alt
    # derive each factor or term from the last by exact division; each
    # digest is of the output the full-table fills wrote.
    (("qdelannoy", "--route", "rec", "--h", "71", "--k", "69", "--json"),
     "bf1c6241d33b96680060e850fcfd55c830759679706759b4fdf0183143e5454e"),
    (("qbinom", "--h", "140", "--k", "73", "--json"),
     "b0977bb8b5cd617b80107ab682471b0a7bbf1f680cccaa77def09fad4dcb37dc"),
]


@pytest.mark.parametrize(
    "args, digest", GOLDEN, ids=["rec-70-70", "qbinom-140-70", "def-36-36", "alt-36-36", "rec-71-69", "qbinom-140-73"]
)
def test_compute_golden_output(args, digest, tmp_path):
    target = tmp_path / "out.txt"
    assert main(["compute", *args, "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_transposed_half_table_fill_prints_the_def_route(tmp_path):
    # rec at the transposed size must print what the independent def route
    # prints.
    texts = []
    for route, h, k in (("rec", "69", "71"), ("def", "71", "69")):
        target = tmp_path / f"{route}.txt"
        assert main(["compute", "qdelannoy", "--route", route, "--h", h, "--k", k, "--out", str(target)]) == 0
        texts.append(target.read_bytes())
    assert texts[0] == texts[1]


# Sweeps larger than the rest of the suite runs, each with its exact case
# count; every case must pass.
LARGE_SWEEPS = [
    # Every P(h,k), h <= 33, k <= 32, against path counts from one prefix-trie
    # walk of a two-column band, swept across the box in 17 bands; the last
    # one holds two columns and needs no arrivals past the box.  Half of its
    # time is the band sweep and half the q_delannoy_rec fill for each cell.
    # That is one shard, so --jobs 2 runs it in this process and forks no
    # worker.
    (("interp", "--max-h", "33", "--max-k", "32", "--jobs", "2"), 34 * 33),
    # n = 30 = 2 * 3 * 5 is the first modulus whose Phi_n test sums 8
    # rotations a side; the other thm2 and qlucas sweeps stop below it.
    (("thm2", "--max-n", "30", "--max-h", "30", "--max-k", "30", "--jobs", "2"), 30 * 31 * 31),
    (("qlucas", "--max-n", "30", "--max-a", "1", "--max-c", "1"), sum(4 * n * n for n in range(1, 31))),
    # The mod-p branch of the split engine on every prime below 60 with
    # a, c <= 4, 418 900 cases each; the other lucas and dlucas sweeps stop
    # at p = 13.
    (("lucas", "--max-n", "60", "--max-a", "4", "--max-c", "4", "--jobs", "2"), 418_900),
    (("dlucas", "--max-n", "60", "--max-a", "4", "--max-c", "4", "--jobs", "2"), 418_900),
]


@pytest.mark.parametrize("args, total", LARGE_SWEEPS, ids=[args[0] for args, _ in LARGE_SWEEPS])
def test_large_sweep_passes(args, total, tmp_path):
    target = tmp_path / "out.json"
    assert main(["verify", *args, "--json", "--out", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert (payload["total"], payload["failed"]) == (total, 0)


def test_forked_sweep_under_dev_mode_prints_what_one_process_prints():
    # A worker pipe left open shows as a ResourceWarning, and a fork from a
    # threaded process as a DeprecationWarning; -W error fails on either.
    # The CLI process is seat 0, so --jobs 2 forks one child and --jobs 3
    # two; both must print what one process prints.
    argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "qdelannoy", "verify", "thm1"]
    argv += ["--max-n", "11", "--max-a", "2", "--max-c", "2", "--jobs"]
    runs = [subprocess.run([*argv, jobs], capture_output=True, env=_src_env(), timeout=60) for jobs in "123"]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, b"")] * 3
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert runs[0].stdout.startswith(b"thm1: ")


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
# a separate `orbit()` function; the orbit-audit benchmark's frames (3,3,4)
# and (2,2,5) from that rebuilt audit, which still decomposed every path twice.
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


# sha256 of `orbits audit --json` for frames past AUDIT_GOLDEN's, first pinned
# by the CI workflow; each comment says which earlier audit design wrote the
# digest.  They run in-process here, (0,0,8) taking most of their time.
CI_AUDIT_GOLDEN = [
    # 265729 paths as 3723 heads and 3045 (cut point, segment) pairs.  The
    # digest is of the report the audit wrote before it scanned each path
    # once.
    ((3, 3, 5), "0099fe01aedf02ad1be5531befd540fa2843f13179f0b7e296661e9d6a04495a"),
    # The origin is the corner (48639 paths), so every path is a tail of the
    # one empty head.  The digest is of the report the audit wrote while it
    # still scanned each path separately, as is the next.
    ((0, 0, 7), "94404aac57fd3aac1abc03cfb60356673e3970a8f89b98988eebe1869148a910"),
    # A corner on the x axis, so no head reaches the east arm.
    ((5, 0, 3), "fc58af700d8adc9eb2962a0d9eb73418d3c22ef3b9c2ba08c248a781e6705083"),
    # Frames that are not square, so many heads lead to one cut point and
    # each segment orbit walked there stands for all of them.  Both digests
    # are of the report the audit wrote while it still walked every orbit.
    ((4, 2, 4), "5966276f37db60c9ce0397019e894c0e50f2b68f96c4f583170cb48c9ead2052"),
    ((2, 4, 4), "1d0b15a9f13cee02a6d75bf50f7846d1136c3d2bc5055f9f8af05e67e1659003"),
    # 8097453 paths, which the per-path audit took 28 s to check; the digest
    # is of the report it wrote.
    ((4, 4, 6), "44c47a16806ddd67da7866726a799ac9d77c73c386fa017d7495ea80d2b68ba8"),
    # The origin is the corner, so its 265729 paths are the tails of one
    # empty head and nothing factors; the digest is of the report the
    # per-path audit wrote.
    ((0, 0, 8), "17ee2ebc0f9048fcd195b7068e7aff8614c867db53571e18f69b4d3228c1da70"),
    # 251595969 paths with 1633677 heads, which `paths.sigma_counts` counts
    # by sigma in one 12 x 12 box.  Walking the heads one by one took 0.86 s
    # of a 0.94 s audit on a 2-vCPU VM; the digest is of the report written
    # then.
    ((6, 6, 6), "a53b08885b37a5440f3063b418c5b526d18f5947ffacf23841b913662659fc53"),
]


@pytest.mark.parametrize("frame, digest", CI_AUDIT_GOLDEN, ids=["-".join(map(str, f)) for f, _ in CI_AUDIT_GOLDEN])
def test_ci_audit_golden_json(frame, digest, tmp_path):
    h, k, n = (str(v) for v in frame)
    target = tmp_path / "out.json"
    assert main(["orbits", "audit", "--h", h, "--k", k, "--n", n, "--json", "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


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
        image, shift = act(segment, cls, n)
        return image, shift + 1

    monkeypatch.setattr(orbits_module, "_act", wrong_shift)
    target = tmp_path / "out.txt"
    assert main(["orbits", "audit", "--h", "1", "--k", "1", "--n", "2", "--json", "--out", str(target)]) == 1
    payload = json.loads(target.read_text())
    assert payload["ok"] is False
    assert payload["violations"][0] == "sigma shift law failed at END from (1,1) (Q4)"
