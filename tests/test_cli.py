import ast
import copy
import importlib
import inspect
import io
import json
import pathlib
import pickle
import pkgutil
import re
import subprocess
import sys

import pytest

import upb3q
from upb3q import dynamics, states
from upb3q.claims import ClaimReport, run_claims, write_bloch_csv, write_orbit_csv, write_reports_json
from upb3q.cli import build_parser, main
from upb3q.dynamics import orbit, prepare_upb
from upb3q.pauli import ket_from_string
from upb3q.states import check_upb, family


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "upb3q.cli", *argv],
        capture_output=True, text=True, timeout=120,
    )
    return proc


def test_parser_defaults():
    args = build_parser().parse_args(["verify"])
    assert args.filter is None
    assert args.orbit_samples == 64
    args = build_parser().parse_args(["orbit", "--samples", "16"])
    assert args.samples == 16 and args.csv == "-"


def test_verify_filtered_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--filter", "reflect.*", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    executed = [e for e in data if e["status"] != "skip"]
    assert executed and all(e["claim_id"].startswith("reflect.") for e in executed)


def test_verify_default_exits_one(tmp_path):
    # the nine single-qubit stationarity claims fail by design: those
    # commutators are sqrt(3)*x / sqrt(6)*x, not zero (see README)
    out = tmp_path / "report.json"
    code = main(["verify", "--json", str(out), "--filter", "stationary.*"])
    assert code == 1
    data = json.loads(out.read_text())
    failing = sorted(e["claim_id"] for e in data if e["status"] == "fail")
    assert len(failing) == 9
    assert all(c.startswith("stationary.local_") for c in failing)


def test_claim_tolerances_are_not_options(capsys):
    # every claim's tolerance is fixed in its registry row: no flag can turn
    # the nine deliberate stationary.local_* failures green
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--filter", "stationary.local_*", "--tolerance-equality", "1.0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance-equality 1.0" in capsys.readouterr().err


def test_json_report_is_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        main(["verify", "--filter", "orbit.*", "--json", str(p)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_orbit_csv_files_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert main(["orbit", "--samples", "8", "--csv", str(p)]) == 0
    blob = paths[0].read_bytes()
    assert blob == paths[1].read_bytes()
    assert blob.count(b"\r\n") == 9  # header + 8 samples, RFC-4180 line ends
    assert blob.startswith(b"t,coh111,")


def test_bloch_csv_file(tmp_path):
    p = tmp_path / "bloch.csv"
    assert main(["bloch", "--csv", str(p)]) == 0
    lines = p.read_text().splitlines()
    assert len(lines) == 37
    assert lines[1].startswith("psi@t=0,1,1,")


def test_csv_files_and_stdout_match_the_writers(tmp_path, capsys):
    # the CLI owns CSV output: a file for PATH, stdout for "-", same text
    cases = [
        (["orbit", "--samples", "4"], lambda fobj: write_orbit_csv(fobj, orbit(4))),
        (["bloch"], write_bloch_csv),
    ]
    for argv, write in cases:
        buf = io.StringIO()
        write(buf)
        path = tmp_path / f"{argv[0]}.csv"
        assert main(argv + ["--csv", str(path)]) == 0
        assert path.read_bytes().decode("utf-8") == buf.getvalue()
        capsys.readouterr()
        assert main(argv + ["--csv", "-"]) == 0
        assert capsys.readouterr().out == buf.getvalue()


def test_unwritable_output_is_an_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.json"
    code = main(["verify", "--filter", "state.purity", "--json", str(missing)])
    assert code == 1
    assert main(["orbit", "--samples", "2", "--csv", str(missing)]) == 1
    assert main(["bloch", "--csv", str(missing)]) == 1
    assert capsys.readouterr().err.count(f"error: cannot write {missing}") == 3


def test_empty_output_path_is_an_error(capsys):
    # verify --json "" used to exit 0 and write nothing, where the CSV
    # subcommands fail on the same path; the claims themselves pass here
    assert main(["verify", "--filter", "lhv.*", "--json", ""]) == 1
    assert main(["orbit", "--samples", "2", "--csv", ""]) == 1
    assert main(["bloch", "--csv", ""]) == 1
    assert capsys.readouterr().err.count("error: cannot write :") == 3


def test_verify_json_to_stdout(tmp_path, monkeypatch, capsys):
    # "-" means stdout, as for the CSV subcommands; it used to create a file
    # named "-", and the claim lines now go to stderr so stdout is pure JSON
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--filter", "lhv.*", "--json", "-"]) == 0
    out, err = capsys.readouterr()
    assert list(tmp_path.iterdir()) == []
    buf = io.StringIO()
    write_reports_json(run_claims(filter="lhv.*"), buf)
    assert out == buf.getvalue()
    assert err.splitlines()[-1] == "10 passed, 0 failed, 53 skipped (of 63)"


@pytest.mark.parametrize("pattern", ["lhv*.", "nomatch.*", ""])
def test_filter_matching_no_claim_is_a_usage_error(pattern, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--filter", pattern])
    assert exc.value.code == 2
    assert f"error: argument --filter: no claim id matches {pattern!r}" in capsys.readouterr().err


def test_cli_subprocess_verify_summary():
    proc = run_cli("verify", "--filter", "ppt.*")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[-1].endswith("(of 63)")
    assert "2 passed, 0 failed, 61 skipped" in lines[-1]
    assert any(line.startswith("[PASS] ppt.upb:") for line in lines)


def test_cli_subprocess_orbit_stdout_deterministic():
    one = run_cli("orbit", "--samples", "4")
    two = run_cli("orbit", "--samples", "4")
    assert one.returncode == 0
    assert one.stdout == two.stdout
    assert one.stdout.startswith("t,coh111,")


@pytest.mark.parametrize("argv", [
    ["orbit", "--samples", "1"],
    ["verify", "--orbit-samples", "0"],
    ["orbit", "--samples", "2.5"],
    ["orbit", "--samples", "nan"],
    ["verify", "--orbit-samples", "true"],
    ["orbit", "--samples", str(dynamics._MAX_SAMPLES + 1)],  # rejected before any grid is allocated
])
def test_bad_numeric_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the message names the broken rule, not just argparse's "invalid ... value"
    assert f"error: argument {argv[1]}: " in err and f"must be an integer in [2, {dynamics._MAX_SAMPLES}]" in err
    assert "invalid" not in err


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def public_routines():
    """{code object: dotted name} of every public function, method and property
    defined in a module of the package (re-exports are counted once, at home)."""
    out = {}
    for info in pkgutil.iter_modules(upb3q.__path__):
        module = importlib.import_module(f"upb3q.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                func = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(func):
                    out[func.__code__] = ".".join(filter(None, (module.__name__, name, attr)))
    return out


def run_every_command(capsys):
    """The three command lines that together reach every public routine."""
    main(["verify", "--json", "-", "--filter", "*"])
    main(["orbit", "--samples", "4", "--csv", "-"])
    main(["bloch", "--csv", "-"])
    capsys.readouterr()


def test_every_public_routine_is_reached_by_a_command(capsys, monkeypatch):
    # a public routine that no command enters is dead weight: delete it, or
    # give it a caller; the three command lines together reach every one.
    # The adjoint generators and the ket families start uncached, as in a fresh process.
    monkeypatch.setattr(dynamics, "_R_CACHE", {})
    monkeypatch.setattr(states, "_FAMILIES", {})
    routines = public_routines()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_every_command(capsys)
    finally:
        sys.setprofile(None)
    assert len(routines) == 43  # adding or deleting a public routine updates this count
    assert sorted(name for code, name in routines.items() if code not in entered) == []


# Record fields that no command reads, each with the reason it is kept.
UNREAD_FIELDS_KEPT = {
    "upb3q.dynamics.InteriorSample.stage":
        "perfbench/oracles.py::check_preparation matches each probe to its stage",
    "upb3q.dynamics.InteriorSample.t":
        "perfbench/oracles.py::check_preparation re-solves each probe at its time",
}


def test_every_export_is_named_in_the_readme():
    # each name the package exports appears in README.md as code, right after a backtick
    tree = ast.parse(pathlib.Path(upb3q.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert len(names) == 47  # adding or deleting an export updates this count
    assert [name for name in names if not re.search(rf"`{re.escape(name)}\b", readme)] == []


def test_every_dataclass_field_is_read_by_a_command(capsys, monkeypatch):
    # a field that is built but never read is dead weight: delete it, or give
    # it a reader.  A record is a class with named fields, _fields; a read
    # inside the record's own constructor, its __new__ (validation,
    # normalisation), does not count.
    classes, fields, read = set(), set(), set()
    for info in pkgutil.iter_modules(upb3q.__path__):
        module = importlib.import_module(f"upb3q.{info.name}")
        for name, cls in vars(module).items():
            if (name.startswith("_") or not inspect.isclass(cls)
                    or not hasattr(cls, "_fields") or cls.__module__ != module.__name__):
                continue
            owner = f"{module.__name__}.{name}"
            classes.add(owner)
            names = set(cls._fields)
            fields.update(f"{owner}.{field}" for field in names)
            constructor = getattr(cls.__new__, "__code__", None)

            def traced(self, attr, owner=owner, names=names, constructor=constructor):
                if attr in names and sys._getframe(1).f_code is not constructor:
                    read.add(f"{owner}.{attr}")
                return object.__getattribute__(self, attr)

            monkeypatch.setattr(cls, "__getattribute__", traced)
    run_every_command(capsys)
    monkeypatch.undo()
    assert sorted(classes) == [
        "upb3q.claims.ClaimReport", "upb3q.dynamics.InteriorSample",
        "upb3q.dynamics.Orbit", "upb3q.dynamics.PreparationTrace", "upb3q.pauli.ProductKet",
        "upb3q.states.UPBCheckResult",
    ]
    assert sorted(fields - read) == sorted(UNREAD_FIELDS_KEPT)


def test_every_record_is_immutable():
    # frozen dataclasses made every field read-only; the NamedTuple records
    # keep that, and hold no attribute outside their fields
    trace = prepare_upb("standard", 1)
    records = [ClaimReport("a.b", "desc", "ref", "pass", 1.0, 1.0, 0.1), trace.interior[0], orbit(2),
               trace, ket_from_string("01+"), check_upb(family("psi"))]
    assert sorted(f"{type(r).__module__}.{type(r).__name__}" for r in records) == [
        "upb3q.claims.ClaimReport", "upb3q.dynamics.InteriorSample",
        "upb3q.dynamics.Orbit", "upb3q.dynamics.PreparationTrace", "upb3q.pauli.ProductKet",
        "upb3q.states.UPBCheckResult",
    ]
    for record in records:
        for name in record._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_every_record_survives_pickle_and_copy():
    trace = prepare_upb("standard", 1)
    records = [ClaimReport("a.b", "desc", "ref", "pass", [1, 2], None, 0.1), trace.interior[0],
               orbit(2), trace, ket_from_string("01+"), check_upb(family("psi")),
               check_upb(family("psi")[:3] + (ket_from_string("111"),))]
    for record in records:
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record) and twin._fields == record._fields
            assert pickle.dumps(twin) == pickle.dumps(record)
    witness = pickle.loads(pickle.dumps(records[-1])).extension_witness
    assert witness.amplitudes.tobytes() == records[-1].extension_witness.amplitudes.tobytes()
    assert not witness.amplitudes.flags.writeable


IMPORT_COUNTERS = """
import sys
import numpy
calls = []
kron = numpy.kron
def counting_kron(*args, **kwargs):
    calls.append(args)
    return kron(*args, **kwargs)
numpy.kron = counting_kron
before = set(sys.modules)
import upb3q, upb3q.cli
print(len(calls), "dataclasses" in set(sys.modules) - before)
"""


def test_package_import_loads_no_dataclasses_and_calls_no_kron():
    # the records are NamedTuples and LAMBDA_BASIS one broadcast product, so
    # once numpy is loaded the import neither loads dataclasses nor calls
    # np.kron (the 64-matrix basis took 128 calls); counted, not timed
    proc = subprocess.run([sys.executable, "-c", IMPORT_COUNTERS], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.split() == ["0", "False"]
