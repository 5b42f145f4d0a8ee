"""Command-line behavior: exit codes, output shape, determinism."""

import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from fuscat.catalog import BUILTIN_KEYS, builtin
from fuscat.chartab import validate_character_table
from fuscat import cli
from fuscat.cli import main
from fuscat.errors import FuscatError
from fuscat.fusion import validate_fusion_ring
from fuscat.premod import validate_smatrix
from fuscat.serialize import (cycnum_from_json, cycnum_to_json, dump_document,
                              from_document, to_document)

from rings import (lucas, relabel_document, smatrix_rows_scan_first,
                   table_columns_scan, validate_fpdims_scan)


def _write_entry(tmp_path, key, name="ring.json", mutate=None):
    entry = builtin(key)
    doc = to_document(entry.ring, entry.table, entry.smatrix)
    if mutate:
        mutate(doc)
    p = tmp_path / name
    p.write_text(dump_document(doc), encoding="utf-8")
    return str(p)


def test_list_builtins(capsys):
    assert main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    assert "fib: rank 2" in out
    assert "su2k-4: rank 5, FPdim 12" in out
    assert "ising*svec" in out


def test_validate_accepts_valid_document(tmp_path, capsys):
    path = _write_entry(tmp_path, "ising")
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "axioms hold" in out
    assert "numeric cross-check" in out
    assert ("char_table: numeric cross-check matches within 1e-08"
            in out.splitlines())
    assert out.strip().endswith("valid")


def test_validate_names_witness_indices_on_math_failure(tmp_path, capsys):
    def mutate(doc):
        doc["tensor"][2][2][0] = 0

    path = _write_entry(tmp_path, "ising", mutate=mutate)
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "(2, 2)" in err


def test_validate_schema_error_exits_two(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_missing_file_exits_two(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_catalog_key_all_subcategories(capsys):
    assert main(["verify", "ising", "--all-subcategories"]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out and "0 failed" in out


def test_verify_default_pool_reports_skip_reason(capsys):
    assert main(["verify", "rep-s3"]) == 0
    out = capsys.readouterr().out
    assert "skipped: center is not pointed" in out


def test_verify_single_check_on_product(capsys):
    assert main(["verify", "ising*svec", "--checks", "thm-1.3"]) == 0
    out = capsys.readouterr().out
    assert "| thm-1.3 |" in out
    assert "item=2" in out


def test_verify_json_format_parses(capsys):
    assert main(["verify", "fib", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["target"] == "fib"
    assert doc["summary"]["failed"] == 0
    assert all("id" in c and "pass" in c for c in doc["checks"])


def test_verify_json_is_byte_identical_across_runs(capsys):
    assert main(["verify", "su2k-3", "--all-subcategories",
                 "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "su2k-3", "--all-subcategories",
                 "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_explicit_subcategory(capsys):
    assert main(["verify", "ising", "--subcategory", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "subcategory pool: {0,1}" in out


def test_verify_unclosed_subcategory_is_usage_error(capsys):
    assert main(["verify", "ising", "--subcategory", "0,2"]) == 2
    assert "not a subcategory" in capsys.readouterr().err


def test_verify_all_subcategories_above_rank_16_is_refused(capsys):
    assert main(["verify", "ising*ising*svec", "--all-subcategories"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid: rank 18 exceeds enumeration bound 16\n"


def test_verify_subcategory_outside_the_basis_is_usage_error(capsys):
    assert main(["verify", "ising", "--subcategory", "0,5"]) == 2
    assert "(5,): not a basis index" in capsys.readouterr().err


def test_verify_bad_subcategory_syntax(capsys):
    assert main(["verify", "ising", "--subcategory", "0,x"]) == 2
    assert "comma-separated integers" in capsys.readouterr().err


def test_verify_unknown_check_id(capsys):
    assert main(["verify", "ising", "--checks", "eq-9.9"]) == 2
    assert "unknown check id" in capsys.readouterr().err


def test_verify_empty_check_id_is_refused(capsys):
    # an empty --checks names the empty id, as a trailing comma does
    for checks in ("", "eq-2.4,"):
        assert main(["verify", "ising", f"--checks={checks}"]) == 2
        captured = capsys.readouterr()
        assert "unknown check id ''" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("key", BUILTIN_KEYS)
def test_verify_product_with_trivial_reproduces_the_report(key, capsys):
    """A*trivial and trivial*A index the basis as A does, so their reports
    are A's own, apart from the target's name."""
    def report(target):
        argv = ["verify", target, "--all-subcategories", "--format", "json"]
        code = main(argv)
        doc = json.loads(capsys.readouterr().out)
        assert doc.pop("target") == target
        return code, doc

    own = report(key)
    assert report(f"{key}*trivial") == own
    assert report(f"trivial*{key}") == own


def test_verify_unknown_target(capsys):
    assert main(["verify", "nosuchkey"]) == 2
    assert "neither a catalog key nor a file" in capsys.readouterr().err


def test_verify_file_target_without_matrix_skips(tmp_path, capsys):
    entry = builtin("ising")
    doc = to_document(entry.ring)
    p = tmp_path / "bare.json"
    p.write_text(dump_document(doc), encoding="utf-8")
    assert main(["verify", str(p)]) == 0
    out = capsys.readouterr().out
    assert "target carries no character table" in out
    assert "target carries no symmetric matrix" in out


def test_verify_mutually_exclusive_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ising", "--subcategory", "0",
              "--all-subcategories"])
    assert exc.value.code == 2


def test_report_contains_block_and_matching_data(capsys):
    assert main(["report", "ising"]) == 0
    out = capsys.readouterr().out
    assert "cosets wrt center: {0} {1} {2}" in out
    assert "| 1 | 1 | 0 | 1 (~1) |" in out  # block square falls in unit block
    assert "## integrality values" in out
    assert "min poly" in out


def test_report_unknown_key_exits_two(capsys):
    assert main(["report", "nosuchkey"]) == 2


def test_report_is_deterministic(capsys):
    assert main(["report", "su2k-4"]) == 0
    first = capsys.readouterr().out
    assert main(["report", "su2k-4"]) == 0
    assert first == capsys.readouterr().out


def _write_lucas(tmp_path, m):
    tensor, phi, psi = lucas(m)
    ring = validate_fusion_ring(tensor, (0, 1), fpdims=(1, phi))
    table = validate_character_table(ring, ((1, 1), (phi, psi)))
    p = tmp_path / f"lucas-{m}.json"
    p.write_text(dump_document(to_document(ring, table)), encoding="utf-8")
    return str(p)


@pytest.mark.parametrize("m", [21, 25, 31, 35, 45])
def test_validate_lucas_family_with_exact_table(tmp_path, capsys, m):
    path = _write_lucas(tmp_path, m)
    assert main(["validate", path]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith(f"{path}: valid\n")
    assert captured.err == ""


def test_failed_numeric_cross_check_does_not_set_the_exit_code(tmp_path,
                                                               capsys):
    # L_1501 ~ 1e313 is no float, so the numeric check cannot even start
    path = _write_lucas(tmp_path, 1501)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3].startswith("char_table: numeric cross-check inconclusive: ")
    assert out[-1] == f"{path}: valid"


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_verify_omits_the_approximation_of_values_beyond_floats(tmp_path, capsys,
                                                               fmt):
    # phi^1501 ~ 1e313: the exact value is printed, its float view is not
    path = _write_lucas(tmp_path, 1501)
    assert main(["verify", path, "--all-subcategories", "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if fmt == "json":
        values = [v for c in json.loads(captured.out)["checks"]
                  for v in (c["lhs"], c["rhs"]) if isinstance(v, dict)]
        assert any("approx" in v for v in values)
        assert any("approx" not in v for v in values)
    else:
        rows = [line for line in captured.out.splitlines() if line.startswith("| ")]
        assert any("(~" in row for row in rows)
        assert any("z5" in row and "(~" not in row for row in rows)


def test_verify_does_not_import_numpy():
    code = ("import sys\n"
            "from fuscat.cli import main\n"
            "code = main(['verify', 'ising', '--all-subcategories'])\n"
            "sys.stderr.write(f'{code} {\"numpy\" in sys.modules}')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.stderr == "0 False"


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "fuscat", "list-builtins"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fib" in proc.stdout


def test_verify_trivial_ring_over_conductor_53_is_fast(tmp_path, capsys):
    # The trivial ring with every scalar written over Q(zeta_53), phi = 52.
    # Integrality through a degree-52 characteristic polynomial made this
    # run for minutes; the timeout turns such a regression into a failure
    # rather than a hang.
    def over_53(doc):
        one = {"conductor": 53, "coeffs": [[1, 1]] + [[0, 1]] * 51}
        doc.update(conductor=53, fpdims=[one], char_table=[[one]],
                   smatrix=[[one]])

    path = _write_entry(tmp_path, "trivial", mutate=over_53)
    proc = subprocess.run([sys.executable, "-m", "fuscat", "verify", path,
                           "--format", "json"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["summary"]["passed"] == 32
    assert report["summary"]["failed"] == 0

    assert main(["verify", "trivial", "--format", "json"]) == 0
    expected = json.loads(capsys.readouterr().out)

    def verdicts(rep):
        return [(c["id"], c["params"], c["pass"]) for c in rep["checks"]]

    assert verdicts(report) == verdicts(expected)


def test_validate_refuses_a_huge_conductor_at_once(tmp_path):
    # phi(10^40 + 1) takes trial division to 10^20; one coefficient can
    # only fit a conductor of at most 2, since phi(n) >= sqrt(n/2)
    def huge(doc):
        n = 10 ** 40 + 1
        doc.update(conductor=n, fpdims=[{"conductor": n, "coeffs": [[1, 1]]}])

    path = _write_entry(tmp_path, "trivial", mutate=huge)
    proc = subprocess.run([sys.executable, "-m", "fuscat", "validate", path],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "coefficients" in proc.stderr


def _write_without_dimensions(tmp_path):
    doc = to_document(builtin("ising").ring)
    del doc["fpdims"]
    p = tmp_path / "nodims.json"
    p.write_text(dump_document(doc), encoding="utf-8")
    return str(p)


def test_verify_without_dimensions_fails_on_the_coset_partition(tmp_path,
                                                               capsys):
    path = _write_without_dimensions(tmp_path)
    for argv in (["verify", path], ["verify", path, "--checks", "eq-4.3"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid: coset partition needs exact "
                                "dimensions\n")


def test_report_without_dimensions_fails_on_the_global_dimension(tmp_path,
                                                                capsys):
    path = _write_without_dimensions(tmp_path)
    assert main(["report", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid: global dimension needs exact dimensions\n"


VERIFY_ISING_THM_1_3_SHA256 = (
    "70befc14b2ebc2e792cb7a8e441e293f22faf844fb0e85ea92e112acdfc6ebe7")
FORMAT_USAGE_ERROR = (
    "usage: fuscat verify [-h] [--subcategory SUBCATEGORY | --all-subcategories]\n"
    "                     [--checks CHECKS] [--format {json,md}]\n"
    "                     target\n"
    "fuscat verify: error: argument --format: invalid choice: 'xml' "
    "(choose from 'json', 'md')\n")


def test_one_parser_serves_every_call_and_commands_are_looked_up_per_call(
        capsys, monkeypatch):
    """The parser is built once per process; a usage error in between leaves
    the next call's bytes as they were, and `main` calls whatever `cmd_*`
    the module holds at that moment (a tracer's wrapper, a test double)."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["verify", "ising", "--checks", "thm-1.3"]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert hashlib.sha256(first.out.encode()).hexdigest() \
        == VERIFY_ISING_THM_1_3_SHA256
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ising", "--format", "xml"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", FORMAT_USAGE_ERROR)
    assert main(argv) == 0
    assert capsys.readouterr() == first
    assert cli._build_parser() is cli._build_parser()

    seen = []
    monkeypatch.setattr(cli, "cmd_verify",
                        lambda args: seen.append(args.target) or 7)
    assert main(["verify", "fib"]) == 7
    assert seen == ["fib"]


# Documents that are no JSON the parser can hold: nesting past the
# recursion limit, bytes that are not UTF-8 (a UTF-16 byte-order mark) and
# an integer literal past the interpreter's 4,300-digit limit.
HOSTILE_JSON = {
    "deep.json": b"[" * 100_000,
    "utf16.json": b"\xff\xfe{}",
    "long-int.json": b'{"rank": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(HOSTILE_JSON))
@pytest.mark.parametrize("command", ["validate", "verify"])
def test_unreadable_json_is_a_schema_error(tmp_path, capsys, command, name):
    path = tmp_path / name
    path.write_bytes(HOSTILE_JSON[name])
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: not valid JSON (")
    assert captured.err.endswith(")\n")


def _set(path, value):
    """A mutation that sets doc[path[0]][path[1]]... to value."""
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value
    return mutate


SCHEMA_REFUSALS = [
    ("svec", _set(["rank"], "2"), 2, "error: field 'rank' must be an integer"),
    ("svec", _set(["names"], {"1": 0, "f": 1}), 2,
     "error: field 'names' must be a list"),
    ("svec", _set(["names", 1], 1), 2, "error: names must be strings"),
    ("svec", _set(["conductor"], 0), 2,
     "error: conductor must be a positive integer"),
    ("svec", _set(["tensor", 1], lambda plane: plane[:1]), 2,
     "error: tensor must be rank x rank x rank"),
    ("svec", _set(["tensor", 1, 1], lambda row: row[:1]), 2,
     "error: tensor must be rank x rank x rank"),
    ("svec", _set(["dual", 1], "1"), 2, "error: dual entries must be integers"),
    ("svec", _set(["char_table"], lambda rows: rows[:1]), 2,
     "error: field 'char_table' must be a 2 x 2 matrix"),
    ("svec", _set(["char_table", 1], lambda row: row[:1]), 2,
     "error: field 'char_table' must be a 2 x 2 matrix"),
    ("pointed-z4-q1", _set(["dual"], [0, 2, 3, 1]), 1,
     "invalid: duality failed at (1,): dual is not an involution"),
]


@pytest.mark.parametrize("key,mutate,code,message", SCHEMA_REFUSALS)
@pytest.mark.parametrize("command", ["validate", "verify"])
def test_schema_refusal_exit_code_and_message(tmp_path, capsys, command, key,
                                              mutate, code, message):
    path = _write_entry(tmp_path, key, mutate=mutate)
    assert main([command, path]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


# The documents of the benchmark's `doc-ingest` workload.
DOC_KEYS = ("trivial", "ising", "su2k-4", "su2k-6", "su2k-8", "su2k-10",
            "ising*ising", "su2k-4*svec", "pointed-z4-q1*pointed-z4-q2")

# Changes to one scalar that keep it in the document's field.
FIELD_CORRUPTIONS = (lambda v: v + 1, lambda v: v - 1,
                     lambda v: v + Fraction(1, 2), lambda v: -v,
                     lambda v: v * Fraction(-2, 3))


def _validate(path, doc, capsys):
    path.write_text(dump_document(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _corrupted(doc, field, rng):
    """(document, oracle message) for one scalar of `field` changed where
    the scans of every pair reject it; an S-matrix stays symmetric with its
    first row intact."""
    ring, table, _ = from_document(doc)
    r = ring.rank
    while True:
        corrupt = rng.choice(FIELD_CORRUPTIONS)
        bad = json.loads(json.dumps(doc))
        if field == "fpdims":
            i = rng.randrange(r)
            bad[field][i] = cycnum_to_json(corrupt(cycnum_from_json(doc[field][i])))
            dims = [cycnum_from_json(v) for v in bad[field]]
            oracle = (validate_fpdims_scan, ring, dims)
        elif field == "char_table":
            i, j = rng.randrange(r), rng.randrange(r)
            bad[field][i][j] = cycnum_to_json(
                corrupt(cycnum_from_json(doc[field][i][j])))
            rows = [[cycnum_from_json(v) for v in row] for row in bad[field]]
            oracle = (table_columns_scan, ring, rows)
        else:
            i, a = sorted((rng.randrange(1, r), rng.randrange(1, r)))
            value = cycnum_to_json(corrupt(cycnum_from_json(doc[field][i][a])))
            bad[field][i][a] = bad[field][a][i] = value
            s = [[cycnum_from_json(v) for v in row] for row in bad[field]]
            oracle = (smatrix_rows_scan_first, ring, table, s)
        try:
            oracle[0](*oracle[1:])
        except FuscatError as err:
            return bad, f"invalid: {err}\n"


@pytest.mark.parametrize("key", DOC_KEYS)
def test_validate_is_blind_to_relabelling(key, tmp_path, capsys):
    """Each relabelling of the non-unit basis prints what the document does,
    and a corrupted relabelled copy fails with the message of the first
    failing pair of the scan of every pair."""
    entry = builtin(key)
    doc = to_document(entry.ring, entry.table, entry.smatrix)
    path = tmp_path / "ring.json"
    code, out, err = _validate(path, doc, capsys)
    assert code == 0 and err == ""
    fields = ("fpdims", "char_table", "smatrix") if entry.ring.rank > 1 else ()
    rng, errors = random.Random(key), set()
    for _ in range(3):
        perm = list(range(1, entry.ring.rank))
        rng.shuffle(perm)
        moved = relabel_document(doc, [0] + perm)
        assert _validate(path, moved, capsys) == (0, out, "")
        for field in fields:
            bad, message = _corrupted(moved, field, rng)
            assert _validate(path, bad, capsys) == (1, "", message)
            errors.add(message.split(" ")[1])
    assert errors == ({"fpdims", "column", "s-matrix"} if fields else set())


@pytest.mark.parametrize("key", DOC_KEYS[1:])
def test_symmetric_smatrix_corruption_is_refused(key, tmp_path, capsys):
    """Adding 1 to s_ia and s_ai, for each i <= a, gives a matrix that
    `validate_smatrix` refuses, and `validate` refuses the document of the
    last such change.  So every S-matrix a target carries came through a
    matching, from which eq-4.3 holds without being computed."""
    entry = builtin(key)
    doc = to_document(entry.ring, entry.table, entry.smatrix)
    r = entry.ring.rank
    s = [list(row) for row in entry.smatrix.s]
    for i in range(r):
        for a in range(i, r):
            bad = [list(row) for row in s]
            bad[i][a] = bad[a][i] = s[i][a] + 1
            with pytest.raises(FuscatError):
                validate_smatrix(entry.ring, entry.table, bad)
    moved = json.loads(json.dumps(doc))
    moved["smatrix"][r - 1][r - 1] = cycnum_to_json(s[r - 1][r - 1] + 1)
    code, out, err = _validate(tmp_path / "ring.json", moved, capsys)
    assert (code, out) == (1, "") and err.startswith("invalid: s-matrix")
