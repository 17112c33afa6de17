"""End-to-end CLI behaviour: JSON reports, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from sgdsc import byleen, cli, finite, infinite, relations

import constructions
import pins


@pytest.fixture()
def table_file(tmp_path):
    def write(name, s):
        path = tmp_path / name
        path.write_text(constructions.to_json(s))
        return str(path)
    return write


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_left_zero(capsys, table_file):
    path = table_file("lz.json", constructions.left_zero(2))
    code, out, _ = run(capsys, ["check", path, "--brute"])
    assert code == 0
    report = json.loads(out)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["dsc"]["pass"] is False
    assert checks["dsc"]["witness"]["pairs"] == [[0, 0], [0, 1], [1, 1]]
    assert checks["dsc_brute"]["pass"] is False
    assert checks["group"]["pass"] is False


def test_check_c2(capsys, table_file):
    path = table_file("c2.json", finite.cyclic_group(2))
    code, out, _ = run(capsys, ["check", path, "--brute", "--strict"])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["dsc"]["pass"] is True and checks["dsc_brute"]["pass"] is True


def test_check_strict_fails_on_non_group(capsys, table_file):
    path = table_file("lz.json", constructions.left_zero(2))
    code, _, _ = run(capsys, ["check", path, "--strict"])
    assert code == 1


def test_parser_keeps_no_state_between_calls(capsys, table_file):
    path = table_file("c2.json", finite.cyclic_group(2))
    _, pretty, _ = run(capsys, ["check", path, "--pretty"])
    _, compact, _ = run(capsys, ["check", path])
    assert "\n" in pretty.strip()
    assert "\n" not in compact.strip() and json.loads(compact) == json.loads(pretty)


def test_check_and_witness_reject_order_above_cap(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"order": finite.MAX_ORDER + 1, "table": []}))
    for command in ("check", "witness"):
        code, out, err = run(capsys, [command, str(path)])
        assert code == 2 and out == ""
        assert str(finite.MAX_ORDER) in json.loads(err)["error"]


def test_check_and_witness_read_at_most_the_byte_cap(capsys, tmp_path, monkeypatch):
    path = tmp_path / "c2.json"
    path.write_text(constructions.to_json(finite.cyclic_group(2)))
    size = path.stat().st_size
    monkeypatch.setattr(finite, "MAX_TABLE_BYTES", size)
    assert run(capsys, ["check", str(path)])[0] == 0
    monkeypatch.setattr(finite, "MAX_TABLE_BYTES", size - 1)
    for command in ("check", "witness"):
        code, out, err = run(capsys, [command, str(path)])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": f"table file exceeds the input cap of {size - 1} bytes"}


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_check_refuses_an_endless_file(capsys):
    code, out, err = run(capsys, ["check", "/dev/zero"])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": f"table file exceeds the input cap of {finite.MAX_TABLE_BYTES} bytes"}


def test_check_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    # bad JSON, bytes that are not UTF-8, arrays nested past the recursion limit
    for content in (b"{not json", b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000):
        path.write_bytes(content)
        code, _, err = run(capsys, ["check", str(path)])
        assert code == 2
        assert "error" in json.loads(err)


@pytest.mark.parametrize("content, error", [
    (b'{"order": 1,\r\n "table": [[0]] x}', "Expecting ',' delimiter: line 2 column 17 (char 29)"),
    (b'{"order": 1,\r "table": [[0]] x}', "Expecting ',' delimiter: line 2 column 17 (char 29)"),
    (b'{"order": 1,' + b" " * 100_000 + b'"x": "\xff"}',
     "'utf-8' codec can't decode byte 0xff in position 100018: invalid start byte"),
], ids=["crlf", "cr", "bad-byte-past-the-first-chunk"])
def test_check_error_positions_count_the_text_as_read(capsys, tmp_path, content, error):
    """Newlines are translated and the file is decoded whole, as a text-mode
    read() does, however the bytes were read."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error}


@pytest.mark.parametrize("doc, error", [
    ({"order": 2, "table": [["0", 1], [1, 0]]}, "table entry '0' is not an integer"),
    ({"order": 2, "table": [[0.0, 1], [1, 0]]}, "table entry 0.0 is not an integer"),
    ({"order": 2, "table": 5}, "table must be a list of rows"),
    ({"order": True, "table": [[0]]}, "order must be a positive integer"),
    ({"order": 2, "table": [[0, 1], [1, 0]], "names": [1, 2]}, "names must be a list of strings"),
    ({"order": 2, "table": [[0, 1], [1, 0]], "names": ["a"]}, "names length does not match order"),
    ({"order": 2, "table": [[0, 1], [1, 0]], "names": "ab"}, "names must be a list of strings"),
    # the table is validated before the names
    ({"order": 2, "table": [[0, 1], [0, 0]], "names": 5}, "associativity fails at triple (1,0,1)"),
], ids=["string-entry", "float-entry", "table-not-list", "bool-order", "int-names",
        "names-wrong-length", "names-not-a-list", "table-before-names"])
def test_check_rejects_malformed_table(capsys, tmp_path, doc, error):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error}


def test_check_failed_checks_carry_witnesses(capsys, table_file):
    path = table_file("ms.json", constructions.min_semilattice())
    _, out, _ = run(capsys, ["check", path, "--brute"])
    for check in json.loads(out)["checks"]:
        if not check["pass"]:
            assert "witness" in check


def test_check_deterministic(capsys, table_file):
    path = table_file("lz.json", constructions.left_zero(2))
    _, out1, _ = run(capsys, ["check", path, "--brute"])
    _, out2, _ = run(capsys, ["check", path, "--brute"])
    assert out1 == out2


# The fast pins of the manifest, run in-process by the three tests below (pins
# reading a table, `sg models`, the rest); `python tests/pins.py` runs every pin
# in a subprocess
_PINS = {pin.name: pin for pin in pins.PINS}
_FAST = [pin for pin in pins.PINS if pins.is_fast(pin)]


def _fast_pins(select):
    chosen = [pin for pin in _FAST if select(pin)]
    return pytest.mark.parametrize("pin", chosen, ids=[pin.name for pin in chosen])


def _code_and_digest(capsys, argv):
    code, out, _ = run(capsys, list(argv))
    return code, hashlib.sha256(out.encode()).hexdigest()


@_fast_pins(lambda pin: pin.table is not None)
def test_check_and_witness_output_pinned(capsys, tmp_path, monkeypatch, pin):
    monkeypatch.chdir(tmp_path)
    pins.write_table(pin.table, pin.argv[1])
    assert _code_and_digest(capsys, pin.argv) == (pin.code, pin.sha256)


@_fast_pins(lambda pin: pin.argv[0] == "models")
def test_models_output_pinned(capsys, pin):
    assert _code_and_digest(capsys, pin.argv) == (pin.code, pin.sha256)


@_fast_pins(lambda pin: pin.table is None and pin.argv[0] != "models")
def test_enumerate_and_byleen_output_pinned(capsys, pin):
    assert _code_and_digest(capsys, pin.argv) == (pin.code, pin.sha256)


def test_pin_runner_names_the_pin_whose_digest_differs(capsys):
    pin = _PINS["z"]
    last = "1" if pin.sha256[-1] == "0" else "0"
    broken = pin._replace(name="z-broken", sha256=pin.sha256[:-1] + last)
    assert pins.run([broken]) == 1
    captured = capsys.readouterr()
    assert captured.out == "0 of 2 pinned runs match\n"
    assert [line.split(":")[0] for line in captured.err.splitlines() if ": sha256 " in line] == \
        ["z-broken under -W error", "z-broken under -S -O -W error"]


@pytest.mark.parametrize("name, strategy", [("C16-zero", "ideal"), ("rees-C4-2x2", "rees-R"),
                                            ("RZ4xC4", "rees-L")])
def test_check_and_witness_analyse_the_table_once(capsys, monkeypatch, tmp_path,
                                                  name, strategy):
    calls = {}

    def counting(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counting(finite, "greedy_generators")
    counting(finite, "_scc")
    counting(relations, "axiom_report")
    monkeypatch.chdir(tmp_path)
    check, witness = _PINS[f"{name}-check"], _PINS[f"{name}-witness"]
    pins.write_table(check.table, check.argv[1])
    for argv in (check.argv, witness.argv):
        calls.clear()
        code, out, _ = run(capsys, list(argv))
        assert code == 0 and strategy in out
        # one generating set, kept from validation; R, L and J components once each;
        # the witness's axioms reported once and reused for its JSON
        assert calls["greedy_generators"] == 1
        assert calls["_scc"] <= 3
        assert calls["axiom_report"] == 1


def test_witness_subcommand(capsys, table_file):
    path = table_file("ms.json", constructions.min_semilattice())
    code, out, _ = run(capsys, ["witness", path])
    assert code == 0
    doc = json.loads(out)["witness"]
    assert doc["strategy"] == "ideal" and doc["failing_pair"] == [0, 1]


def test_witness_on_group_fails(capsys, table_file):
    path = table_file("c3.json", finite.cyclic_group(3))
    code, out, _ = run(capsys, ["witness", path])
    assert code == 1
    assert "error" in json.loads(out)


def _assert_pin_stdout(name, stdout):
    """The golden stdout is what pin ``name`` runs to: its sha256, exit 0."""
    pin = _PINS[name]
    assert (pin.code, pin.sha256) == (0, hashlib.sha256(stdout.encode()).hexdigest())


# the goldens of the pinned enumerations, written out; two labeled C2 tables
# at order 2: the identity can sit at either index
@pytest.mark.parametrize("n, tables, groups, strategies", [
    (2, 8, 2, '{"ideal": 4, "rees-L": 1, "rees-R": 1}'),
    (3, 113, 3, '{"ideal": 108, "rees-L": 1, "rees-R": 1}'),
    (4, 3492, 16, '{"ideal": 3444, "rees-L": 13, "rees-R": 19}'),
], ids=["2", "3", "4"])
def test_enumerate_oracle_small(n, tables, groups, strategies):
    _assert_pin_stdout(f"enumerate-{n}-oracle",
                       f'{{"groups": {groups}, "oracle": "pass", "order": {n}, '
                       f'"tables": {tables}, "witness_strategies": {strategies}}}\n')


@pytest.mark.parametrize("wrong_on_groups", [False, True], ids=["non-group", "group"])
def test_enumerate_oracle_reports_brute_disagreement(capsys, monkeypatch, wrong_on_groups):
    # the subset scan disagrees with the group test on one side: every
    # representative is brute-checked, so the oracle must stop there
    brute = relations.brute_force_is_dsc

    def disagreeing(s):
        if finite.is_group(s) != wrong_on_groups:
            return brute(s)
        return (False, None) if wrong_on_groups else (True, None)

    monkeypatch.setattr(relations, "brute_force_is_dsc", disagreeing)
    code, out, _ = run(capsys, ["enumerate", "4", "--oracle"])
    assert code == 1
    table = json.loads(out)["disagreement"]["table"]
    s = finite.validate_cayley(4, table)
    assert finite.is_group(s) == wrong_on_groups


@pytest.mark.parametrize("n, labeled, classes", [(3, 113, 24), (4, 3492, 188)],
                         ids=["3", "4"])
def test_enumerate_count(capsys, n, labeled, classes):
    code, out, _ = run(capsys, ["enumerate", str(n), "--count"])
    assert code == 0
    doc = json.loads(out)
    assert doc["labeled"] == labeled and doc["isomorphism_classes"] == classes


def test_enumerate_count_order_5():
    _assert_pin_stdout("enumerate-5-count",
                       '{"isomorphism_classes": 1915, "labeled": 183732, "order": 5}\n')


def test_enumerate_cap(capsys):
    code, out, err = run(capsys, ["enumerate", "6"])
    assert code == 2 and out == ""
    assert "between 1 and 5" in json.loads(err)["error"]


def test_enumerate_oracle_cap(capsys):
    code, out, err = run(capsys, ["enumerate", "5", "--oracle"])
    assert code == 2 and out == ""
    assert "capped at order 4" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [["enumerate", "x"],
                                  ["enumerate", "3", "--oracle", "--count"],
                                  ["models", "nonesuch"],
                                  ["check", "t.json", "--witness"]],
                         ids=["not-an-int", "oracle-and-count", "bad-choice",
                              "unknown-flag"])
def test_argument_errors_are_json(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "error" in json.loads(captured.err)


@pytest.mark.parametrize("n", ["-1", "0"])
def test_enumerate_rejects_non_positive(capsys, n):
    code, out, err = run(capsys, ["enumerate", n])
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


def test_byleen_eval(capsys):
    code, out, _ = run(capsys, ["byleen", "eval", "a(0,s0) b(0,s0)"])
    assert code == 0
    assert json.loads(out) == {"normal_form": "1"}  # untouched cell defaults to 1
    code, out, _ = run(capsys, ["byleen", "eval", "s0"])
    assert json.loads(out) == {"normal_form": "1"}
    code, out, _ = run(capsys, ["byleen", "eval", "b(0,s1) s1 s1 a(2,s0)"])
    assert json.loads(out) == {"normal_form": "b(0,s1) a(2,s0)"}


def test_byleen_mul(capsys):
    code, out, _ = run(capsys, ["byleen", "mul", "b(0,s0)", "a(1,s1)"])
    assert code == 0
    assert json.loads(out) == {"normal_form": "b(0,s0) a(1,s1)"}


def test_byleen_span_length_500(capsys):
    # stage indices pass Python's 4300-digit int-to-str limit here
    a_word = " ".join(["a(0,s0)"] * 500)
    b_word = " ".join(["b(0,s0)"] * 500)
    code, out, _ = run(capsys, ["byleen", "span", f"{b_word} s1 {a_word}", a_word,
                                "s1", "a(2,s1)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True and doc["case"] == "b-words-differ"
    digits = max(len(tok[2:tok.index(",")]) for f in doc["factors"] if "diag" in f
                 for tok in f["diag"].split() if tok[0] in "ab")
    assert digits > 4300


@pytest.mark.parametrize("kind, case", [("a", "a-words-differ"), ("b", "b-words-differ")])
def test_byleen_span_words_differing_at_every_letter(capsys, kind, case):
    # one certificate step per letter: past Python's default recursion limit
    words = [" ".join(f"{kind}({(i + k) % 3},s{i % 2})" for i in range(1200)) for k in (0, 1)]
    g, h = (f"s1 {w}" if kind == "a" else f"{w} s1" for w in words)
    code, out, _ = run(capsys, ["byleen", "span", g, h, "s1", "a(2,s1)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True and doc["case"] == case


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-from-str digit limit is in force")
def test_byleen_input_index_keeps_digit_limit(capsys):
    digits = "1" * (DIGIT_LIMIT + 1)
    code, out, err = run(capsys, ["byleen", "eval", f"a({digits},s0)"])
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("argv, error", [
    (["eval", "a(0,s0)", "junk"], "byleen eval takes 1 word, got 2"),
    (["eval"], "byleen eval takes 1 word, got 0"),
    (["mul", "a(0,s0)"], "byleen mul takes 2 words, got 1"),
    (["span", "a(0,s0)", "b(0,s0)", "s1", "a(2,s1)", "s0"], "byleen span takes 4 words, got 5"),
    (["span", "a(0,s0)", "b(0,s0)", "s1"], "byleen span takes 4 words, got 3"),
    (["inverse", "s1", "s1"], "byleen inverse takes 1 word, got 2"),
])
def test_byleen_word_count(capsys, argv, error):
    code, out, err = run(capsys, ["byleen", *argv])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error}


def test_byleen_parse_error(capsys):
    code, _, err = run(capsys, ["byleen", "eval", "q(0)"])
    assert code == 2
    assert "error" in json.loads(err)
    code, out, err = run(capsys, ["byleen", "eval", "s7"])  # base element out of range
    assert code == 2 and out == ""
    assert "error" in json.loads(err)
    for word in ["a(\u0663,s0)", "s\u0663"]:  # an Arabic-Indic 3 is not a digit here
        code, out, err = run(capsys, ["byleen", "eval", word])
        assert code == 2 and out == ""
        assert "error" in json.loads(err)


def test_byleen_trivial_base(capsys):
    code, out, _ = run(capsys, ["byleen", "eval", "s0 s0", "--base", "trivial"])
    assert code == 0
    assert json.loads(out) == {"normal_form": "1"}


def test_byleen_deterministic(capsys):
    argv = ["byleen", "span", "a(0,s0)", "b(0,s0)", "s1", "a(2,s1)"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_models_run_the_suite_bound_on_the_module(capsys, monkeypatch):
    # a wrapper set on infinite, as the benchmark's tracer sets one, is the suite run
    calls = []
    suite = infinite.z_checks

    def wrapper():
        calls.append(None)
        return suite()
    monkeypatch.setattr(infinite, "z_checks", wrapper)
    code, _, _ = run(capsys, ["models", "z"])
    assert code == 0 and len(calls) == 1


def test_models_baer_levi_fields(capsys):
    _, out, _ = run(capsys, ["models", "baer-levi"])
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["fg_member"]["witness"]["intersection"] == [4]
    assert checks["fh_non_member"]["witness"]["intersection"] == []
    assert checks["membership_pattern"]["pass"] is True


def test_baer_levi_flags_and_products_share_one_rho_test(capsys, monkeypatch):
    # the witness hands out infinite.rho_member and its own flags call it, so
    # rebinding it on the module reaches `sg models baer-levi`
    assert infinite.baer_levi_witness()["rho_member"] is infinite.rho_member
    monkeypatch.setattr(infinite, "rho_member", lambda x, y: False)
    code, out, _ = run(capsys, ["models", "baer-levi"])
    checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert code == 1
    assert checks["fg_member"] is False and checks["membership_pattern"] is False


def test_timing_only_with_flag(capsys, table_file):
    path = table_file("c2.json", finite.cyclic_group(2))
    _, out, _ = run(capsys, ["check", path])
    assert "timing" not in json.loads(out)
    _, out, _ = run(capsys, ["check", path, "--timing"])
    assert "timing" in json.loads(out)


def test_byleen_failed_certificate_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(byleen.TwoTransitiveMatrix, "entry",
                        lambda self, a, b: byleen.SElem(self.identity))
    code, out, err = run(capsys, ["byleen", "span", "a(0,s0)", "b(0,s0)",
                                  "s1", "a(2,s1)"])
    assert code == 1 and out == ""
    assert "certificate" in json.loads(err)["error"]


def _sg_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return {**os.environ, "PYTHONPATH": src}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit in this Python")
def test_byleen_render_under_least_digit_limit():
    # 640 is the least limit Python accepts; the longest index here has 683 digits
    a_word = " ".join(f"a({i % 3},s{i % 2})" for i in range(64))
    b_word = " ".join(f"b({i % 3},s{(i + 1) % 2})" for i in range(64))
    proc = subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-m", "sgdsc.cli",
                           "byleen", "span", f"{b_word} s1 {a_word}", a_word, "s1", "a(2,s1)"],
                          capture_output=True, env=_sg_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "bbd14dbc28ca3b5ca96177f5160f2d2b9031d7db098018dc82b6d2c1c4bae892"


def test_module_entry_point_runs_once():
    # `python -m sgdsc.cli` must not find sgdsc.cli already imported by the package
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sgdsc.cli",
                           "enumerate", "2", "--oracle"],
                          capture_output=True, text=True, env=_sg_env(), timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["oracle"] == "pass"


def test_closed_pipe_exits_without_traceback():
    # order 4 prints ~280 kB, more than a pipe buffers, so the writer meets
    # the closed pipe
    with subprocess.Popen([sys.executable, "-m", "sgdsc.cli", "enumerate", "4"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_sg_env()) as proc:
        assert json.loads(proc.stdout.readline())["order"] == 4
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""  # no traceback, and no "Exception ignored" at exit


def test_closed_pipe_before_the_exit_flush(table_file):
    # a short report stays in stdout's buffer until the flush, so the closed
    # pipe is met there; the read end is closed before the command starts
    path = table_file("c2.json", finite.cyclic_group(2))
    env = _sg_env()
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "sgdsc.cli", "check", path],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 1 and proc.stderr == b""
