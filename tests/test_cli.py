"""Command-line interface: subcommands, exit codes, output determinism.

Everything runs in-process through main(argv) except one subprocess smoke
test for the module entry point.  File outputs must be byte-identical across
reruns of the same arguments.
"""

import csv
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dyadbloom
from dyadbloom import cli
from dyadbloom.cli import SWEEP_COLUMNS, main
from dyadbloom.config import MAX_DEPTH, SUITE_NAMES, ExperimentConfig
from dyadbloom.errors import ConfigError
from dyadbloom.grid import leaf_values
from dyadbloom.serialize import (
    dumps_canonical,
    load_step_function,
    load_weight,
    save_step_function,
    write_json,
)
from dyadbloom.weights import KIND_FIELDS


def _gen(tmp_path, name, **over):
    args = {"kind": "cascade", "depth": "4", "seed": "3"}
    args.update({k.replace("_", "-"): v for k, v in over.items()})
    out = tmp_path / name
    argv = ["gen", "--out", str(out)]
    for k, v in args.items():
        argv.extend([f"--{k}", str(v)])
    assert main(argv) == 0
    return out


def _save(tmp_path, name, values, role="weight"):
    path = tmp_path / name
    save_step_function(path, leaf_values(values), role)
    return path


def test_canonical_json_of_arrays():
    # a finite or integer array is written whole; a non-finite entry is null
    doc = {"f": np.array([[0.1, -2.0]]), "i": np.arange(2), "x": np.array([1.0, np.inf, np.nan])}
    assert dumps_canonical(doc) == '{"f":[[0.1,-2.0]],"i":[0,1],"x":[1.0,null,null]}\n'


def test_gen_writes_schema(tmp_path, capsys):
    out = _gen(tmp_path, "mu.json")
    doc = json.loads(out.read_text())
    assert doc["type"] == "weight"
    assert doc["depth"] == 4
    assert len(doc["values"]) == 16
    assert doc["spec"]["kind"] == "cascade"
    w = load_weight(out)
    assert np.all(w.values > 0)
    assert "wrote weight kind=cascade" in capsys.readouterr().out


def test_gen_is_byte_deterministic(tmp_path):
    a = _gen(tmp_path, "a.json")
    b = _gen(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")


# sha256 of `gen --depth 6 --seed 5 --out F` per kind, with --alpha 0.3 where
# the kind reads it (power; gen refuses it elsewhere), and of a cascade whose
# --a2-min 1.5 --a2-max 1.6 rejects the first draw
_GEN_DIGESTS = {
    "constant": "2ec6bdcec1424368f4c5b05d0256419611afaf816b7ad1c9e58e92549e5c104a",
    "two-value": "6e00a6ba77831b3bb2c5cb3362d5c0cbb2230bb89e1fdb48a42bf399650961d1",
    "power": "c606c4b12961bdb79750755e5e87cec9cd60ad20f41b8352754a87584cebdcb6",
    "cascade": "a6d4afbf15230a764f24cd50f69098e1528aa002210b67d686eb57763a8de4b4",
    "log-symbol": "5ae971e8403d85ccc9cbf265e883c2959d84d0c6c325c699eebbfd87a3fc2310",
    "haar-sparse-symbol": "4240f944822dd730bf036f749cc4b64d5b83859204a649beaab33588b7070ee3",
    "cascade-a2-range": "7cd6f4385d7e512b3bd8903e5de411e8cc161cd6ed5a7127531280f0781ef6e1",
}


@pytest.mark.parametrize("case", sorted(_GEN_DIGESTS))
def test_gen_output_bytes_are_pinned(tmp_path, case):
    over = {"kind": case, "depth": 6, "seed": 5}
    if case == "cascade-a2-range":
        over.update(kind="cascade", a2_min=1.5, a2_max=1.6)
    if "alpha" in KIND_FIELDS[over["kind"]]:
        over["alpha"] = 0.3
    out = _gen(tmp_path, "f.json", **over)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GEN_DIGESTS[case]


def test_gen_symbol_kinds(tmp_path):
    for kind in ("log-symbol", "haar-sparse-symbol"):
        out = _gen(tmp_path, f"{kind}.json", kind=kind)
        doc = json.loads(out.read_text())
        assert doc["type"] == "symbol"
        load_step_function(out)


@pytest.mark.parametrize(
    "depth, values",
    [(True, [0.0, 1.0]), (2.0, [0.0, 1.0, -1.0, 2.0]), ("2", [0.0, 1.0, -1.0, 2.0]),
     (2, [True, False, True, False]), (2, ["0", "1", "-1", "2"]), (2, [0, 10**400, -1, 2]),
     (0, [0.0, 1.0]), (25, [0.0, 1.0])],
    ids=["depth-true", "depth-float", "depth-string", "bool-leaves", "string-leaves",
         "huge-integer-leaf", "depth-0", "depth-25"],
)
def test_leaf_file_needs_integer_depth_and_number_leaves(tmp_path, depth, values):
    # the first five would read as a valid file of depth int(depth) where
    # leaves and depth passed through Python's int() and numpy's float
    # conversion; a JSON integer too large for a float raised OverflowError;
    # a depth outside [1, 24] fails on the number alone, before any leaf
    # count is compared
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"type": "symbol", "depth": depth, "values": values}))
    with pytest.raises(ConfigError):
        load_step_function(path)


@pytest.mark.parametrize("leaf", [True, "1", None, [1.0]], ids=["bool", "string", "null", "list"])
def test_leaf_file_rejects_a_non_number_leaf_by_name(tmp_path, leaf):
    # one bad leaf among numbers is enough, and every kind reads the same
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"type": "symbol", "depth": 2, "values": [0, 1.5, leaf, 2]}))
    with pytest.raises(ConfigError, match="values must be a list of JSON numbers"):
        load_step_function(path)
    path.write_text(json.dumps({"type": "symbol", "depth": 2, "values": [0, 1.5, -1, 2]}))
    assert load_step_function(path).tolist() == [0.0, 1.5, -1.0, 2.0]


def test_gen_requires_paired_a2_flags(tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main(["gen", "--kind", "cascade", "--depth", "4",
                 "--a2-min", "1.5", "--out", str(out)])
    assert code == 2
    assert "together" in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejects_bad_values(tmp_path, capsys):
    code = main(["gen", "--kind", "two-value", "--depth", "3",
                 "--values", "1,oops", "--out", str(tmp_path / "w.json")])
    assert code == 2
    assert "comma-separated" in capsys.readouterr().err


def test_norms_unit_weights_haar_symbol(tmp_path, capsys):
    # flat weights with b = h_[0,1): every Bloom/BMO functional and the
    # paraproduct norm equal 1
    one = _save(tmp_path, "one.json", [1.0, 1.0, 1.0, 1.0])
    lam = _save(tmp_path, "lam.json", [1.0, 1.0, 1.0, 1.0])
    b = _save(tmp_path, "b.json", [-1.0, -1.0, 1.0, 1.0], role="symbol")
    assert main(["norms", "--mu", str(one), "--lambda", str(lam),
                 "--symbol", str(b)]) == 0
    out = capsys.readouterr().out
    for field in ("bloom_b2 ", "bmo_rho ", "neccon ", "norm_paraproduct "):
        line = next(ln for ln in out.splitlines() if ln.startswith(field))
        assert float(line.split()[-1]) == pytest.approx(1.0, abs=1e-12)


def test_norms_worked_a2_value(tmp_path, capsys):
    mu = _save(tmp_path, "mu.json", [4.0, 4.0, 1.0, 1.0])
    lam = _save(tmp_path, "lam.json", [1.0, 1.0, 1.0, 1.0])
    b = _save(tmp_path, "b.json", [-1.0, -1.0, 1.0, 1.0], role="symbol")
    rep = tmp_path / "report.json"
    assert main(["norms", "--mu", str(mu), "--lambda", str(lam),
                 "--symbol", str(b), "--out", str(rep)]) == 0
    assert "1.5625" in capsys.readouterr().out
    doc = json.loads(rep.read_text())
    assert doc["a2_mu"] == 1.5625


def test_norms_zero_symbol(tmp_path):
    one = _save(tmp_path, "one.json", [1.0] * 8)
    zero = _save(tmp_path, "zero.json", [0.0] * 8, role="symbol")
    rep = tmp_path / "rep.json"
    assert main(["norms", "--mu", str(one), "--lambda", str(one),
                 "--symbol", str(zero), "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["bmo"]["bloom_b2"] == 0.0
    assert doc["norm_commutator"] == 0.0
    assert doc["norm_paraproduct"] == 0.0


def test_norms_depth_mismatch_names_files(tmp_path, capsys):
    mu = _save(tmp_path, "mu.json", [1.0] * 4)
    lam = _save(tmp_path, "lam.json", [1.0] * 8)
    b = _save(tmp_path, "b.json", [0.0] * 4, role="symbol")
    code = main(["norms", "--mu", str(mu), "--lambda", str(lam), "--symbol", str(b)])
    assert code == 2
    err = capsys.readouterr().err
    assert "depth mismatch" in err
    assert str(mu) in err and str(lam) in err


def test_norms_rejects_nonpositive_weight(tmp_path, capsys):
    mu = _save(tmp_path, "mu.json", [1.0, -1.0, 1.0, 1.0])
    b = _save(tmp_path, "b.json", [0.0] * 4, role="symbol")
    code = main(["norms", "--mu", str(mu), "--lambda", str(mu), "--symbol", str(b)])
    assert code == 2
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["mu", "lambda"])
@pytest.mark.parametrize(
    "leaves",
    [
        [1.0, 1e-320, 1.0, 1.0],  # subnormal: its reciprocal overflows
        [1.0, 0.0, 1.0, 1.0],
        [1.0, -1.0, 1.0, 1.0],
        [1.0, math.nan, 1.0, 1.0],
        [1.0, 1.0, 1.0],  # wrong length for depth 2
        [1.0, 1e308, 1.0, 1.0],
        [1.0, -1e308, 1.0, 1.0],
    ],
)
def test_norms_weight_leaf_fuzz_exits_cleanly(tmp_path, capsys, role, leaves):
    one = _save(tmp_path, "one.json", [1.0] * 4)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "weight", "depth": 2, "values": leaves}))
    b = _save(tmp_path, "b.json", [0.0, 1.0, -1.0, 2.0], role="symbol")
    files = {"mu": one, "lambda": one, role: bad}
    out = tmp_path / "rep.json"
    code = main(["norms", "--mu", str(files["mu"]), "--lambda", str(files["lambda"]),
                 "--symbol", str(b), "--out", str(out)])
    _assert_clean_norms_exit(code, capsys.readouterr().err, out)


def _symbol_doc(leaves):
    return json.dumps({"type": "symbol", "depth": 2, "values": leaves})


# leaves that are not JSON numbers and depths that are not JSON integers are
# rejected, even where Python could convert them
_REJECTED_SYMBOL_FILES = [
    _symbol_doc(["0", "1", "-1", "2"]),
    _symbol_doc([True, False, True, False]),
    json.dumps({"type": "symbol", "depth": "2", "values": [0.0, 1.0, -1.0, 2.0]}),
    json.dumps({"type": "symbol", "depth": 2.7, "values": [0.0, 1.0, -1.0, 2.0]}),
    json.dumps({"type": "symbol", "depth": True, "values": [0.0, 1.0]}),
]


@pytest.mark.parametrize(
    "text",
    [
        *(_symbol_doc([0.0, leaf, -1.0, 2.0])
          for leaf in (1e308, -1e308, 1e200, 1e-320, math.nan, math.inf)),
        _symbol_doc([1e300, -1e300, -1e300, 1e300]),
        _symbol_doc([0.0, 1.0, -1.0, 2.0])[:-5],  # truncated
        "[0.0, 1.0, -1.0, 2.0]",
        "null",
        "",
        _symbol_doc([0.0, 1.0, -1.0]),  # wrong length for depth 2
        _symbol_doc(["0", "one", "-1", "2"]),
        *_REJECTED_SYMBOL_FILES,
    ],
)
def test_norms_symbol_file_fuzz_exits_cleanly(tmp_path, capsys, text):
    one = _save(tmp_path, "one.json", [1.0] * 4)
    bad = tmp_path / "b.json"
    bad.write_text(text)
    out = tmp_path / "rep.json"
    code = main(["norms", "--mu", str(one), "--lambda", str(one),
                 "--symbol", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    if text in _REJECTED_SYMBOL_FILES:
        assert code == 2 and err.startswith("error: ")
    _assert_clean_norms_exit(code, err, out)


def _assert_clean_norms_exit(code, err, out):
    # every input file either fails cleanly with exit code 2 or gives a
    # report whose values are all finite; never a traceback
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ")
        return
    assert code == 0

    def leaves_of(doc):
        if isinstance(doc, dict):
            for v in doc.values():
                yield from leaves_of(v)
        else:
            yield doc

    assert all(v is not None for v in leaves_of(json.loads(out.read_text())))


@pytest.mark.parametrize("command", ["norms", "verify", "sweep"])
def test_weights_out_of_double_range_exit_with_one_error_line(tmp_path, capsys, command):
    # finite weights whose products leave the double range: every computing
    # command exits 2 with one error line, no traceback and no output file
    out = tmp_path / "out"
    if command == "norms":
        argv = ["norms", "--mu", str(_save(tmp_path, "mu.json", [1e-200, 1e200] * 8)),
                "--lambda", str(_gen(tmp_path, "lam.json")),
                "--symbol", str(_gen(tmp_path, "b.json", kind="log-symbol")), "--out", str(out)]
    else:
        config = tmp_path / "config.json"
        write_json(config, {"depth": 4, "trials": 2, "suites": ["equivalences"],
                            "mu": {"kind": "two-value", "values": [1e-200, 1e200]}})
        argv = [command, "--config", str(config), "--out", str(out)]
        if command == "sweep":
            argv += ["--parameter", "delta", "--range", "0.1:0.2:2"]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: inputs out of double-precision range")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists() or not any(out.iterdir())


def test_verify_writes_suite_json(tmp_path, capsys):
    argv = ["verify", "--depth", "4", "--seed", "9", "--trials", "2",
            "--out", str(tmp_path / "r1")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "[identities] PASS" in out
    assert f"verify: PASS ({len(SUITE_NAMES)} suites)" in out
    path = tmp_path / "r1" / "suite-identities.json"
    doc = json.loads(path.read_text())
    assert doc["suite"] == "identities"
    assert doc["passed"] is True
    assert path.read_text().endswith("\n")
    # byte-identical rerun, every suite
    argv2 = argv[:-1] + [str(tmp_path / "r2")]
    assert main(argv2) == 0
    assert capsys.readouterr().out == out
    for name in SUITE_NAMES:
        first = (tmp_path / "r1" / f"suite-{name}.json").read_bytes()
        assert first == (tmp_path / "r2" / f"suite-{name}.json").read_bytes(), name


def test_verify_suite_selection(tmp_path):
    assert main(["verify", "--depth", "4", "--trials", "1",
                 "--suite", "identities", "--suite", "carleson",
                 "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.glob("suite-*.json"))
    assert names == ["suite-carleson.json", "suite-identities.json"]


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_trials_zero_is_config_error(capsys):
    assert main(["verify", "--depth", "4", "--trials", "0",
                 "--suite", "identities"]) == 2
    assert "trials" in capsys.readouterr().err


def test_verify_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"depth": 3, "trials": 1, "seed": 5, "suites": ["identities"]})
    assert main(["verify", "--config", str(cfg)]) == 0
    assert "verify: PASS" in capsys.readouterr().out


def test_verify_config_file_errors_name_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"depth": 3, "bogus": 1})
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "bogus" in err
    missing = tmp_path / "absent.json"
    assert main(["verify", "--config", str(missing)]) == 2


@pytest.mark.parametrize("field,value", [("dense_depth_cap", 10), ("norm_method", "power")])
def test_verify_config_rejects_removed_norm_fields(tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"depth": 3, "trials": 1, "suites": ["identities"], field: value})
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown config fields" in err and field in err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


_RUN_COMMANDS = """
import json, sys
from dyadbloom.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def _child_env(**extra):
    # a child process imports the package under test: the directory it was
    # imported from goes first on PYTHONPATH, so a plain checkout works too
    src = str(Path(dyadbloom.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, **extra, "PYTHONPATH": path}


def _run_within_one_gib(commands):
    # every BLAS thread reserves address space, so one thread keeps the
    # limit independent of the core count
    env = _child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)],
        capture_output=True, text=True, timeout=300, env=env,
        preexec_fn=_limit_address_space,
    )


def _gen_and_norms(tmp_path, depth, out):
    # CLI argument lists: gen a cascade mu and lambda and a log-symbol, then
    # run norms on them, writing the report to out
    files = {role: str(tmp_path / f"{role}.json") for role in ("mu", "lambda", "symbol")}
    commands = [
        ["gen", "--kind", kind, "--depth", str(depth), "--seed", str(seed), "--out", files[role]]
        for role, kind, seed in (("mu", "cascade", 0), ("lambda", "cascade", 1),
                                 ("symbol", "log-symbol", 2))
    ]
    commands.append(["norms", "--mu", files["mu"], "--lambda", files["lambda"],
                     "--symbol", files["symbol"], "--out", str(out)])
    return commands


def test_norms_at_depth_14_within_one_gib(tmp_path):
    # A 2^14 x 2^14 float64 matrix alone is 2 GiB, so under a 1 GiB
    # address-space limit any dense regression fails cleanly instead of
    # drawing the machine into an out-of-memory kill.
    out = tmp_path / "report.json"
    proc = _run_within_one_gib(_gen_and_norms(tmp_path, 14, out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["depth"] == 14
    for key in ("norm_paraproduct", "norm_paraproduct_adjoint", "norm_shift_mu",
                "norm_shift_lambda", "norm_commutator"):
        assert math.isfinite(doc[key]) and doc[key] > 0.0, key


def test_verify_every_suite_at_depth_16(tmp_path):
    # every suite works level by level or matrix-free, so all eight run at
    # D=16 in seconds, under 1 GiB (config.MAX_DEPTH is the deepest depth
    # that passes this way; it takes half a minute)
    out = tmp_path / "results"
    proc = _run_within_one_gib([
        ["verify", "--depth", "16", "--trials", "1", "--out", str(out)],
    ])
    assert proc.returncode == 0, proc.stderr
    for suite in SUITE_NAMES:
        doc = json.loads((out / f"suite-{suite}.json").read_text())
        assert doc["config"]["depth"] == 16
        assert doc["passed"], suite


def test_verify_rejects_depth_above_the_configured_cap(capsys):
    assert main(["verify", "--depth", str(MAX_DEPTH + 1), "--trials", "1"]) == 2
    assert f"[2, {MAX_DEPTH}]" in capsys.readouterr().err


def test_verify_prints_findings_with_seeds(capsys):
    # this configuration produces genuine lower-bound excesses; they are
    # reported with replay seeds and do not fail the run
    assert main(["verify", "--depth", "6", "--seed", "11", "--trials", "3",
                 "--suite", "paraproduct-bounds"]) == 0
    out = capsys.readouterr().out
    finding_lines = [ln for ln in out.splitlines() if "FINDING" in ln]
    assert finding_lines
    assert any("bloom_b2_exceeds_paraproduct_norm" in ln for ln in finding_lines)
    for ln in finding_lines:
        assert "mu_seed=" in ln and "symbol_seed=" in ln and "trial=" in ln
    assert "findings)" in out
    assert "verify: PASS" in out


def test_sweep_single_point_alpha(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--parameter", "alpha", "--range", "0:0:1",
                 "--depth", "4", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == SWEEP_COLUMNS
    assert len(rows) == 2
    row = dict(zip(SWEEP_COLUMNS, rows[1]))
    assert float(row["value"]) == 0.0
    assert float(row["a2_mu"]) == 1.0
    assert float(row["depth"]) == 4


# To re-record after a change that is meant to move floats (and say so in
# CHANGES.md): paste the file written by
#   PYTHONPATH=src python -m dyadbloom sweep --parameter alpha \
#       --range=-0.5:0.5:3 --depth 4 --seed 7 --out sweep.csv
_PINNED_SWEEP_CSV = """\
parameter,value,depth,a2_mu,a2_lambda,a2_rho,bloom_b2,bloom_b2_dual,bmo_rho,neccon,norm_paraproduct,norm_shift_mu,norm_commutator,shift_mu_norm_over_a2_mu
alpha,-0.5,4,1.3162604432489085,1.320700841615589,1.2218740315107328,0.22328326871875542,0.2126303004258333,0.24228818345246855,0.2174337906386803,0.23808379883038797,1.1532195515737211,0.4021117900792322,0.8761332588003969
alpha,0.0,4,1.0,1.320700841615589,1.073501047856543,0.309360938193971,0.3077646261617421,0.30709495778907997,0.3187341658538922,0.32909919873405935,1.0,0.5103346340540854,1.0
alpha,0.5,4,1.21259791332209,1.320700841615589,1.1897422972270533,0.48107755569772176,0.4862357938140646,0.37378439598079044,0.5111991884855894,0.5077556003478223,1.2472871551186377,0.7239949480721038,1.0286073738173533
"""


def test_sweep_rows_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    # negative start needs the --flag=value spelling so argparse does not
    # read it as an option
    argv = ["sweep", "--parameter", "alpha", "--range=-0.5:0.5:3",
            "--depth", "4", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text() == _PINNED_SWEEP_CSV


def test_sweep_rows_rejects_an_unknown_parameter():
    # the parser offers only the known parameters; sweep_rows, called
    # directly, refuses any other
    with pytest.raises(ConfigError, match="unknown sweep parameter 'beta'"):
        cli.sweep_rows(ExperimentConfig(depth=3), "beta", [0.1])


def test_sweep_bad_range(tmp_path, capsys):
    for bad in ("0:1", "0:1:0", "a:b:3"):
        code = main(["sweep", "--parameter", "alpha", "--range", bad,
                     "--depth", "4", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "range" in capsys.readouterr().err


def test_report_summarizes_and_propagates_failure(tmp_path, capsys):
    assert main(["verify", "--depth", "4", "--trials", "1",
                 "--suite", "identities", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    result = tmp_path / "suite-identities.json"
    csv_out = tmp_path / "summary.csv"
    assert main(["report", "--results", str(result), "--csv", str(csv_out)]) == 0
    out = capsys.readouterr().out
    assert "suite identities PASS" in out
    rows = list(csv.reader(csv_out.open()))
    assert rows[0] == ["file", "suite", "metric", "n", "min", "max", "mean"]
    # a failing suite file flips the exit code
    doc = json.loads(result.read_text())
    doc["passed"] = False
    doc["assertions"][0]["passed"] = False
    bad = tmp_path / "suite-bad.json"
    write_json(bad, doc)
    assert main(["report", "--results", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_report_rejects_non_suite_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    write_json(path, {"a": 1})
    assert main(["report", "--results", str(path)]) == 2
    assert "not a suite result" in capsys.readouterr().err


_GEN = ["gen", "--depth", "4"]
_ROLE_CASES = {
    "alpha-string": {"kind": "power", "alpha": "0.5"},
    "center-string": {"kind": "power", "center": "x"},
    "delta-null": {"kind": "cascade", "delta": None},
    "values-scalar": {"kind": "two-value", "values": 5},
    "values-nan-string": {"kind": "two-value", "values": [1, "nan"]},
    "max-retries-unknown-field": {"kind": "cascade", "max_retries": 8, "a2_range": [1, 16]},
    "alpha-unread-by-cascade": {"kind": "cascade", "alpha": 0.5},
}
_CONFIG_CASES = {
    "depth-4.5": {"depth": 4.5},
    "depth-true": {"depth": True},
    "trials-string": {"trials": "1"},
    "trials-1.9": {"trials": 1.9},
    "seed-2.7": {"seed": 2.7},
    "suites-empty": {"suites": []},
    "suites-repeated": {"suites": ["ppott", "ppott"]},
}
_RESULT_CASES = {
    "assertion-without-passed": {
        "suite": "identities", "passed": True,
        "assertions": [{"name": "a", "worst": 0.0, "tolerance": 0.0}],
    },
    "stats-without-min": {
        "suite": "identities", "passed": True, "measured": {"m": {"n": 2}},
    },
}


# output paths that cannot be written: under a missing directory, naming a
# directory, or (verify --out) naming a file or holding a directory where a
# suite file goes
_UNWRITABLE_CASES = (
    "gen-missing-dir", "gen-directory", "norms-missing-dir", "verify-file",
    "verify-suite-file-directory", "sweep-missing-dir", "report-csv-missing-dir",
)


@pytest.mark.parametrize("case", [
    "gen-values-inf", "gen-values-nan", "gen-center-nan", "gen-depth-25",
    "gen-cascade-alpha-values", "gen-power-delta",
    *(f"role-{k}" for k in _ROLE_CASES), *(f"config-{k}" for k in _CONFIG_CASES),
    "verify-suite-repeated",
    "sweep-range-nan",
    *(f"report-{k}" for k in _RESULT_CASES),
    *(f"unwritable-{k}" for k in _UNWRITABLE_CASES),
])
def test_malformed_input_exits_2_with_an_error_line(tmp_path, capsys, case):
    out = str(tmp_path / "out")
    if case.startswith(("role-", "config-")):
        fields = ({"mu": _ROLE_CASES[case[5:]]} if case.startswith("role-")
                  else _CONFIG_CASES[case[7:]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1, "depth": 4, **fields}))
        argv = ["verify", "--suite", "identities", "--config", str(cfg)]
    elif case.startswith("report-"):
        result = tmp_path / "suite.json"
        write_json(result, _RESULT_CASES[case[7:]])
        argv = ["report", "--results", str(result)]
    elif case.startswith("unwritable-"):
        missing = str(tmp_path / "missing" / "out")
        one = str(_save(tmp_path, "one.json", [1.0] * 4))
        sym = str(_save(tmp_path, "b.json", [0.0, 0.0, 1.0, -1.0], role="symbol"))
        result = tmp_path / "suite.json"
        write_json(result, {"suite": "identities", "passed": True})
        (tmp_path / "suites" / "suite-identities.json").mkdir(parents=True)
        argv = {
            "gen-missing-dir": [*_GEN, "--kind", "cascade", "--out", missing],
            "gen-directory": [*_GEN, "--kind", "cascade", "--out", str(tmp_path)],
            "norms-missing-dir": ["norms", "--mu", one, "--lambda", one, "--symbol", sym,
                                  "--out", missing],
            "verify-file": ["verify", "--depth", "2", "--trials", "1", "--suite", "identities",
                            "--out", one],
            "verify-suite-file-directory": ["verify", "--depth", "2", "--trials", "1",
                                            "--suite", "equivalences", "--suite", "identities",
                                            "--out", str(tmp_path / "suites")],
            "sweep-missing-dir": ["sweep", "--parameter", "alpha", "--range", "0:0:1",
                                  "--depth", "4", "--out", missing],
            "report-csv-missing-dir": ["report", "--results", str(result), "--csv", missing],
        }[case[len("unwritable-"):]]
    else:
        argv = {
            "gen-values-inf": [*_GEN, "--kind", "two-value", "--values", "1,inf"],
            "gen-values-nan": [*_GEN, "--kind", "two-value", "--values", "1,nan"],
            "gen-center-nan": [*_GEN, "--kind", "power", "--center", "nan"],
            "gen-depth-25": ["gen", "--kind", "cascade", "--depth", "25"],
            "gen-cascade-alpha-values": [*_GEN, "--kind", "cascade", "--alpha", "0.5",
                                         "--values", "1,2"],
            "gen-power-delta": [*_GEN, "--kind", "power", "--delta", "0.9"],
            "verify-suite-repeated": ["verify", "--suite", "ppott", "--suite", "ppott"],
            "sweep-range-nan": ["sweep", "--parameter", "depth", "--range", "nan:nan:1"],
        }[case] + ["--out", out]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    if case == "unwritable-verify-suite-file-directory":
        # every target is checked before any is written
        assert not [p for p in (tmp_path / "suites").iterdir() if p.is_file()]


# files no JSON reader can take: bytes that are not UTF-8 (an executable's
# header) and arrays nested past the decoder's recursion limit
_UNDECODABLE = {
    "not-utf8": b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0xdc)),
    "too-deep": b"[" * 200_000,
}


@pytest.mark.parametrize("content", sorted(_UNDECODABLE))
@pytest.mark.parametrize("command", ["verify", "sweep", "norms-mu", "norms-lambda",
                                     "norms-symbol", "report"])
def test_undecodable_json_exits_2_with_one_error_line(tmp_path, capsys, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(_UNDECODABLE[content])
    one = str(_save(tmp_path, "one.json", [1.0] * 4))
    files = {"mu": one, "lambda": one,
             "symbol": str(_save(tmp_path, "b.json", [0.0, 0.0, 1.0, -1.0], role="symbol"))}
    if command.startswith("norms-"):
        files[command[len("norms-"):]] = str(bad)
    argv = {
        "verify": ["verify", "--config", str(bad)],
        "sweep": ["sweep", "--parameter", "delta", "--range", "0.1:0.2:2", "--config", str(bad),
                  "--out", str(tmp_path / "sweep.csv")],
        "report": ["report", "--results", str(bad)],
    }.get(command, ["norms", "--mu", files["mu"], "--lambda", files["lambda"],
                    "--symbol", files["symbol"]])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {bad} ") and len(err.splitlines()) == 1


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command", ["norms", "verify"])
def test_memory_error_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, command):
    # an input too large for this machine's memory fails like a bad input;
    # the engines are patched to run out, so no deep file is written
    monkeypatch.setattr(cli, "compute_norm_report", _out_of_memory)
    monkeypatch.setattr(cli, "run_suites", _out_of_memory)
    if command == "norms":
        one = str(_save(tmp_path, "one.json", [1.0] * 4))
        b = str(_save(tmp_path, "b.json", [0.0, 0.0, 1.0, -1.0], role="symbol"))
        argv = ["norms", "--mu", one, "--lambda", one, "--symbol", b]
    else:
        argv = ["verify", "--depth", "2", "--trials", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "more memory" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_norms_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: a full norms report imports no
    # scipy module
    out = tmp_path / "report.json"
    check = "\nassert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS + check,
         json.dumps(_gen_and_norms(tmp_path, 4, out))],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["depth"] == 4


# runs each argument list of argv[1] through main in this one process and
# prints [exit code, stdout, stderr] per call; a parse error's SystemExit
# counts as its exit code
_RUN_EACH = """
import contextlib, io, json, sys
from dyadbloom.cli import main
calls = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    calls.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(calls))
"""


def test_one_process_runs_commands_as_fresh_processes_do(tmp_path):
    # main keeps one parser per process: a call after another, a parse error
    # included, exits and writes exactly as the same call in a new process
    one = str(_save(tmp_path, "one.json", [1.0] * 8))
    symbol, report, suites = (str(tmp_path / n) for n in ("b.json", "report.json", "suites"))
    commands = [
        ["gen", "--kind", "log-symbol", "--depth", "3", "--seed", "4", "--out", symbol],
        ["verify", "--depth", "three"],
        ["verify", "--depth", "3", "--trials", "2", "--suite", "stopping", "--out", suites],
        ["norms", "--mu", one, "--lambda", one, "--symbol", symbol, "--out", report],
    ]
    outputs = [Path(symbol), None, Path(suites) / "suite-stopping.json", Path(report)]

    def run(argvs):
        proc = subprocess.run([sys.executable, "-c", _RUN_EACH, json.dumps(argvs)],
                              capture_output=True, text=True, timeout=120, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    together = run(commands)
    written = [p and p.read_bytes() for p in outputs]
    assert [call[0] for call in together] == [0, 2, 0, 0]
    assert "invalid int value: 'three'" in together[1][2]
    for argv, call, path, data in zip(commands, together, outputs, written):
        assert run([argv]) == [call], argv
        assert (path and path.read_bytes()) == data, argv


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "dyadbloom.cli", "verify", "--depth", "3",
         "--trials", "1", "--suite", "identities"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "verify: PASS" in proc.stdout


def test_package_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "dyadbloom", "norms", "--help"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "--symbol" in proc.stdout
