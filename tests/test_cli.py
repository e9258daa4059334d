import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from grayscott.cli import main, read_field_dump
from grayscott.config import (
    MAX_GRID_VALUES,
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    parse_config,
)
from grayscott.errors import GrayScottError, ParseError, ValidationError

FAST_DOC = {
    "space": {"d": 1, "modes_per_axis": 8, "grid_points_per_axis": 16},
    "paths": 2,
    "T": 0.01,
    "dt": 0.001,
}

CONVERGENCE_DOC = {
    "space": {"d": 1, "modes_per_axis": 8, "grid_points_per_axis": 16},
    "model": {"c1": 0.5, "c2": 0.5, "sigma1": 0.2, "sigma2": 0.2},
    "paths": 16,
    "T": 0.1,
    "dt": 0.001,
}


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestConfigParsing:
    def test_minimal_config_fills_all_defaults(self):
        cfg = parse_config("{}")
        dump = json.loads(json.dumps(config_to_dict(cfg)))
        assert dump["space"]["modes_per_axis"] == 32
        assert dump["model"]["q"] == 2.0
        assert dump["noise"]["seed"] == 0
        assert dump["dt"] == 1e-3
        assert set(dump) >= {"space", "model", "noise", "u0", "v0", "paths", "T"}

    def test_round_trip_idempotent(self):
        text = json.dumps({"model": {"q": 1.5, "c1": 0.3}, "paths": 7})
        once = parse_config(text)
        twice = parse_config(json.dumps(config_to_dict(once)))
        assert once == twice

    def test_negative_r1_named(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"model": {"r1": -2.0}}))
        assert any("r1" in v for v in err.value.violations)

    def test_nan_tol_named(self):
        with pytest.raises(ValidationError) as err:
            RunConfig(tol=math.nan)
        assert err.value.violations == ["tol must be > 0, got nan"]

    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"model": {"zeta": 1}, "grid": 4}))
        text = " ".join(err.value.violations)
        assert "zeta" in text and "grid" in text

    def test_all_violations_listed(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"model": {"r1": -1.0, "q": 0.2},
                                     "paths": 0, "dt": -1.0}))
        assert len(err.value.violations) >= 3

    def test_parse_error_has_line_context(self):
        with pytest.raises(ParseError) as err:
            parse_config("{\n  'bad': }")
        assert "line 2" in str(err.value)

    def test_overrides(self):
        doc = apply_overrides({}, ["model.q=1.5", "paths=3", "space.boundary=periodic"])
        cfg = config_from_dict(doc)
        assert cfg.model.q == 1.5
        assert cfg.paths == 3
        assert cfg.space.boundary == "periodic"

    def test_scalar_kappa_schedule_rejected(self, tmp_path, capsys):
        for schedule in (3, "123"):  # a string is not split into characters
            with pytest.raises(ValidationError, match="kappa_schedule must be a list"):
                config_from_dict({"kappa_schedule": schedule})
            cfg_path = write_config(tmp_path, {**FAST_DOC, "kappa_schedule": schedule})
            assert main(["glue", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert "kappa_schedule" in err and "Traceback" not in err

    @pytest.mark.parametrize("override, needle", [
        ("paths=2.5", "paths must be an integer"),
        ("paths=true", "paths must be an integer"),
        ("noise.mode_cutoff=3.5", "mode_cutoff must be an integer"),
        ("space.d=1.0", "d must be an integer"),
        ("model.q=NaN", "q must be finite"),
        ("noise.seed=-1", "seed must be >= 0"),
        ("noise.seed=18446744073709551616", "seed must be < 2**64"),
        ("T=1e308", "T/dt must be finite"),
        ("T=1e300", "T/dt must be < 2**63 steps, got T=1e+300, dt=0.001"),
        ("T=1e9", "T=1e+09, dt=0.001 and paths=2 plan norm series"),
        pytest.param("kappa=" + "9" * 400, "kappa must be finite",
                     id="kappa=400 nines-kappa must be finite"),
        ('field_dumps="false"', "field_dumps must be true or false"),
        ("field_dumps=1", "field_dumps must be true or false"),
        ("model.power_mode=abs", "unknown keys in model: power_mode"),
        ("model.linear_fallback=full", "unknown keys in model: linear_fallback"),
        ("space.zero_mode=reject", "unknown keys in space: zero_mode"),
        ("model.scheme=semi_implicit", "unknown keys in model: scheme"),
    ])
    def test_mistyped_numbers_exit_two(self, tmp_path, capsys, override, needle):
        cfg_path = write_config(tmp_path, FAST_DOC)
        assert main(["simulate", "--config", cfg_path, "--override", override,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides", [
        ["model.q=1e6"],  # M = 16000032 points per axis: a 3.81 GiB axis matrix
        ["space.modes_per_axis=20000", "space.grid_points_per_axis=20000"],
        ["space.grid_points_per_axis=20000000"],
        ["space.d=2", "model.q=1e3"],
    ])
    def test_unplannable_grid_exit_two(self, tmp_path, capsys, overrides):
        args = ["simulate", "--paths", "2", "--override", "T=0.002", "--out", str(tmp_path / "o")]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 2
        err = capsys.readouterr().err
        for needle in ("model.q=", "space.modes_per_axis=", "space.grid_points_per_axis=",
                       "paths=2", "each must be at most 2**26"):
            assert needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, needle", [
        ({"T": 0.5, "dt": 0.3}, "not a whole multiple"),
        ({"T": 0.001, "dt": 0.003}, "not a whole multiple"),
        ({"T": math.nan}, "finite"),
        ({"T": math.inf}, "finite"),
        ({"dt": math.nan}, "finite"),
        ({"dt": math.inf}, "finite"),
        ({"kappa": math.nan}, "kappa must be finite"),
        ({"kappa": math.inf}, "kappa must be finite"),
        ({"kappa_schedule": [1.0, math.inf]}, "entries must be finite"),
        ({"kappa_schedule": [0.0, 1.0]}, "entries must be finite and > 0"),
        ({"kappa_schedule": [-2.0, -1.0]}, "entries must be finite and > 0"),
    ])
    def test_non_finite_and_rounded_horizons_rejected(self, doc, needle):
        with pytest.raises(ValidationError, match=needle):
            config_from_dict(doc)

    def test_whole_multiple_within_tolerance_accepted(self):
        cfg = config_from_dict({"T": 0.35, "dt": 0.001})  # 349.99999999999994 steps
        assert cfg.T == 0.35

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert blocks
        for block in blocks:
            parse_config(block)

    def test_bump_mode_out_of_range(self):
        cfg = parse_config(json.dumps(
            {"space": {"modes_per_axis": 8, "grid_points_per_axis": 16},
             "u0": {"kind": "bump", "mode": 50}}))
        with pytest.raises(ValidationError, match="out of range"):
            cfg.u0.build(cfg.space)


DEFAULT_DUMP = config_to_dict(RunConfig())
# (section or None, key) of every leaf of the normalized dump
LEAVES = [(name, key) for name, value in DEFAULT_DUMP.items() if isinstance(value, dict)
          for key in value] + [(None, name) for name, value in DEFAULT_DUMP.items()
                               if not isinstance(value, dict)]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# integers past the float range too: JSON has no bound on them
INTEGERS = st.integers() | st.integers(-2**1100, 2**1100)
NUMBERS = FINITE | INTEGERS
JSON_LEAF = st.none() | st.booleans() | INTEGERS | st.floats() | st.text(max_size=6)
JSON_VALUE = st.recursive(
    JSON_LEAF, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)


# dotted keys of the float leaves, the schedule included
FLOAT_KEYS = [key if section is None else f"{section}.{key}" for section, key in LEAVES
              if type((DEFAULT_DUMP if section is None else DEFAULT_DUMP[section])[key])
              is float] + ["kappa_schedule"]


def leaf_values(default):
    """Values of the JSON type of a default leaf, past its valid range too."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2, 2**65)
    if isinstance(default, float):
        return NUMBERS
    if isinstance(default, str):
        return st.sampled_from(["neumann", "periodic", "ito", "stratonovich", "constant",
                                "bump"]) | st.text(max_size=4)
    if isinstance(default, (list, tuple)):
        return st.lists(NUMBERS, max_size=4)
    return st.none() | st.integers(-1, 2**20)  # mode_cutoff


def any_document():
    """JSON documents: the known sections and keys with any JSON values,
    mixed with unknown keys and with non-object documents."""
    optional = {
        name: (st.dictionaries(st.sampled_from(sorted(value)) | st.text(max_size=4),
                               JSON_VALUE, max_size=4) | JSON_VALUE)
        if isinstance(value, dict) else JSON_VALUE
        for name, value in DEFAULT_DUMP.items()
    }
    known = st.fixed_dictionaries({}, optional=optional)
    extra = st.dictionaries(st.text(max_size=6), JSON_VALUE, max_size=2)
    return st.builds(lambda a, b: {**b, **a}, known, extra) | JSON_VALUE


class TestConfigProperties:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(data=st.data(), leaves=st.lists(st.sampled_from(LEAVES), max_size=3, unique=True))
    def test_valid_config_round_trips(self, data, leaves):
        doc = json.loads(json.dumps(DEFAULT_DUMP))
        for section, key in leaves:
            target = doc if section is None else doc[section]
            target[key] = data.draw(leaf_values(target[key]), label=f"{section}.{key}")
        try:
            cfg = config_from_dict(doc)
        except ValidationError:
            reject()
        assert parse_config(json.dumps(config_to_dict(cfg))) == cfg

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(doc=any_document())
    def test_any_document_parses_or_is_rejected(self, doc):
        try:
            parse_config(json.dumps(doc))
        except GrayScottError:
            pass

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(q=st.floats(1.0, 2.0**12), n=st.integers(2, 2**12), extra=st.integers(1, 2**13),
           d=st.sampled_from([1, 2]), paths=st.integers(1, 2**16))
    def test_accepted_config_plans_within_the_cap(self, q, n, extra, d, paths):
        # the sizes are arithmetic: nothing is allocated to check them
        doc = {"model": {"q": q}, "paths": paths, "space": {
            "d": d, "modes_per_axis": n, "grid_points_per_axis": n + extra}}
        try:
            cfg = config_from_dict(doc)
        except ValidationError as err:
            assert any("each must be at most 2**26" in v for v in err.violations)
            return
        m = cfg.space.dealias_points(q)
        assert 2 * paths * m**d <= MAX_GRID_VALUES
        assert max(m, n + extra) * n <= MAX_GRID_VALUES

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(key=st.sampled_from(FLOAT_KEYS), x=INTEGERS)
    def test_integer_override_of_a_float_key_never_rounds(self, key, x):
        # check-params loads and checks the whole config but steps nothing
        value = f"[{x}]" if key == "kappa_schedule" else str(x)
        err = io.StringIO()
        with (tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = main(["check-params", "--override", f"{key}={value}", "--out", out])
        if code == 0:
            assert float(x) == x
        else:
            assert code == 2 and "Traceback" not in err.getvalue()


def _power_neighbours():
    """10**k for k in [-5, 16], the range edges 1e-4 and 1e15 among them,
    and up to four nextafter steps either side."""
    def walk(k, steps):
        x = float(f"1e{k}")
        for _ in range(abs(steps)):
            x = float(np.nextafter(x, math.copysign(math.inf, steps)))
        return x
    return st.builds(walk, st.integers(-5, 16), st.integers(-4, 4))


def _half_way():
    """Values whose 17-digit decimal lies exactly half way between two:
    x = a / 2**(k+1) with a odd, so x * 10**k = a * 5**k / 2 in [1e16, 1e17)."""
    def odd(k):
        lo = -(-2 * 10**16 // 5**k)
        hi = min(2 * 10**17 // 5**k, 2**53 - 1)
        return st.integers(lo // 2, (hi - 1) // 2).map(lambda m: (2 * m + 1) / 2 ** (k + 1))
    return st.integers(1, 22).flatmap(odd)


class TestExactCsvKernel:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(values=st.lists(st.floats() | st.floats(1e-4, 1e15) | _power_neighbours()
                           | _half_way(), min_size=1, max_size=40),
           columns=st.integers(1, 3))
    def test_bytes_match_percent_format(self, values, columns):
        from grayscott.cli import _csv_bytes

        rows = -(-len(values) // columns)
        values = values + [1.0] * (rows * columns - len(values))
        table = np.array(values).reshape(1, rows, columns)
        expected = "".join(",".join("%.17g" % v for v in row) + "\n"
                           for row in table[0].tolist())
        assert bytes(_csv_bytes(table)[0]) == expected.encode()


class TestCliRuns:
    def test_simulate_row_count_and_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path, {**FAST_DOC, "paths": 1, "T": 0.01})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        series = (out / "path_00000.csv").read_text().splitlines()
        assert series[0] == "t,u_L2,u_Lpstar,v_Halpha,v_Halpha_aleph2,h,phi"
        assert len(series) == 1 + 11  # header + 10 steps + t=0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["partial"] is False
        assert manifest["config"]["dt"] == 0.001
        assert manifest["seed"] == 0

    def test_determinism_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg_path, "--seed", "5",
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg_path, "--seed", "5",
                     "--out", str(out2)]) == 0
        for name in ("path_00000.csv", "path_00001.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_norm_series_bytes_match_per_cell_format(self, tmp_path):
        # the exact kernel, a chunk of paths at a time and split into the
        # path files, against write_csv's per-cell '.17g', file by file: on
        # values whose text is easy to get wrong, and on batches whose paths
        # cross chunk boundaries (or one path, a chunk) with values that
        # take the per-value fallback
        from grayscott.cli import (
            _CHUNK_VALUES,
            NORM_FILE_COLUMNS,
            write_csv,
            write_norm_series,
        )
        from grayscott.integrate import BatchRecord, ModelParams
        from grayscott.spectral import SpaceConfig

        rng = np.random.default_rng(3)
        tricky = [0.1, -0.0, 5e-324, 1e-300, 1.7976931348623157e308, 2.0 / 3.0,
                  math.nan, math.inf, -math.inf, 1e16, 123456789.0, -1.5e-7]
        fallback = [0.0, -0.0, -2.5, 1e-7, 3e15, math.nan, math.inf]
        pool = np.concatenate([10.0 ** rng.uniform(-6, 16, 500), fallback])
        batches = {
            "tricky": {col: np.stack([rng.permutation(tricky) for _ in range(2)])
                       for _, col in NORM_FILE_COLUMNS[1:]},
            "paths across chunks": {col: rng.choice(pool, (5, 1000))
                                    for _, col in NORM_FILE_COLUMNS[1:]},
            "a path over a chunk": {col: rng.choice(pool, (2, 2500))
                                    for _, col in NORM_FILE_COLUMNS[1:]},
        }
        width = len(NORM_FILE_COLUMNS)  # a chunk holds two of the 1000-step paths
        assert 2 * 1000 * width <= _CHUNK_VALUES < min(3 * 1000, 2500) * width
        for case, series in batches.items():
            paths = series["h"].shape[0]
            rec = BatchRecord(np.arange(paths), 1e-3, series, np.full(paths, -1), (), None,
                              None, None, None, ModelParams(), SpaceConfig())
            write_norm_series([tmp_path / f"kernel_{i}.csv" for i in range(paths)], rec)
            for i in range(paths):
                write_csv(tmp_path / "per_cell.csv", [name for name, _ in NORM_FILE_COLUMNS],
                          zip(rec.times, *(series[col][i] for _, col in NORM_FILE_COLUMNS[1:])))
                assert ((tmp_path / f"kernel_{i}.csv").read_bytes()
                        == (tmp_path / "per_cell.csv").read_bytes()), f"{case}, path row {i}"

    def test_seed_changes_output(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg_path, "--seed", "5", "--out", str(out1)])
        main(["simulate", "--config", cfg_path, "--seed", "6", "--out", str(out2)])
        assert (out1 / "path_00000.csv").read_bytes() != (out2 / "path_00000.csv").read_bytes()

    def test_field_dumps_round_trip(self, tmp_path):
        doc = {**FAST_DOC, "paths": 1, "field_dumps": True}
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg_path, "--out", str(out)])
        dumps = sorted(out.glob("field_u_*.bin"))
        assert dumps
        meta, data = read_field_dump(str(dumps[0]))
        assert meta["d"] == "1" and meta["bc"] == "neumann" and meta["N"] == "8"
        assert data.shape == (8,)
        assert (dumps[0].stat().st_size - 64) == 8 * 8

    def test_check_params_special_case_exit_zero(self, tmp_path, capsys):
        doc = {
            "space": {"d": 2, "modes_per_axis": 6, "grid_points_per_axis": 12},
            "model": {"q": 2.0, "aleph": 2.0, "rho": 0.0, "alpha": 0.0},
            "noise": {"gamma1": 1.25, "gamma2": 1.2},
        }
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["check-params", "--config", cfg_path, "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "special case" in captured
        assert "overall: admissible" in captured

    def test_check_params_sweep_csv(self, tmp_path):
        cfg_path = write_config(tmp_path, {})
        out = tmp_path / "out"
        assert main(["check-params", "--config", cfg_path, "--out", str(out),
                     "--sweep", "gamma1", "0.3", "1.5", "5"]) == 0
        rows = (out / "gate_sweep_0_gamma1.csv").read_text().splitlines()
        assert rows[0] == "gamma1,admissible,n_failed,worst_margin"
        assert len(rows) == 6

    @pytest.mark.parametrize("sweep, needle", [
        (["bogus", "1", "2", "3"], "NAME must be one of"),
        (["q", "abc", "2", "3"], "LO must be a finite number"),
        (["q", "1", "inf", "3"], "HI must be a finite number"),
        (["q", "1", "2", "abc"], "N must be an integer >= 1"),
        (["q", "1", "2", "-1"], "N must be an integer >= 1"),
        (["q", "1", "2", "0"], "N must be an integer >= 1"),
        (["d", "1", "2", "3"], "d takes only the values 1 and 2"),
        (["q", "0", "2", "3"], "q must be >= 1"),
        (["aleph", "0.5", "2", "4"], "aleph must lie in (1, 2]"),
        (["p_star0", "1", "3", "3"], "p_star must be >= 2"),
        (["gamma1", "-1", "1", "3"], "gamma1 must be > 0"),
        (["rho", "0.1", "0.5", "5"], "alpha must be >= rho"),
        (["q", "1", "2", "100000000000"], "N must be at most 100000"),
        (["q", "1", "2", "1" * 5000], "N must be at most 100000"),
    ])
    def test_check_params_bad_sweep_exit_two(self, tmp_path, capsys, recwarn, sweep, needle):
        cfg_path = write_config(tmp_path, {})
        out = tmp_path / "out"
        assert main(["check-params", "--config", cfg_path, "--out", str(out),
                     "--sweep", *sweep]) == 2
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err
        assert not list(out.glob("gate_sweep_*.csv"))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_check_params_sweep_d_integer_rows(self, tmp_path):
        out = tmp_path / "out"
        assert main(["check-params", "--config", write_config(tmp_path, {}),
                     "--out", str(out), "--sweep", "d", "1", "2", "2"]) == 0
        rows = (out / "gate_sweep_0_d.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["d", "1", "2"]

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"model": {"r1": -1.0}})
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "r1" in capsys.readouterr().err

    @pytest.mark.parametrize("config, raw", [("missing.json", None), (".", None),
                                             ("latin1.json", b'{"paths": "\xe9"}')])
    def test_unreadable_config_exit_two(self, tmp_path, capsys, config, raw):
        cfg_path = str(tmp_path / config)
        if raw is not None:
            (tmp_path / config).write_bytes(raw)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read {cfg_path}: ")
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_exit_two(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep")
        cfg_path = write_config(tmp_path, FAST_DOC)
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot create directory {out}" in err and "Traceback" not in err
        assert out.read_text() == "keep"

    def test_glue_writes_events(self, tmp_path):
        doc = {
            "space": {"d": 1, "modes_per_axis": 8, "grid_points_per_axis": 16},
            "model": {"a2": 0.4, "b2": 1.2, "sigma2": 0.15, "c1": 0.2, "c2": 0.2},
            "paths": 1,
            "T": 1.0,
            "dt": 0.002,
            "kappa_schedule": [1.8, 2.6],
        }
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["glue", "--config", cfg_path, "--out", str(out)]) == 0
        events = (out / "glue_events.csv").read_text().splitlines()
        assert events[0] == "path,kappa,stop_time"
        assert len(events) >= 2

    def test_glue_field_dumps(self, tmp_path):
        doc = {**FAST_DOC, "paths": 1, "field_dumps": True, "kappa_schedule": [10.0]}
        out = tmp_path / "out"
        assert main(["glue", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        names = {p.name for p in out.glob("field_*.bin")}
        assert names == {f"field_{f}_00000_t{t}.bin" for f in "uv" for t in ("0", "0.01")}
        for name in names:
            meta, data = read_field_dump(str(out / name))
            assert meta["field"] == name[6] and data.shape == (8,)

    def test_estimate_writes_reports(self, tmp_path):
        cfg_path = write_config(tmp_path, {**FAST_DOC, "paths": 4})
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg_path, "--out", str(out)]) == 0
        rows = (out / "reports.csv").read_text().splitlines()
        assert rows[0] == "quantity,n_paths,estimate,ci_halfwidth"
        assert len(rows) == 7  # six reported quantities
        assert (out / "reports.txt").exists()

    def test_fixed_point_no_convergence_exit_one(self, tmp_path):
        doc = {**FAST_DOC, "paths": 1, "tol": 1e-16, "max_iter": 2}
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["fixed-point", "--config", cfg_path, "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is True
        assert manifest["status"].startswith("error")

    def test_fixed_point_success(self, tmp_path):
        doc = {**FAST_DOC, "paths": 1, "model": {"c1": 0.01, "c2": 0.01}}
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["fixed-point", "--config", cfg_path, "--out", str(out)]) == 0
        assert (out / "residuals.csv").exists()
        margins = (out / "kset_margins.csv").read_text().splitlines()
        assert margins[0] == "path,in_set,margin_K1,margin_K2,margin_K3"

    def test_convergence_subcommand(self, tmp_path):
        cfg_path = write_config(tmp_path, CONVERGENCE_DOC)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg_path, "--out", str(out)]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0] == "study,dt,error"
        assert sum(r.startswith("deterministic") for r in rows) == 4
        assert sum(r.startswith("strong") for r in rows) == 4

    def test_convergence_errors_golden(self, tmp_path):
        # both studies' errors, pinned so that refactors of the refinement
        # loop keep the numbers
        golden = {
            "deterministic": [2.6690560400245723e-05, 1.3247685794197579e-05,
                              6.520545093375384e-06, 3.1555482980273212e-06],
            "strong": [0.0012027944271539596, 0.0006676237961172975,
                       0.0003383202622781543, 0.00016271680875715175],
        }
        cfg_path = write_config(tmp_path, CONVERGENCE_DOC)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg_path, "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "convergence.csv").read_text().splitlines()[1:]]
        for study, errors in golden.items():
            got = [float(err) for name, _dt, err in rows if name == study]
            assert got == pytest.approx(errors, rel=1e-10), study

    @pytest.mark.parametrize("subcommand, doc, last_row", [
        # default config; then Stratonovich; a glue schedule
        # that ends in the heat fallback; the fractional semigroup in d=2
        ("simulate", {"paths": 1},
         [0.44862647837026676, 0.44863714373166097, 1.1972420553661913,
          1.1987242148883994, 1.9903742081021925, 1.0]),
        ("simulate", {"paths": 1, "noise": {"interpretation": "stratonovich"}},
         [0.44846854513393924, 0.44847917889907346, 1.198653504477813,
          1.2001302307796695, 1.9922697329826438, 1.0]),
        ("glue", {"paths": 1, "kappa_schedule": [1.05, 1.1]},
         [0.9833572325392332, 0.9833631189767053, 1.0074176384899325,
          1.0082192603852147, 1.7138643375972613, 0.0]),
        ("simulate", {"paths": 1, "T": 0.1, "model": {"aleph": 1.5},
                      "space": {"d": 2, "boundary": "periodic", "modes_per_axis": 8,
                                "grid_points_per_axis": 16}},
         [0.8648766367442579, 0.864889140722937, 1.05741795115347,
          1.0652924527806398, 1.3855305816973322, 1.0]),
    ])
    def test_norm_series_golden(self, tmp_path, subcommand, doc, last_row):
        # the norms at t=T, pinned so that refactors of the step, the
        # semigroups and the glue keep the numbers
        out = tmp_path / "out"
        assert main([subcommand, "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        row = (out / "path_00000.csv").read_text().splitlines()[-1].split(",")
        assert float(row[0]) == pytest.approx(doc.get("T", 0.5), rel=1e-12)
        assert [float(x) for x in row[1:]] == pytest.approx(last_row, rel=1e-10)

    def test_fixed_point_residuals_golden(self, tmp_path):
        # the first Picard residuals at the default config; later ones sit
        # near round-off and are not pinned
        golden = [0.64687206638807215, 0.10966993433134531, 0.0022802936384299548,
                  4.5781540846420419e-05]
        out = tmp_path / "out"
        assert main(["fixed-point", "--config", write_config(tmp_path, {"paths": 1}),
                     "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "residuals.csv").read_text().splitlines()[1:]]
        got = [float(res) for _path, _it, res in rows[:len(golden)]]
        assert got == pytest.approx(golden, rel=1e-10)

    def test_manifest_lists_every_numeric_knob(self, tmp_path):
        import dataclasses

        from grayscott.config import RunConfig
        from grayscott.integrate import ModelParams
        from grayscott.noise import NoiseConfig
        from grayscott.spectral import SpaceConfig

        cfg_path = write_config(tmp_path, {**FAST_DOC, "paths": 1})
        out = tmp_path / "out"
        main(["simulate", "--config", cfg_path, "--out", str(out)])
        conf = json.loads((out / "manifest.json").read_text())["config"]
        for field in dataclasses.fields(RunConfig):
            assert field.name in conf
        for section, cls in (("space", SpaceConfig), ("model", ModelParams),
                             ("noise", NoiseConfig)):
            for field in dataclasses.fields(cls):
                assert field.name in conf[section], (section, field.name)

    def test_out_env_var_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAYSCOTT_OUT", str(tmp_path / "envout"))
        cfg_path = write_config(tmp_path, {**FAST_DOC, "paths": 1})
        assert main(["simulate", "--config", cfg_path]) == 0
        assert (tmp_path / "envout" / "manifest.json").exists()
