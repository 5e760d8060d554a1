"""Driver tests: configs, caching, artifacts, exit codes.

Commands run in-process through cli.main() with --out pointed at the
test's tmp_path, so the default cache location lands there too and the
tests stay isolated from each other.
"""

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import morsevanish.cli as cli_module
from morsevanish import flow
from morsevanish.cli import (ArtifactCache, _canon, _is_window, _parse_grid,
                             _point_from_record, _point_record, cache_root,
                             canonical_dumps, config_digest, dump_json,
                             load_config, main, problem_from_config)
from morsevanish.critical import find_critical_points
from morsevanish.errors import ConfigError, ConfigParse, CorruptCache
from morsevanish.homology import assemble_complex, window_complex


@pytest.fixture(autouse=True)
def _no_env_cache(monkeypatch):
    monkeypatch.delenv("MORSEVANISH_CACHE", raising=False)


DW = {"name": "double_well", "dimension": 1, "domain": "real_line",
      "f": "x^4 - x^2", "tau": "pow(1 + x^2, -1/2)", "eps": 0.05}
Z3 = {"name": "z3", "dimension": 1, "eps": 0.1,
      "polynomial": {"terms": [{"monomial": [3], "re": 1, "im": 0}]}}
# a maximum at the origin between two saddles: the top-degree count
SADDLE2 = {"name": "saddle2", "dimension": 2, "eps": 0.05,
           "f": "x^4 - x^2 - y^2", "tau": "pow(1 + x^2 + y^2, -1/2)"}
# an index-2 point at the origin of R^3, which is not counted
SQUARE3 = {"name": "square3", "dimension": 3, "eps": 0.05,
           "f": "x^4 - x^2 + y^4 - y^2 + z^2",
           "tau": "pow(1 + x^2 + y^2 + z^2, -1)"}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run_dir(tmp_path, cfg):
    return tmp_path / "runs" / config_digest(cfg)


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path / "runs")])


def read_artifact(tmp_path, cfg, stage):
    return json.loads((run_dir(tmp_path, cfg) / f"{stage}.json").read_text())


class TestConfigLoading:
    def test_malformed_json_carries_line_and_column(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{ "dimension": 1,\n  "f": "x^2"\n  "tau": "1"\n}')
        with pytest.raises(ConfigParse) as err:
            load_config(str(p))
        assert err.value.line == 3
        assert err.value.col == 3

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope}")
        assert run(tmp_path, "crit", "--config", str(p)) == 1
        assert "line 1" in capsys.readouterr().err

    def test_root_must_be_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="root"):
            load_config(str(p))

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_cfg(tmp_path, {**DW, "Window": {}})
        with pytest.raises(ConfigError, match="Window"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/nowhere.json")

    def test_missing_tau(self, tmp_path):
        cfg = dict(DW)
        del cfg["tau"]
        with pytest.raises(ConfigError, match="tau"):
            problem_from_config(cfg, "t")


class TestProblemBuilding:
    def test_defaults(self):
        spec, alg = problem_from_config(dict(DW), "fallback")
        assert alg is None
        assert spec.name == "double_well"
        assert spec.variables == ("x",)
        assert spec.window.a == -1.0 and spec.window.b == 1.0
        assert spec.window.Lam == 10.0 and spec.window.sigma == 0.25

    def test_fallback_name(self):
        cfg = dict(DW)
        del cfg["name"]
        spec, _ = problem_from_config(cfg, "from_filename")
        assert spec.name == "from_filename"

    def test_ray_domain(self):
        cfg = {"dimension": 1, "variables": ["y"], "f": "y", "tau": "y",
               "domain": [{"min": 0, "max": "inf"}]}
        spec, _ = problem_from_config(cfg, "ray")
        lo, hi = spec.domain.box[0]
        assert lo == pytest.approx(1e-3)
        assert hi == pytest.approx(3.0)

    def test_box_halfwidth_sizes_the_real_line_box(self):
        cfg = {"dimension": 1, "f": "x^2", "tau": "1/(1+x^2)",
               "box_halfwidth": 7}
        spec, _ = problem_from_config(cfg, "t")
        assert spec.domain.box == ((-7.0, 7.0),)

    def test_box_halfwidth_rejected_on_interval_domains(self, tmp_path):
        cfg = {"dimension": 1, "variables": ["y"], "f": "y", "tau": "y",
               "eps": 0.1, "domain": [{"min": 0, "max": "inf"}],
               "box_halfwidth": 7}
        with pytest.raises(ConfigError, match="box_halfwidth"):
            problem_from_config(cfg, "t")
        assert run(tmp_path, "crit", "--config",
                   write_cfg(tmp_path, cfg)) == 1

    def test_domain_length_checked(self):
        cfg = {**DW, "domain": [{"min": 0, "max": 1}, {"min": 0, "max": 1}]}
        with pytest.raises(ConfigError, match="1"):
            problem_from_config(cfg, "t")

    def test_custom_metric(self):
        cfg = {**DW, "metric": {"kind": "custom", "matrix": [["1 + x^2"]]}}
        spec, _ = problem_from_config(cfg, "t")
        assert spec.metric.kind == "custom"
        assert spec.metric.custom is not None

    def test_explicit_window(self):
        cfg = {**DW, "window": {"a": -2, "b": 2, "lambda": 2,
                                "Lambda": 20, "sigma": 0.5}}
        spec, _ = problem_from_config(cfg, "t")
        assert spec.window.a == -2.0 and spec.window.Lam == 20.0

    def test_polynomial_realifies(self):
        spec, alg = problem_from_config(dict(Z3), "t")
        assert alg is not None
        assert alg.n == 1
        assert len(spec.variables) == 2

    def test_polynomial_conflicts_with_f(self):
        with pytest.raises(ConfigError, match="not both"):
            problem_from_config({**Z3, "f": "x"}, "t")

    def test_polynomial_rejects_variables(self):
        with pytest.raises(ConfigError, match="variables"):
            problem_from_config({**Z3, "variables": ["u", "v"]}, "t")

    @pytest.mark.parametrize("key, value", [
        ("domain", [{"min": 0, "max": 1}]), ("metric", "euclidean")])
    def test_polynomial_rejects_domain_and_metric(self, key, value):
        # a realified polynomial always gets full space and the Kahler
        # cone metric, so these keys could only be ignored
        with pytest.raises(ConfigError, match=key):
            problem_from_config({**Z3, key: value}, "t")

    @pytest.mark.parametrize("stage, cfg, extra", [
        ("crit", {**DW, "dimension": "two"}, ()),
        # no variables to check against, so only the dimension can refuse
        ("crit", {**DW, "dimension": 0, "f": "1", "tau": "1"}, ()),
        ("crit", {**Z3, "polynomial": {"terms": 5}}, ()),
        ("crit", {**Z3, "polynomial": {"terms": [5]}}, ()),
        ("crit", {**Z3, "polynomial": {"terms": [{"monomial": 3}]}}, ()),
        ("crit", {**Z3, "polynomial": {"terms": [{"monomial": ["a"]}]}}, ()),
        ("crit", {**Z3, "polynomial": {**Z3["polynomial"], "theta": "abc"}},
         ()),
        ("crit", {**Z3, "polynomial": {**Z3["polynomial"], "alpha": "x"}},
         ()),
        ("crit", {**Z3, "box_halfwidth": "wide"}, ()),
        ("crit", {**DW, "variables": 5}, ()),
        ("crit", {**DW, "metric": {"kind": "custom", "matrix": 5}}, ()),
        ("sweep-eps", DW, ("--grid", "x^1..x^3")),
        ("sweep-eps", DW, ("--grid", "2^a..2^3")),
        ("sweep-eps", {**DW, "grid": [0.4, 0.2]}, ()),
    ], ids=["dimension-word", "dimension-zero", "terms-not-list", "term-not-object", "monomial-not-list",
            "monomial-word", "theta-word", "alpha-word",
            "box-halfwidth-word", "variables-not-list", "matrix-not-list",
            "grid-base-word", "grid-exponent-word",
            "grid-not-string"])
    def test_malformed_value_exits_one(self, tmp_path, capsys, stage, cfg,
                                       extra):
        path = write_cfg(tmp_path, cfg)
        assert run(tmp_path, stage, "--config", path, *extra) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_rational(self):
        cfg = {"dimension": 1, "eps": 0.1,
               "polynomial": {"terms": [{"monomial": [2], "re": "x"}]}}
        with pytest.raises(ConfigError, match="rational"):
            problem_from_config(cfg, "t")


class TestGridParsing:
    def test_power_range(self):
        assert _parse_grid("2^-3..2^-6") == (2 ** -3, 2 ** -4,
                                             2 ** -5, 2 ** -6)

    def test_power_range_ascending(self):
        assert _parse_grid("2^-6..2^-4") == (2 ** -6, 2 ** -5, 2 ** -4)

    def test_comma_list(self):
        assert _parse_grid("0.4, 0.2, 0.1") == (0.4, 0.2, 0.1)

    def test_base_mismatch(self):
        with pytest.raises(ConfigError, match="base"):
            _parse_grid("2^-3..3^-6")

    def test_garbage(self):
        with pytest.raises(ConfigError):
            _parse_grid("teapot")

    def test_missing(self):
        with pytest.raises(ConfigError, match="grid"):
            _parse_grid(None)


class TestCanonicalJson:
    def test_non_finite_floats_become_strings(self):
        out = _canon({"a": float("inf"), "b": float("-inf"),
                      "c": float("nan")})
        assert out == {"a": "inf", "b": "-inf", "c": "nan"}
        assert float(out["a"]) == math.inf
        assert float(out["b"]) == -math.inf
        assert math.isnan(float(out["c"]))

    def test_numpy_types(self):
        out = _canon({"f": np.float64(0.5), "i": np.int32(7),
                      "b": np.bool_(True), "arr": np.arange(3.0)})
        assert out == {"f": 0.5, "i": 7, "b": True, "arr": [0.0, 1.0, 2.0]}
        json.dumps(out)

    def test_bool_stays_bool(self):
        assert _canon(True) is True
        assert _canon(False) is False

    def test_dumps_sorted(self):
        assert canonical_dumps({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'


class TestCache:
    def test_roundtrip(self, tmp_path):
        c = ArtifactCache(tmp_path / "c")
        key = c.key("abc", "crit", {"eps": 0.1})
        c.store(key, {"points": [1, 2]})
        assert c.load(key) == {"points": [1, 2]}

    def test_miss_is_none(self, tmp_path):
        c = ArtifactCache(tmp_path / "c")
        assert c.load(c.key("abc", "crit", {})) is None

    def test_digest_mismatch_raises(self, tmp_path):
        c = ArtifactCache(tmp_path / "c")
        key = c.key("abc", "crit", {})
        c.store(key, {"v": 1})
        p = c._path(key)
        p.write_text(p.read_text().replace('"v": 1', '"v": 2'))
        with pytest.raises(CorruptCache):
            c.load(key)

    def test_fetch_recomputes_after_corruption(self, tmp_path, capsys):
        c = ArtifactCache(tmp_path / "c")
        key = c.key("abc", "crit", {})
        c.store(key, {"v": 1})
        c._path(key).write_text("not json at all")
        payload, hit = c.fetch(key, lambda: {"v": 3})
        assert payload == {"v": 3} and hit is False
        assert "recomputing" in capsys.readouterr().err
        assert c.load(key) == {"v": 3}

    def test_params_change_key(self, tmp_path):
        c = ArtifactCache(tmp_path / "c")
        assert c.key("h", "crit", {"eps": 0.1}) != \
            c.key("h", "crit", {"eps": 0.2})
        assert c.key("h", "crit", {"eps": 0.1}) != \
            c.key("h", "flow", {"eps": 0.1})

    def test_version_and_schema_change_key(self, monkeypatch):
        from morsevanish import cli
        c = ArtifactCache("unused")
        base = c.key("h", "crit", {"eps": 0.1})
        monkeypatch.setattr(cli, "__version__", "0.0.0-other")
        bumped_version = c.key("h", "crit", {"eps": 0.1})
        monkeypatch.undo()
        monkeypatch.setattr(cli, "SCHEMA", cli.SCHEMA + 1)
        bumped_schema = c.key("h", "crit", {"eps": 0.1})
        assert len({base, bumped_version, bumped_schema}) == 3

    def test_count_knobs_are_the_counting_keywords(self, tmp_path,
                                                   monkeypatch):
        # the flow cache key carries every counting knob at the value the
        # count runs with: a knob the counting layer no longer takes, or
        # a default changed in one place only, must not linger there
        keys = []
        key = ArtifactCache.key

        def spy(self, config_hash, stage, params):
            keys.append((stage, params))
            return key(self, config_hash, stage, params)

        monkeypatch.setattr(ArtifactCache, "key", spy)
        assert run(tmp_path, "flow", "--config", write_cfg(tmp_path, DW)) == 0
        (params,) = [p for stage, p in keys if stage == "flow"]
        knobs = {p.name: p.default for p in inspect.signature(
            flow.count_boundaries).parameters.values()
            if p.kind is p.KEYWORD_ONLY}
        assert knobs == {"r_launch": flow.R_LAUNCH,
                         "budget": flow.BOUNDARY_BUDGET}
        assert params == {"eps": DW["eps"], "seed": 0, **knobs}

    def test_pyproject_version_is_the_package_version(self):
        # the cache key carries __version__, so a release bump in one place
        # only would keep serving payloads written by the previous solver
        from morsevanish import __version__
        text = (Path(__file__).resolve().parent.parent
                / "pyproject.toml").read_text()
        declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.M)
        assert declared and declared.group(1) == __version__

    def test_interrupted_store_keeps_the_old_entry(self, tmp_path,
                                                   monkeypatch):
        from morsevanish import cli
        c = ArtifactCache(tmp_path / "c")
        key = c.key("abc", "crit", {})
        c.store(key, {"v": 1})

        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            c.store(key, {"v": 2})
        with pytest.raises(KeyboardInterrupt):
            dump_json(tmp_path / "art.json", {"k": 1})
        monkeypatch.undo()
        assert c.load(key) == {"v": 1}
        assert not (tmp_path / "art.json").exists()
        leftovers = [f.name for f in tmp_path.rglob("*")
                     if f.is_file() and f.suffix == ".tmp"]
        assert leftovers == []

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MORSEVANISH_CACHE", str(tmp_path / "elsewhere"))
        assert cache_root(tmp_path / "runs") == tmp_path / "elsewhere"
        monkeypatch.delenv("MORSEVANISH_CACHE")
        assert cache_root(tmp_path / "runs") == tmp_path / "runs" / "cache"


class TestPointRoundtrip:
    def test_record_rebuilds_the_point(self):
        spec, _ = problem_from_config(dict(DW), "t")
        cs = find_critical_points(spec, 0.05, seed=0)
        for p in cs.points:
            q = _point_from_record(json.loads(
                json.dumps(_canon(_point_record(p)))))
            assert np.allclose(q.location, p.location)
            assert q.value == p.value
            assert q.index == p.index
            assert np.allclose(q.frame, p.frame)
            assert q.window_status == p.window_status
            assert q.drifting == p.drifting


class TestCommands:
    def test_crit_artifact_and_cache_reuse(self, tmp_path, capsys):
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "crit", "--config", path) == 0
        first = capsys.readouterr().out
        assert "(cached)" not in first
        art = read_artifact(tmp_path, DW, "crit")
        assert art["schema"] == 1
        assert len(art["points"]) == 3
        assert all("frame" in p for p in art["points"])
        assert run(tmp_path, "crit", "--config", path) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_missing_eps_exits_one(self, tmp_path, capsys):
        cfg = dict(DW)
        del cfg["eps"]
        path = write_cfg(tmp_path, cfg)
        assert run(tmp_path, "crit", "--config", path) == 1
        assert "eps" in capsys.readouterr().err

    def test_homology_artifact(self, tmp_path):
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "homology", "--config", path) == 0
        art = read_artifact(tmp_path, DW, "homology")
        assert art["groups"]["0"] == {"betti": 1, "torsion": []}
        assert art["euler"] == 1
        assert art["d_squared"] == "d.d = 0"

    def test_oracle_artifact(self, tmp_path):
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "oracle", "--config", path, "--res", "64") == 0
        art = read_artifact(tmp_path, DW, "oracle")
        assert art["method"] == "cubical"
        assert art["groups"]["0"] == {"betti": 1, "torsion": []}
        assert art["resolution"] == 64

    def test_oracle_too_coarse_exits_two(self, tmp_path, capsys):
        path = write_cfg(tmp_path, Z3)
        assert run(tmp_path, "oracle", "--config", path, "--res", "3") == 2
        assert "refinement" in capsys.readouterr().err

    def test_compare_double_well(self, tmp_path):
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "compare", "--config", path,
                   "--catalog", "double_well_1d", "--res", "64") == 0
        art = read_artifact(tmp_path, DW, "compare")
        assert art["verdict"] == "pass"
        assert art["euler"]["ok"] is True
        degree0 = next(r for r in art["rows"] if r["degree"] == 0)
        assert degree0["morse"] == degree0["oracle"] == \
            degree0["catalog"] == "Z"

    def test_compare_z3_catalog_only(self, tmp_path):
        cfg = {"catalog": "z^3"}
        assert run(tmp_path, "compare", "--catalog", "z^3") == 0
        art = read_artifact(tmp_path, cfg, "compare")
        assert art["verdict"] == "pass"
        row = next(r for r in art["rows"] if r["degree"] == 1)
        assert row["morse"] == row["oracle"] == row["catalog"] == "Z^2"

    def test_compare_fail_verdict_exits_two(self, tmp_path):
        cfg = dict(Z3, catalog="z^2")  # Re z^3 has rank two, z^2 says one
        path = write_cfg(tmp_path, cfg)
        assert run(tmp_path, "compare", "--config", path) == 2
        art = read_artifact(tmp_path, cfg, "compare")
        assert art["verdict"] == "fail"
        degree1 = next(r for r in art["rows"] if r["degree"] == 1)
        assert degree1["morse"] == degree1["oracle"] == "Z^2"
        assert degree1["catalog"] == "Z" and degree1["ok"] is False

    def test_compare_needs_some_problem(self, tmp_path, capsys):
        assert run(tmp_path, "compare") == 1
        assert "--catalog" in capsys.readouterr().err

    @pytest.mark.parametrize("res", ["0", "-3"])
    def test_resolution_below_one_exits_one(self, tmp_path, capsys, res):
        assert run(tmp_path, "compare", "--catalog", "z^2",
                   "--res", res) == 1
        assert "at least one cell per axis" in capsys.readouterr().err

    def test_one_parser_serves_every_call(self, tmp_path):
        assert cli_module._build_parser() is cli_module._build_parser()
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "crit", "--config", path, "--eps", "0.1") == 0
        assert read_artifact(tmp_path, DW, "crit")["eps"] == 0.1
        # nothing of the last parse carries over into the next one
        assert run(tmp_path, "crit", "--config", path) == 0
        assert read_artifact(tmp_path, DW, "crit")["eps"] == 0.05

    def test_unknown_catalog_exits_one(self, tmp_path):
        assert run(tmp_path, "compare", "--catalog", "nope") == 1

    def test_compare_flagship_euler_route(self, tmp_path):
        cfg = {"catalog": "x_plus_x2y"}
        assert run(tmp_path, "compare", "--catalog", "x_plus_x2y",
                   "--res", "16") == 0
        art = read_artifact(tmp_path, cfg, "compare")
        assert art["oracle_method"] == "cell-count"
        assert art["euler"] == {"morse": 1, "oracle": 1, "ok": True}
        assert art["verdict"] == "pass"

    def test_flow_artifacts(self, tmp_path):
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "flow", "--config", path) == 0
        art = read_artifact(tmp_path, DW, "flow")
        assert len(art["sources"]) == 1
        (src,) = art["sources"]
        assert src["index"] == 1
        assert sorted(c for _, c in src["counts"]) in ([-1, 1], [1, -1])
        csv_text = (run_dir(tmp_path, DW) / "flow.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("source,termination,target,sign")
        assert len(lines) >= 3

    def test_sweep_eps_artifacts(self, tmp_path):
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "sweep-eps", "--config", path,
                   "--grid", "0.4,0.2,0.1,0.05") == 0
        art = read_artifact(tmp_path, DW, "sweep-eps")
        assert art["verdict"] == "separated"
        assert len(art["eps_grid"]) == 4
        csv_lines = (run_dir(tmp_path, DW) / "sweep-eps.csv") \
            .read_text().strip().splitlines()
        assert csv_lines[0] == "chain,kind,eps,value,location"
        assert len(csv_lines) > 4

    def test_sweep_theta_needs_polynomial(self, tmp_path, capsys):
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "sweep-theta", "--config", path,
                   "--grid", "0.4,0.2,0.1") == 1
        assert "polynomial" in capsys.readouterr().err

    def test_sweep_theta_artifact(self, tmp_path):
        z2 = {"name": "z2", "dimension": 1, "eps": 0.1,
              "polynomial": {"terms": [{"monomial": [2], "re": 1,
                                        "im": 0}]}}
        path = write_cfg(tmp_path, z2)
        assert run(tmp_path, "sweep-theta", "--config", path,
                   "--grid", "0.4,0.2,0.1", "--thetas", "2") == 0
        art = read_artifact(tmp_path, z2, "sweep-theta")
        assert art["experimental"] is True
        assert len(art["sweeps"]) == 2
        assert art["thetas"][0] == 0.0

    def test_continue_isomorphism(self, tmp_path):
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "continue", "--config", path,
                   "--eps-from", "0.1", "--eps-to", "0.05") == 0
        art = read_artifact(tmp_path, DW, "continue")
        assert art["isomorphism"] is True
        assert art["confined"] is True
        assert art["failures"] == []
        assert art["source_homology"] == art["target_homology"]

    def test_jobs_flag_rejected(self, tmp_path):
        path = write_cfg(tmp_path, DW)
        with pytest.raises(SystemExit) as err:
            run(tmp_path, "crit", "--config", path, "--jobs", "4")
        assert err.value.code == 2

    def count_calls(self, monkeypatch, warn=None):
        """Record each boundary_counts call; optionally add a warning to
        every result."""
        calls = []
        counting = cli_module.boundary_counts

        def counted(*args, **kw):
            calls.append(args[1])
            for i, res in counting(*args, **kw):
                if warn:
                    res = dataclasses.replace(res, warnings=(warn,))
                yield i, res

        monkeypatch.setattr(cli_module, "boundary_counts", counted)
        return calls

    @pytest.mark.parametrize("cfg", [Z3, SADDLE2], ids=["z3", "index2"])
    def test_flow_counts_are_the_complex_boundaries(self, tmp_path,
                                                    monkeypatch, cfg):
        # the complex stage builds from the flow stage's counts
        calls = self.count_calls(monkeypatch)
        path = write_cfg(tmp_path, cfg)
        for stage in ("crit", "flow", "complex"):
            assert run(tmp_path, stage, "--config", path) == 0
        assert calls == [cfg["eps"]]
        pts = [_point_from_record(r)
               for r in read_artifact(tmp_path, cfg, "crit")["points"]
               if _is_window(r)]
        flow = read_artifact(tmp_path, cfg, "flow")
        counts = {(s["source"], t): c for s in flow["sources"]
                  for t, c in s["counts"]
                  if pts[t].index == s["index"] - 1}
        # assemble_complex raises MissingCount if flow.json left a pair out
        cx = assemble_complex(pts, counts)
        want = read_artifact(tmp_path, cfg, "complex")["boundaries"]
        assert want and any(any(row) for M in want for row in M)
        assert [cx.boundary(k) for k in range(1, cx.top + 1)] == want

    @pytest.mark.parametrize("cfg", [Z3, SADDLE2], ids=["z3", "index2"])
    def test_complex_artifact_is_the_window_complex(self, tmp_path, cfg):
        # the CLI assembles from its cached counts the complex the library
        # counts directly; SADDLE2 takes the dual top-degree route
        path = write_cfg(tmp_path, cfg)
        assert run(tmp_path, "complex", "--config", path) == 0
        art = read_artifact(tmp_path, cfg, "complex")
        spec, _ = problem_from_config(cfg, "t")
        cx = window_complex(spec, cfg["eps"], seed=0)
        assert art["ranks"] == [cx.rank(k) for k in range(cx.top + 1)]
        assert art["boundaries"] == [cx.boundary(k)
                                     for k in range(1, cx.top + 1)]

    def test_complex_first_then_flow_counts_once(self, tmp_path,
                                                 monkeypatch, capsys):
        calls = self.count_calls(monkeypatch)
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "complex", "--config", path) == 0
        assert run(tmp_path, "flow", "--config", path) == 0
        assert "(cached)" in capsys.readouterr().out.splitlines()[-1]
        assert calls == [DW["eps"]]

    def test_complex_checks_degeneracy_before_counting(self, tmp_path,
                                                       monkeypatch, capsys):
        calls = self.count_calls(monkeypatch)
        window_points = cli_module._window_points

        def one_degenerate(ctx, eps):
            pts = window_points(ctx, eps)
            return [dataclasses.replace(pts[0], degenerate=True)] + pts[1:]

        monkeypatch.setattr(cli_module, "_window_points", one_degenerate)
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "complex", "--config", path) == 2
        assert "degenerate" in capsys.readouterr().err
        assert calls == []

    def test_flow_warnings_fail_the_complex(self, tmp_path, monkeypatch,
                                            capsys):
        self.count_calls(monkeypatch, warn="launch +1 ended with budget")
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "flow", "--config", path) == 0
        flow = read_artifact(tmp_path, DW, "flow")
        (src,) = flow["sources"]
        assert src["warnings"] == ["launch +1 ended with budget"]
        capsys.readouterr()
        assert run(tmp_path, "complex", "--config", path) == 2
        assert (f"source {src['source']}: launch +1 ended with budget"
                in capsys.readouterr().err)

    def test_top_degree_warnings_fail_the_complex(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(cli_module, "boundary_counts", functools.partial(
            cli_module.boundary_counts, budget=3))
        path = write_cfg(tmp_path, SADDLE2)
        assert run(tmp_path, "complex", "--config", path) == 2
        assert "reversed launch +1 from target" in capsys.readouterr().err

    def test_flow_refuses_index2_in_r3(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SQUARE3)
        assert run(tmp_path, "flow", "--config", path) == 1
        assert "Euler characteristic" in capsys.readouterr().err

    def test_report_manifest(self, tmp_path):
        path = write_cfg(tmp_path, DW)
        run(tmp_path, "homology", "--config", path)
        run(tmp_path, "compare", "--config", path,
            "--catalog", "double_well_1d", "--res", "64")
        assert run(tmp_path, "report", "--config", path) == 0
        man = json.loads((run_dir(tmp_path, DW) / "manifest.json")
                         .read_text())
        assert man["config_hash"] == config_digest(DW)
        assert man["summary"]["compare"] == "pass"
        assert man["summary"]["homology"] == "ok"
        for name, entry in man["stages"].items():
            blob = (run_dir(tmp_path, DW) / name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert "written_at" in entry
        for stage in ("homology", "compare"):
            art = read_artifact(tmp_path, DW, stage)
            assert "written_at" not in json.dumps(art)

    def test_report_without_artifacts_exits_one(self, tmp_path):
        path = write_cfg(tmp_path, DW)
        assert run(tmp_path, "report", "--config", path) == 1


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self, tmp_path):
        path = write_cfg(tmp_path, DW)
        args = ("compare", "--config", path,
                "--catalog", "double_well_1d", "--res", "64")
        assert run(tmp_path, *args) == 0
        first = {f.name: f.read_bytes()
                 for f in run_dir(tmp_path, DW).iterdir() if f.is_file()}
        assert run(tmp_path, *args) == 0
        for f in run_dir(tmp_path, DW).iterdir():
            if f.is_file():
                assert f.read_bytes() == first[f.name], f.name

    def test_fresh_caches_agree(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            path = write_cfg(d, DW)
            assert main(["homology", "--config", path,
                         "--out", str(d / "runs")]) == 0
            outs.append((d / "runs" / config_digest(DW) /
                         "homology.json").read_bytes())
        assert outs[0] == outs[1]

    def test_config_hash_ignores_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == \
            config_digest({"b": 2, "a": 1})

    def test_dump_json_newline_terminated(self, tmp_path):
        p = dump_json(tmp_path / "x.json", {"k": 1})
        assert p.read_text().endswith("}\n")
