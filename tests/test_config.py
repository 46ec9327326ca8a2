"""Config files, precedence, and the build_* helpers behind the CLI."""

import numpy as np
import pytest

import temporank as tr
from temporank import config as configmod
from temporank.config import (RunConfig, build_damping, build_grid, build_kernel,
                              build_network, build_personalization,
                              build_quadrature, dump_config, read_config,
                              resolve_config)
from temporank.errors import InvalidInputError
from temporank.graph import ContinuousTemporalNetwork, DiscreteTemporalNetwork
from temporank.schedules import (ConstantDamping, ExponentialDecay,
                                 InputPersonalization,
                                 InverseInputPersonalization, LinearDamping,
                                 TabulatedPersonalization,
                                 UniformPersonalization)

SAMPLE = """\
[network]
preset = paper-synthetic

[kernel]
rate = 2.5

[damping]
kind = linear
start = 0.3
end = 0.9

[solver]
method = power
tol = 1e-10
max-iter = 500
threads = 3

[quadrature]
tol = 1e-8
max-subdiv = 1024

[grid]
count = 11

[output]
format = json
header = no
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestReadConfig:
    def test_sample_file(self, tmp_path):
        cfg = read_config(write(tmp_path, SAMPLE))
        assert cfg.network_preset == "paper-synthetic"
        assert cfg.network_file is None
        assert cfg.kernel_rate == 2.5
        assert cfg.damping_kind == "linear"
        assert cfg.damping_start == 0.3
        assert cfg.damping_end == 0.9
        assert cfg.solver_method == "power"
        assert cfg.solver_tol == 1e-10
        assert cfg.solver_max_iter == 500
        assert cfg.threads == 3
        assert cfg.quad_tol == 1e-8
        assert cfg.quad_max_subdiv == 1024
        assert cfg.grid_count == 11
        assert cfg.output_format == "json"
        assert cfg.output_header is False
        # untouched keys keep their defaults
        assert cfg.personalization_kind == "uniform"
        assert cfg.output_path == "-"

    def test_empty_file_is_all_defaults(self, tmp_path):
        assert read_config(write(tmp_path, "")) == RunConfig()

    def test_inline_comments_stripped(self, tmp_path):
        cfg = read_config(write(tmp_path, "[kernel]\nrate = 4.0 ; fast decay\n"))
        assert cfg.kernel_rate == 4.0

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "[solver]\nspeed = 11\n")
        with pytest.raises(InvalidInputError,
                           match=r"unknown config key \[solver\] speed"):
            read_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "[turbo]\nrate = 1\n")
        with pytest.raises(InvalidInputError, match="unknown config key"):
            read_config(path)

    def test_bad_float_rejected(self, tmp_path):
        path = write(tmp_path, "[kernel]\nrate = brisk\n")
        with pytest.raises(InvalidInputError,
                           match=r"bad value for \[kernel\] rate"):
            read_config(path)

    def test_bad_bool_rejected(self, tmp_path):
        path = write(tmp_path, "[output]\nheader = maybe\n")
        with pytest.raises(InvalidInputError, match="expected yes/no"):
            read_config(path)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"[network]\npreset = caf\xe9\n")
        with pytest.raises(InvalidInputError,
                           match="run.cfg: line 2: not UTF-8 text: byte 0xe9 at column 13"):
            read_config(str(path))

    @pytest.mark.parametrize("text,fragment", [
        ("preset = x\n", "line 1: File contains no section headers"),
        ("[network]\ngarbage line\n", "parsing errors"),
        ("[network]\npreset = a\npreset = b\n", "line 3: .* already exists"),
        ("[network]\n[network]\n", "line 2: .* already exists"),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, fragment):
        with pytest.raises(InvalidInputError, match=fragment):
            read_config(write(tmp_path, text))

    def test_message_names_the_file(self, tmp_path):
        path = write(tmp_path, "[solver]\nspeed = 11\n")
        with pytest.raises(InvalidInputError, match="run.cfg"):
            read_config(path)


class TestResolveConfig:
    def test_defaults(self):
        cfg = resolve_config(env={})
        assert cfg == RunConfig()

    def test_env_overrides_file(self, tmp_path):
        base = read_config(write(tmp_path, "[solver]\nthreads = 3\n"))
        cfg = resolve_config(base, env={"TEMPORANK_THREADS": "5"})
        assert cfg.threads == 5

    def test_flag_overrides_env(self, tmp_path):
        base = read_config(write(tmp_path, "[solver]\nthreads = 3\n"))
        cfg = resolve_config(base, env={"TEMPORANK_THREADS": "5"}, threads=8)
        assert cfg.threads == 8

    def test_env_ignored_when_absent(self):
        assert resolve_config(env={}).threads == 1

    def test_bad_env_value(self):
        with pytest.raises(InvalidInputError, match="TEMPORANK_THREADS"):
            resolve_config(env={"TEMPORANK_THREADS": "many"})

    def test_none_override_is_not_given(self):
        cfg = resolve_config(RunConfig(kernel_rate=3.0), env={}, kernel_rate=None)
        assert cfg.kernel_rate == 3.0

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown config fields"):
            resolve_config(env={}, warp_speed=9)

    @pytest.mark.parametrize("overrides,fragment", [
        (dict(network_file="a", network_preset="b"), "not both"),
        (dict(damping_kind="quadratic"), "unknown damping kind"),
        (dict(personalization_kind="popularity"), "unknown personalization kind"),
        (dict(personalization_kind="file"), "needs a file"),
        (dict(solver_method="jacobi"), "unknown solver method"),
        (dict(output_format="xml"), "unknown output format"),
        (dict(threads=0), "threads must be >= 1"),
        (dict(grid_start=0.0), "given together"),
        (dict(grid_step=0.5), "given together"),
        (dict(grid_count=0), "grid count must be >= 1"),
        (dict(solver_tol=0.0), "solver tol must be positive"),
        (dict(solver_tol=-1.0), "solver tol must be positive"),
        (dict(solver_tol=float("inf")), "solver tol must be positive"),
        (dict(quad_tol=-1.0), "quadrature tol must be positive"),
        (dict(quad_tol=float("nan")), "quadrature tol must be positive"),
    ])
    def test_validation(self, overrides, fragment):
        with pytest.raises(InvalidInputError, match=fragment):
            resolve_config(env={}, **overrides)


class TestDumpConfig:
    def test_round_trip_defaults(self, tmp_path):
        cfg = RunConfig()
        assert read_config(write(tmp_path, dump_config(cfg))) == cfg

    def test_round_trip_tweaked(self, tmp_path):
        cfg = resolve_config(
            env={}, network_preset="paper-synthetic", kernel_rate=0.125,
            damping_kind="linear", damping_start=0.2, damping_end=0.7,
            personalization_kind="inverse-input", solver_method="direct",
            solver_tol=1e-9, threads=4, quad_tol=1e-7, grid_start=0.0,
            grid_step=0.1, grid_count=5, output_format="json",
            output_header=False)
        assert read_config(write(tmp_path, dump_config(cfg))) == cfg

    def test_float_values_survive_exactly(self, tmp_path):
        cfg = RunConfig(kernel_rate=0.1 + 1e-13, solver_tol=1 / 3)
        loaded = read_config(write(tmp_path, dump_config(cfg)))
        assert loaded.kernel_rate == cfg.kernel_rate
        assert loaded.solver_tol == cfg.solver_tol


class TestBuilders:
    def test_network_preset(self):
        net = build_network(RunConfig(network_preset="paper-synthetic"))
        assert isinstance(net, ContinuousTemporalNetwork)
        assert net.n == 5

    def test_network_file(self, tmp_path):
        source = tr.preset("paper-synthetic")
        path = tmp_path / "net.txt"
        tr.save_network(source, str(path))
        net = build_network(RunConfig(network_file=str(path)))
        assert isinstance(net, ContinuousTemporalNetwork)
        assert net.n == 5

    def test_network_missing_file(self, tmp_path):
        cfg = RunConfig(network_file=str(tmp_path / "nowhere.txt"))
        with pytest.raises(FileNotFoundError, match="network source not found"):
            build_network(cfg)

    def test_network_unconfigured(self):
        with pytest.raises(InvalidInputError, match="no network source"):
            build_network(RunConfig())

    def test_kernel(self):
        assert build_kernel(RunConfig(kernel_rate=2.0)) == ExponentialDecay(2.0)

    def test_damping_constant(self):
        assert build_damping(RunConfig(damping_value=0.7)) == ConstantDamping(0.7)

    def test_damping_linear(self):
        cfg = RunConfig(damping_kind="linear", damping_start=0.1, damping_end=0.6)
        assert build_damping(cfg) == LinearDamping(0.1, 0.6)

    @pytest.mark.parametrize("kind,cls", [
        ("uniform", UniformPersonalization),
        ("input", InputPersonalization),
        ("inverse-input", InverseInputPersonalization),
    ])
    def test_personalization_recipes(self, kind, cls):
        cfg = RunConfig(personalization_kind=kind)
        assert isinstance(build_personalization(cfg), cls)

    def test_personalization_file(self, tmp_path):
        path = tmp_path / "v.txt"
        np.savetxt(path, np.array([[0.5, 0.25, 0.25], [0.2, 0.2, 0.6]]))
        cfg = RunConfig(personalization_kind="file",
                        personalization_file=str(path))
        schedule = build_personalization(cfg)
        assert isinstance(schedule, TabulatedPersonalization)
        assert len(schedule.vectors) == 2
        np.testing.assert_allclose(schedule.vectors[0], [0.5, 0.25, 0.25])
        np.testing.assert_allclose(schedule.vectors[1], [0.2, 0.2, 0.6])

    def test_personalization_single_row_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0.5 0.5\n")
        cfg = RunConfig(personalization_kind="file",
                        personalization_file=str(path))
        schedule = build_personalization(cfg)
        assert len(schedule.vectors) == 1

    @pytest.mark.parametrize("content,fragment", [
        (b"0.5 0.5\n0.5 x\n", "not a table of numbers"),
        (b"0.5 0.5\n1.0\n", "not a table of numbers"),
        (b"0.5 0.5\n\xe9 0.5\n", "line 2: not UTF-8 text: byte 0xe9 at column 1"),
        (b"", "no rows of numbers"),
        (b"# a comment\n\n", "no rows of numbers"),
    ])
    def test_personalization_malformed_file(self, tmp_path, content, fragment):
        path = tmp_path / "v.txt"
        path.write_bytes(content)
        cfg = RunConfig(personalization_kind="file", personalization_file=str(path))
        with pytest.raises(InvalidInputError) as info:
            build_personalization(cfg)
        assert str(info.value).startswith(f"{path}: ")
        assert fragment in str(info.value)

    def test_personalization_missing_file(self, tmp_path):
        cfg = RunConfig(personalization_kind="file",
                        personalization_file=str(tmp_path / "gone.txt"))
        with pytest.raises(FileNotFoundError, match="personalization file"):
            build_personalization(cfg)

    def test_quadrature(self):
        quad = build_quadrature(RunConfig(quad_tol=1e-6, quad_max_subdiv=99))
        assert quad.tol == 1e-6
        assert quad.max_subdivisions == 99


class TestBuildGrid:
    def test_discrete_network_has_no_grid(self):
        net = DiscreteTemporalNetwork(
            n=2, instants=np.array([1.0]),
            snapshots=[np.array([[0.0, 1.0], [1.0, 0.0]])])
        assert build_grid(RunConfig(), net) is None

    def test_uniform_over_interval(self):
        net = tr.preset("paper-synthetic")
        grid = build_grid(RunConfig(grid_count=5), net)
        np.testing.assert_array_equal(grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_point_grid(self):
        net = tr.preset("paper-synthetic")
        np.testing.assert_array_equal(build_grid(RunConfig(grid_count=1), net),
                                      [0.0])

    def test_explicit_progression(self):
        net = tr.preset("paper-synthetic")
        cfg = RunConfig(grid_start=0.1, grid_step=0.2, grid_count=4)
        np.testing.assert_allclose(build_grid(cfg, net), [0.1, 0.3, 0.5, 0.7])

    def test_rejects_non_network(self):
        with pytest.raises(InvalidInputError, match="not a temporal network"):
            build_grid(RunConfig(), object())
