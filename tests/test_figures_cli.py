"""Tests for the programmatic figure registry and the CLI."""

import pytest

from repro.__main__ import main
from repro.bench.figures import FIGURES, reproduce


class TestFigureRegistry:
    def test_registry_covers_key_figures(self):
        for name in ("fig3", "fig6", "fig8", "fig9", "fig10", "fig12",
                     "fig13"):
            assert name in FIGURES

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            reproduce("fig99")

    def test_fig6_reproduces_exactly(self):
        detail, rows = reproduce("fig6")
        assert all(row.holds for row in rows)
        assert "eth" in detail and "veth" in detail


class TestCli:
    def test_no_args_lists_figures(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out

    def test_unknown_figure_exit_code(self, capsys):
        assert main(["fig99"]) == 2

    def test_single_figure_run(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "Fig. 6a" in out or "Vanilla" in out


class TestFlagScope:
    """A flag the selected run would not read is an error, not a no-op."""

    @pytest.mark.parametrize("argv", [
        ["--trace", "out.json"],
        ["--metrics", "out.prom"],
        ["--metrics-json", "out.json"],
        ["--folded", "out.folded"],
        ["--speedscope", "out.json"],
        ["--seeds", "1,2"],
        ["--bg", "100000"],
        ["--irq-moderation", "adaptive"],
        ["fig6"],
    ], ids=lambda argv: argv[0])
    def test_single_host_flag_rejected_with_cluster(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["--cluster", "2"] + argv)
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--shards", "2"],
        ["--users", "100"],
        ["--cluster-ms", "2"],
        ["--topology", "fat-tree"],
        ["--fat-tree-k", "4"],
        ["--flowlet-gap-us", "50"],
    ], ids=lambda argv: argv[0])
    def test_cluster_flag_rejected_without_cluster(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err
