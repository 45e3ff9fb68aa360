import argparse
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest

from rankchi import (
    ChiBoundFn,
    Graph,
    InputError,
    clique_number,
    complete,
    cycle,
    path_graph,
    star_decomposition,
    validate_rank_decomposition,
    wheel,
)
from rankchi import cli
from rankchi.cli import main
from rankchi.config import Limits
from rankchi.generate import random_graph
from rankchi.io import (
    coloring_from_text,
    decomposition_from_text,
    decomposition_to_text,
    graph_from_text,
    graph_to_text,
    join_tree_from_text,
)

from helpers import naive_color_bound


def write_graph(tmp_path, g, name="g.graph"):
    path = tmp_path / name
    path.write_text(graph_to_text(g))
    return str(path)


class TestCutrank:
    def test_complete(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete(4))
        assert main(["cutrank", path, "--set", "0,1"]) == 0
        assert capsys.readouterr().out.strip() == "rank=1 diversity=1"

    def test_cycle4(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle(4))
        assert main(["cutrank", path, "--set", "0,1"]) == 0
        assert capsys.readouterr().out.strip() == "rank=2 diversity=2"

    def test_edgeless(self, tmp_path, capsys):
        path = write_graph(tmp_path, Graph(4, (0, 0, 0, 0)))
        assert main(["cutrank", path, "--set", "0,1"]) == 0
        assert capsys.readouterr().out.strip() == "rank=0 diversity=1"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("nonsense\n")
        assert main(["cutrank", str(bad), "--set", "0"]) == 2

    def test_bad_set_exit_2(self, tmp_path):
        path = write_graph(tmp_path, complete(3))
        assert main(["cutrank", path, "--set", "7"]) == 2

    def test_huge_or_negative_id_refused_before_allocation(self, tmp_path):
        """An id is checked against n before 1 << id builds a bitset that large."""
        path = write_graph(tmp_path, complete(3))
        for spec in ("100000000", "0,-1"):
            tracemalloc.start()
            try:
                assert main(["cutrank", path, "--set", spec]) == 2
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


class TestRankwidth:
    def test_cycle5(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle(5))
        out_path = str(tmp_path / "witness.dec")
        assert main(["rankwidth", path, "-o", out_path]) == 0
        out = capsys.readouterr().out
        assert "rankwidth=2" in out
        dec = decomposition_from_text((tmp_path / "witness.dec").read_text(), 5)
        assert validate_rank_decomposition(cycle(5), dec).width == 2

    def test_complete5(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete(5))
        assert main(["rankwidth", path, "-o", str(tmp_path / "w.dec")]) == 0
        assert "rankwidth=1" in capsys.readouterr().out

    def test_path2(self, tmp_path, capsys):
        path = write_graph(tmp_path, Graph.from_edges(2, [(0, 1)]))
        assert main(["rankwidth", path, "-o", str(tmp_path / "w.dec")]) == 0
        assert "rankwidth=1" in capsys.readouterr().out

    def test_resource_limit_exit_3(self, tmp_path):
        """A graph past the default rank-width ceiling of 14 vertices is refused."""
        g = random_graph(random.Random(0), 15)
        path = write_graph(tmp_path, g)
        assert main(["rankwidth", path, "-o", str(tmp_path / "w.dec")]) == 3


class TestColor:
    def run_color(self, tmp_path, capsys, g, f, r):
        gpath = write_graph(tmp_path, g)
        assert main(["rankwidth", gpath, "-o", str(tmp_path / "w.dec")]) == 0
        capsys.readouterr()
        code = main(
            [
                "color",
                gpath,
                str(tmp_path / "w.dec"),
                "--f",
                f,
                "--r",
                str(r),
                "-o",
                str(tmp_path / "out.col"),
            ]
        )
        return code, capsys.readouterr().out

    def test_cycle5(self, tmp_path, capsys):
        code, out = self.run_color(tmp_path, capsys, cycle(5), "const:3", 2)
        assert code == 0
        assert "check:proper=pass" in out
        assert "check:palette_within_bound=pass" in out
        coloring = coloring_from_text((tmp_path / "out.col").read_text(), 5)
        assert coloring.palette_size <= 16

    def test_long_odd_cycle_colors_through_the_module_entry_point(self, tmp_path):
        """C_1201 on its star decomposition, with both ceilings raised: the one piece
        is the whole cycle, whose 2-coloring search fails only at the last of 1,201
        vertices.  The search keeps them on an explicit stack, so the command colors
        with 3 colors instead of ending in a RecursionError traceback."""
        from rankchi import star_decomposition
        from rankchi.io import decomposition_to_text

        g = cycle(1201)
        gpath = write_graph(tmp_path, g)
        (tmp_path / "star.dec").write_text(decomposition_to_text(star_decomposition(g)))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src, RANKCHI_CLIQUE_LIMIT="5000",
                   RANKCHI_CHROMATIC_LIMIT="5000")
        proc = subprocess.run(
            [sys.executable, "-m", "rankchi.cli", "color", gpath, str(tmp_path / "star.dec"),
             "--f", "const:3", "--r", "1", "-o", str(tmp_path / "out.col")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "palette=3" in proc.stdout.splitlines()

    def test_k33_star_decomposition(self, tmp_path, capsys):
        g = Graph.from_edges(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
        gpath = write_graph(tmp_path, g)
        from rankchi import star_decomposition
        from rankchi.io import decomposition_to_text

        (tmp_path / "star.dec").write_text(decomposition_to_text(star_decomposition(g)))
        code = main(
            [
                "color",
                gpath,
                str(tmp_path / "star.dec"),
                "--f",
                "const:2",
                "--r",
                "1",
                "-o",
                str(tmp_path / "out.col"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "check:proper=pass" in out
        coloring = coloring_from_text((tmp_path / "out.col").read_text(), 6)
        assert coloring.palette_size <= 6  # B(2) = 2 * (2+1)

    def test_omega_searched_once_on_the_input(self, tmp_path, capsys, monkeypatch):
        """The printed omega and the coloring's recursion on a connected input take
        the clique number of the whole graph from one search."""
        from rankchi import coloring, oracles

        g = wheel(6)
        omega = clique_number(g)
        searched = []
        search = oracles._max_clique_size

        def recorded(adj, cand, best=0):
            searched.append((adj, cand))
            return search(adj, cand, best)

        for module in (oracles, coloring):
            monkeypatch.setattr(module, "_max_clique_size", recorded)
        code, out = self.run_color(tmp_path, capsys, g, "const:3", 2)
        assert code == 0 and f"omega={omega}" in out.splitlines()
        assert searched.count((g.adj, g.vertex_mask)) == 1 and len(searched) > 1

    def test_rank_budget_violation_exit_4(self, tmp_path, capsys):
        code, _ = self.run_color(tmp_path, capsys, cycle(5), "const:3", 1)
        assert code == 4

    def test_duplicate_root_exit_2(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, Graph(1, (0,)))
        (tmp_path / "g.dec").write_text("d 3\nt 0 1\nt 1 2\nm 0 1\nr 0\nr 2\n")
        code = main(["color", gpath, str(tmp_path / "g.dec"), "--f", "const:2", "--r", "1"])
        err = capsys.readouterr().err
        assert code == 2 and err == "error: root given twice\n"

    def test_empty_graph(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, Graph(0, ()))
        (tmp_path / "g.dec").write_text("d 1\n")
        code = main(["color", gpath, str(tmp_path / "g.dec"), "--f", "const:2", "--r", "1"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "omega=0" in out and "palette=0" in out and "bound=1" in out

    def test_edgeless_graph(self, tmp_path, capsys):
        code, out = self.run_color(tmp_path, capsys, Graph(3, (0, 0, 0)), "const:2", 0)
        lines = out.splitlines()
        assert code == 0
        assert "omega=1" in lines and "palette=1" in lines and "bound=1" in lines
        assert "check:proper=pass" in lines

    def test_bound_past_the_int_to_str_limit_printed_as_a_power(self, tmp_path, capsys):
        """B(omega) at r = 100000 has over 30,000 decimal digits, more than
        CPython's default int-to-str limit of 4,300, so it is printed as 2^N*M, with
        N = r(omega - 1) and M = (f + 1)^(omega - 1)."""
        prefix = str(tmp_path / "rw")
        assert main(["gen", "--mode", "rw", "--n", "8", "--seed", "42", "--out", prefix]) == 0
        capsys.readouterr()
        code = main(["color", prefix + ".graph", prefix + ".rankdec",
                     "--f", "const:3", "--r", "100000"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "check:palette_within_bound=pass" in lines
        (value,) = [line.split("=", 1)[1] for line in lines if line.startswith("bound=")]
        omega = clique_number(graph_from_text((tmp_path / "rw.graph").read_text()))
        assert omega >= 2
        shift, m = 100000 * (omega - 1), 4 ** (omega - 1)
        assert value == f"2^{shift}*{m}"
        assert m << shift == naive_color_bound(ChiBoundFn.constant(3, 100000), omega)

    def test_huge_rank_budget_builds_no_integer_of_its_size(self, tmp_path, capsys):
        """K3 at r = 10^8: B(3) = 16·2^(2·10^8) and the key lemma's budget 2^r took
        127 MB together, with B's hex text.  Neither is built now: the command colors
        with 3 colors and allocates under 50 MB, as it does at r = 10^11 (CI's Huge-r
        smoke), an r whose integers would take 37 GB, too much to risk in process."""
        gpath = write_graph(tmp_path, complete(3))
        (tmp_path / "star.dec").write_text(decomposition_to_text(star_decomposition(complete(3))))
        tracemalloc.start()
        try:
            code = main(["color", gpath, str(tmp_path / "star.dec"), "--f", "const:3",
                         "--r", "100000000", "-o", str(tmp_path / "out.col")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and peak < 50 << 20
        assert "palette=3" in lines and "bound=2^200000000*16" in lines

    def test_bound_text_decimal_exactly_while_it_fits(self, monkeypatch):
        """_bound_text prints B = m << shift in decimal exactly when str(B) has no more
        digits than the int-to-str limit in force (4,300 when it is off), on either side
        of that limit, and m in hex once m alone is past it."""
        rng = random.Random(3)
        for limit in (0, 1000, 4300):
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
            digits = limit or 4300
            decimal = power = 0
            for _ in range(200):
                m = rng.randrange(1, 1 << rng.randint(1, 64))
                shift = max(0, int(digits * 3.3219) - m.bit_length() + rng.randint(-3, 3))
                b = m << shift
                fits = b < 10 ** digits  # str(b) has at most digits digits
                assert cli._bound_text(m, shift) == (str(b) if fits else f"2^{shift}*{m}")
                decimal += fits
                power += not fits
            assert decimal > 20 and power > 20
            assert cli._bound_text(10 ** digits - 1, 0) == str(10 ** digits - 1)
            assert cli._bound_text(10 ** digits, 0) == f"2^0*{hex(10 ** digits)}"
        assert cli._bound_text(1, 0) == "1" and cli._bound_text(16, 4) == "256"


class TestSharedParser:
    """main builds its parser on the first call and reuses it; no call leaves
    state behind for the next."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_built_once_across_calls(self, tmp_path, capsys, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        path = write_graph(tmp_path, cycle(4))
        for _ in range(3):
            assert main(["cutrank", path, "--set", "0,1"]) == 0
        assert main(["rankwidth", path, "-o", str(tmp_path / "w.dec")]) == 0
        assert built.count("rankchi") == 1 and len(built) == 7  # the top parser + 6 subcommands
        assert cli.build_parser.cache_info()[:2] == (3, 1)  # hits, misses

    def test_not_built_at_import(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import rankchi.cli as c; print(c.build_parser.cache_info().misses)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    def test_default_output_after_an_explicit_one(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(5))
        dec = str(tmp_path / "w.dec")
        assert main(["rankwidth", gpath, "-o", dec]) == 0
        explicit = tmp_path / "x.col"
        assert main(["color", gpath, dec, "--f", "const:3", "--r", "2", "-o", str(explicit)]) == 0
        assert explicit.exists() and not Path(gpath + ".coloring").exists()
        explicit.unlink()
        capsys.readouterr()
        assert main(["color", gpath, dec, "--f", "const:3", "--r", "2"]) == 0
        assert f"coloring={gpath}.coloring" in capsys.readouterr().out.splitlines()
        assert Path(gpath + ".coloring").exists() and not explicit.exists()

    def test_verify_without_decomposition_after_one_with(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(5))
        dec = str(tmp_path / "w.dec")
        assert main(["rankwidth", gpath, "-o", dec]) == 0
        col = tmp_path / "c.col"
        col.write_text("".join(f"c {v} {1 + v % 3}\n" for v in range(5)))
        capsys.readouterr()
        assert main(["verify", gpath, str(col), "--decomposition", dec]) == 0
        assert "check:rank_decomposition=pass" in capsys.readouterr().out
        assert main(["verify", gpath, str(col)]) == 0
        out = capsys.readouterr().out
        assert "check:rank_decomposition" not in out and "width=" not in out
        assert out == "check:proper=pass\ncheck:max_clique_split=pass\n"

    @pytest.mark.parametrize("refused, status", [
        (["color", "g", "d", "--f", "const:3", "--r", "abc"], 2),
        (["color", "--help"], 0),
        (["--help"], 0),
        (["verify"], 2),
    ])
    def test_a_call_after_an_exit_runs_as_in_a_fresh_process(
            self, tmp_path, capsys, refused, status):
        gpath = write_graph(tmp_path, cycle(5))
        dec = str(tmp_path / "w.dec")
        assert main(["rankwidth", gpath, "-o", dec]) == 0
        argv = ["color", gpath, dec, "--f", "const:3", "--r", "2", "-o", str(tmp_path / "c.col")]
        src = str(Path(__file__).resolve().parent.parent / "src")
        fresh = subprocess.run([sys.executable, "-m", "rankchi.cli", *argv],
                               env=dict(os.environ, PYTHONPATH=src),
                               capture_output=True, text=True, timeout=120)
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(refused)
        assert info.value.code == status
        capsys.readouterr()
        assert main(argv) == 0

        def untimed(text):
            return [line for line in text.splitlines() if not line.startswith("time=")]

        assert untimed(capsys.readouterr().out) == untimed(fresh.stdout)
        assert fresh.returncode == 0

    def test_each_command_dispatches_to_its_own(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(5))
        dec = str(tmp_path / "w.dec")
        assert main(["rankwidth", gpath, "-o", dec]) == 0
        capsys.readouterr()
        assert main(["cutrank", gpath, "--set", "0,1"]) == 0
        assert capsys.readouterr().out == "rank=2 diversity=3\n"
        assert main(["color", gpath, dec, "--f", "const:3", "--r", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["omega=2", "palette=3"] and "check:proper=pass" in lines
        assert main(["cutrank", gpath, "--set", "2"]) == 0
        assert capsys.readouterr().out == "rank=1 diversity=2\n"


class TestUnexpectedErrors:
    def test_memory_error_exit_3(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path, complete(3))

        def out_of_memory(cls, n, edges):
            raise MemoryError

        monkeypatch.setattr(Graph, "from_edges", classmethod(out_of_memory))
        assert main(["cutrank", path, "--set", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_unindexable_header_exit_3(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        path.write_text(f"p {10**30} 0\n")
        assert main(["cutrank", str(path), "--set", "0"]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_runtime_error_is_not_a_parse_error(self, tmp_path, monkeypatch):
        path = write_graph(tmp_path, complete(3))

        def broken(cls, n, edges):
            raise RuntimeError("bug")

        monkeypatch.setattr(Graph, "from_edges", classmethod(broken))
        with pytest.raises(RuntimeError, match="bug"):
            graph_from_text((tmp_path / "g.graph").read_text())
        with pytest.raises(RuntimeError, match="bug"):
            main(["cutrank", path, "--set", "0"])


class TestLimitsFromEnvironment:
    VARIABLES = {"RANKCHI_CLIQUE_LIMIT": "clique_n", "RANKCHI_CHROMATIC_LIMIT": "chromatic_n",
                 "RANKCHI_RW_LIMIT": "rank_width_n", "RANKCHI_VM_LIMIT": "vertex_minor_n"}

    @pytest.mark.parametrize("name", sorted(VARIABLES))
    def test_each_variable_is_read_and_checked(self, monkeypatch, name):
        monkeypatch.setenv(name, "0")
        assert asdict(Limits.from_env()) == dict(asdict(Limits()), **{self.VARIABLES[name]: 0})
        for bad in ("abc", "-5", "", "2.5"):
            monkeypatch.setenv(name, bad)
            with pytest.raises(InputError) as info:
                Limits.from_env()
            assert str(info.value) == f"{name} must be a nonnegative integer (got {bad!r})"

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_malformed_value_exits_2_with_one_line(self, tmp_path, value):
        """Through the module entry point: the package imports, and the command
        is refused before it writes anything."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src, RANKCHI_CLIQUE_LIMIT=value)
        proc = subprocess.run(
            [sys.executable, "-m", "rankchi.cli", "gen", "--mode", "er", "--n", "3",
             "--seed", "1", "--out", str(tmp_path / "g")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: RANKCHI_CLIQUE_LIMIT must be a nonnegative integer (got {value!r})\n")
        assert proc.stdout == "" and not (tmp_path / "g.graph").exists()


class TestVerify:
    def test_pass_and_fail(self, tmp_path, capsys):
        g = complete(2)
        gpath = write_graph(tmp_path, g)
        good = tmp_path / "good.col"
        good.write_text("c 0 1\nc 1 2\n")
        assert main(["verify", gpath, str(good)]) == 0
        out = capsys.readouterr().out
        assert "check:proper=pass" in out and "check:max_clique_split=pass" in out

        bad = tmp_path / "bad.col"
        bad.write_text("c 0 1\nc 1 1\n")
        assert main(["verify", gpath, str(bad)]) == 1
        assert "check:proper=fail" in capsys.readouterr().out

    def test_with_decomposition(self, tmp_path, capsys):
        g = cycle(5)
        gpath = write_graph(tmp_path, g)
        assert main(["rankwidth", gpath, "-o", str(tmp_path / "w.dec")]) == 0
        capsys.readouterr()
        col = tmp_path / "c.col"
        col.write_text("".join(f"c {v} {1 + v % 3}\n" for v in range(5)))
        code = main(
            ["verify", gpath, str(col), "--decomposition", str(tmp_path / "w.dec")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "check:rank_decomposition=pass" in out
        assert "width=2" in out


class TestGen:
    def test_deterministic(self, tmp_path, capsys):
        for run in ("a", "b"):
            assert (
                main(
                    [
                        "gen",
                        "--mode",
                        "rw",
                        "--n",
                        "6",
                        "--seed",
                        "42",
                        "--out",
                        str(tmp_path / run),
                    ]
                )
                == 0
            )
        assert (tmp_path / "a.graph").read_bytes() == (tmp_path / "b.graph").read_bytes()
        assert (tmp_path / "a.rankdec").read_bytes() == (tmp_path / "b.rankdec").read_bytes()

    def test_rw_witness_validates(self, tmp_path, capsys):
        assert (
            main(["gen", "--mode", "rw", "--n", "6", "--seed", "7", "--out", str(tmp_path / "x")])
            == 0
        )
        out = capsys.readouterr().out
        width = int(out.split("rankwidth=")[1].split()[0])
        g = graph_from_text((tmp_path / "x.graph").read_text())
        dec = decomposition_from_text((tmp_path / "x.rankdec").read_text(), g.n)
        assert validate_rank_decomposition(g, dec).width == width

    def test_jointree_rank_one(self, tmp_path, capsys):
        assert (
            main(
                [
                    "gen",
                    "--mode",
                    "jointree",
                    "--n",
                    "4",
                    "--seed",
                    "9",
                    "--out",
                    str(tmp_path / "j"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "rank=1" in out or "rank=0" in out
        g = graph_from_text((tmp_path / "j.graph").read_text())
        from rankchi import decomposition_rank

        dec = decomposition_from_text((tmp_path / "j.dec").read_text(), g.n)
        assert decomposition_rank(g, dec) <= 1

    def test_jointree_n_counts_pieces(self, tmp_path, capsys):
        out = str(tmp_path / "j")
        assert main(["gen", "--mode", "jointree", "--n", "40", "--seed", "3", "--out", out]) == 0
        jt = join_tree_from_text((tmp_path / "j.jointree").read_text())
        assert len(jt.pieces) == 40
        # a denser --p gives the same tree and piece sizes with other edges
        dense = str(tmp_path / "k")
        assert main(["gen", "--mode", "jointree", "--n", "40", "--seed", "3", "--p", "0.9",
                     "--out", dense]) == 0
        other = join_tree_from_text((tmp_path / "k.jointree").read_text())
        assert [p.n for p in other.pieces] == [p.n for p in jt.pieces]
        assert sum(p.num_edges for p in other.pieces) > sum(p.num_edges for p in jt.pieces)

    def test_jointree_below_two_pieces_exit_2(self, tmp_path, capsys):
        for n in ("1", "0"):
            assert main(["gen", "--mode", "jointree", "--n", n, "--seed", "1",
                         "--out", str(tmp_path / "j")]) == 2
            assert "at least 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_probability_outside_unit_interval_exit_2(self, tmp_path, capsys):
        for mode in ("er", "rw", "jointree"):
            for p in ("1.5", "-0.1", "nan"):
                assert main(["gen", "--mode", mode, "--n", "4", "--seed", "1", "--p", p,
                             "--out", str(tmp_path / "j")]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: --p must be") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_jointree_four_pieces_output_unchanged(self, tmp_path, capsys):
        """--n 4 --seed 9 writes the same bytes as when --n was clamped to 2..6
        pieces and --p ignored: 0.5 is random_join_tree's default too."""
        out = str(tmp_path / "j")
        assert main(["gen", "--mode", "jointree", "--n", "4", "--seed", "9", "--out", out]) == 0
        digests = {
            ext: hashlib.sha256((tmp_path / f"j.{ext}").read_bytes()).hexdigest()[:16]
            for ext in ("jointree", "graph", "dec")
        }
        assert digests == {
            "jointree": "88e7bfa0b6a62cc6",
            "graph": "f04f67cf40b7f577",
            "dec": "a99c6d86eff991c2",
        }


class TestVminor:
    def test_free_by_size(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle(5))
        assert main(["vminor", path, "--target", "w5"]) == 0
        assert capsys.readouterr().out.strip() == "free"

    def test_identity_contains(self, tmp_path, capsys):
        path = write_graph(tmp_path, wheel(5))
        assert main(["vminor", path, "--target", "w5"]) == 0
        assert capsys.readouterr().out.strip() == "contains"

    def test_cube_minus_vs_cube(self, tmp_path, capsys):
        from rankchi import cube_minus

        path = write_graph(tmp_path, cube_minus(), "cm.graph")
        assert main(["vminor", path, "--target", "cube"]) == 0
        assert capsys.readouterr().out.strip() == "free"

    def test_file_target(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(5), "g.graph")
        hpath = write_graph(tmp_path, complete(3), "h.graph")
        assert main(["vminor", gpath, "--target", hpath]) == 0
        assert capsys.readouterr().out.strip() == "contains"

    def test_oversize_catalog_target_is_not_built(self, tmp_path, capsys):
        """A catalog target with more vertices than the graph is answered free from the
        size in its name: path:20000 on a 5-vertex graph allocates under 1 MB."""
        path = write_graph(tmp_path, path_graph(5))
        tracemalloc.start()
        try:
            assert main(["vminor", path, "--target", "path:20000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.strip() == "free"
        assert peak < 1 << 20

    def test_catalog_target_of_the_graphs_size_is_searched(self, tmp_path, capsys, monkeypatch):
        """A catalog target no larger than the graph is built and searched for."""
        searched = []
        search = cli.has_vertex_minor
        monkeypatch.setattr(cli, "has_vertex_minor", lambda g, h: (
            searched.append((g.n, h)), search(g, h))[1])
        path = write_graph(tmp_path, path_graph(5))
        for target, verdict in (("path:5", "contains"), ("cycle:5", "free")):
            assert main(["vminor", path, "--target", target]) == 0
            assert capsys.readouterr().out.strip() == verdict
        assert searched == [(5, path_graph(5)), (5, cycle(5))]
