"""CLI tests (invoking main() in-process with captured output)."""

import pytest

from repro.cli import main


class TestCli:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "biblio" in out
        assert "auctions" in out

    def test_search_tiny(self, capsys):
        assert main(["search", "widom xml", "--dataset", "tiny", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "[" in out and "author" in out

    def test_search_steiner(self, capsys):
        assert main(
            ["search", "widom xml", "--dataset", "tiny", "--method", "steiner"]
        ) == 0
        out = capsys.readouterr().out
        assert "steiner" in out

    def test_search_unknown_dataset(self, capsys):
        assert main(["search", "x", "--dataset", "nope"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_search_no_results(self, capsys):
        assert main(["search", "zzzz qqqq", "--dataset", "tiny"]) == 0
        assert "no results" in capsys.readouterr().out

    def test_batch(self, capsys):
        assert main(
            [
                "batch",
                "widom xml",
                "john sigmod",
                "widom xml",
                "--dataset",
                "tiny",
                "--stats",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("== 'widom xml'") == 2
        assert "result cache" in out
        assert "substrate builds" in out

    def test_batch_from_file(self, capsys, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("widom xml\n\njohn sigmod\n", encoding="utf-8")
        assert main(
            ["batch", "--file", str(queries), "--dataset", "tiny", "-k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "== 'widom xml'" in out and "== 'john sigmod'" in out

    def test_batch_no_queries(self, capsys):
        assert main(["batch", "--dataset", "tiny"]) == 2
        assert "no queries" in capsys.readouterr().err

    def test_batch_missing_file(self, capsys):
        assert main(
            ["batch", "--file", "/nonexistent/queries.txt", "--dataset", "tiny"]
        ) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_suggest(self, capsys):
        assert main(["suggest", "sig", "--dataset", "tiny"]) == 0
        assert "sigmod" in capsys.readouterr().out

    def test_xml_search(self, capsys):
        assert main(
            ["xml", "keyword mark", "--corpus", "conf-slide", "--snippets"]
        ) == 0
        out = capsys.readouterr().out
        assert "/conf/paper" in out
        assert "snippet" in out

    def test_xml_elca(self, capsys):
        assert main(
            ["xml", "mark sigmod", "--corpus", "conf-slide", "--semantics", "elca"]
        ) == 0
        assert "[" in capsys.readouterr().out

    def test_facets(self, capsys):
        assert main(["facets", "--dataset", "events-slide", "--table", "events"]) == 0
        out = capsys.readouterr().out
        assert "navigation cost" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])
