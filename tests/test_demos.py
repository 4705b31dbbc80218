"""The demos reproduce the files committed under demos/out byte for byte."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_demos_reproduce_committed_outputs(tmp_path, monkeypatch, capsys):
    written = {}
    for script in sorted(DEMOS.glob("*.py")):
        spec = importlib.util.spec_from_file_location(f"demo_{script.stem}", script)
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        out = tmp_path / script.stem
        out.mkdir()
        monkeypatch.setattr(demo, "OUT", out)
        demo.main()
        assert capsys.readouterr().out  # each demo reports what it wrote
        files = sorted(out.iterdir())
        assert files, script.name
        written.update({path.name: path.read_bytes() for path in files})
    committed = {path.name: path.read_bytes() for path in (DEMOS / "out").iterdir()}
    assert sorted(written) == sorted(committed)
    assert [name for name in committed if written[name] != committed[name]] == []
