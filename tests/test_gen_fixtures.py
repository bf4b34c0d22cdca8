import importlib.util

from conftest import REPO


def test_gen_fixtures_reproduces_committed_fixtures(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", REPO / "scripts" / "gen_fixtures.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "ROOT", tmp_path)
    gen.main()
    committed = sorted(p.name for p in (REPO / "fixtures").glob("*.json"))
    assert len(committed) == 17
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (REPO / "fixtures" / name).read_bytes(), name
