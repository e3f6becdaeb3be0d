"""run_all computes each experiment once and reports that one result."""

import json

import pytest

from repro.experiments import fig08_heuristic, run_all, table2_resources, table4_clock

SELECTED = {
    "fig08": fig08_heuristic,
    "table2": table2_resources,
    "table4": table4_clock,
}


def test_each_run_called_once_and_text_renders_the_stored_data(
    tmp_path, monkeypatch
):
    monkeypatch.delenv("GRAMER_JOBS", raising=False)  # in-process modules
    calls: dict[str, int] = {}
    captured: dict[str, object] = {}
    for name, module in SELECTED.items():
        real = module.run

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            captured[_name] = data = _real(*args, **kwargs)
            return data

        monkeypatch.setattr(module, "run", counting)

    run_all.main(
        ["--scale", "tiny", "--only", *SELECTED, "--out", str(tmp_path)]
    )

    assert calls == {name: 1 for name in SELECTED}
    text = (tmp_path / "fig08.txt").read_text(encoding="utf-8")
    assert text == fig08_heuristic.render(captured["fig08"]) + "\n"
    payload = json.loads((tmp_path / "results.json").read_text("utf-8"))
    assert payload["fig08"] == json.loads(
        json.dumps(captured["fig08"], default=str)
    )


def _run(tmp_path, scale, *only):
    run_all.main(["--scale", scale, "--only", *only, "--out", str(tmp_path)])
    return json.loads((tmp_path / "results.json").read_text("utf-8"))


def test_partial_run_into_other_scale_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("GRAMER_JOBS", raising=False)
    before = _run(tmp_path, "tiny", "table2")
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "small", "table4")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--scale tiny" in err and "--scale small" in err
    after = json.loads((tmp_path / "results.json").read_text("utf-8"))
    assert after == before
    assert not (tmp_path / "table4.txt").exists()


def test_same_scale_partial_run_keeps_wall_seconds(tmp_path, monkeypatch):
    monkeypatch.delenv("GRAMER_JOBS", raising=False)
    first = _run(tmp_path, "tiny", "table2")
    second = _run(tmp_path, "tiny", "table4")
    assert second["wall_seconds"] == first["wall_seconds"]
    assert second["scale"] == "tiny"
    assert second["table2"] == first["table2"]
    assert "table4" in second
