"""run_all computes each experiment once and reports that one result."""

import json

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
