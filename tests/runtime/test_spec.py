"""JobSpec/JobResult invariants."""

import hashlib
import pickle

import pytest

from repro.mining.patterns import PatternCode
from repro.runtime.executor import run_spec
from repro.runtime.spec import JobResult, failed_result, json_safe_keys, make_jobspec


class TestJobSpec:
    def test_requires_exactly_one_graph_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            make_jobspec("gramer", "3-CF")
        with pytest.raises(ValueError, match="exactly one"):
            make_jobspec("gramer", "3-CF", dataset="p2p", graph_path="x.txt")

    def test_config_normalized_sorted(self):
        a = make_jobspec("gramer", "3-CF", dataset="p2p",
                         config={"num_pus": 2, "lam": 0.5})
        b = make_jobspec("gramer", "3-CF", dataset="p2p",
                         config={"lam": 0.5, "num_pus": 2})
        assert a == b
        assert a.config == (("lam", 0.5), ("num_pus", 2))

    def test_non_scalar_override_rejected(self):
        with pytest.raises(TypeError, match="scalar"):
            make_jobspec("gramer", "3-CF", dataset="p2p",
                         config={"bad": [1, 2]})

    def test_hashable_and_picklable(self):
        spec = make_jobspec("gramer", "3-CF", dataset="p2p", scale="tiny")
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))

    def test_cache_key_covers_result_determining_fields(self):
        base = make_jobspec("gramer", "3-CF", dataset="p2p", scale="tiny")
        for other in (
            make_jobspec("fractal", "3-CF", dataset="p2p", scale="tiny"),
            make_jobspec("gramer", "4-CF", dataset="p2p", scale="tiny"),
            make_jobspec("gramer", "3-CF", dataset="mico", scale="tiny"),
            make_jobspec("gramer", "3-CF", dataset="p2p", scale="small"),
            make_jobspec("gramer", "3-CF", dataset="p2p", scale="tiny",
                         config={"num_pus": 2}),
            make_jobspec("gramer", "3-CF", dataset="p2p", scale="tiny", seed=1),
        ):
            assert base.cache_key() != other.cache_key()

    def test_label_names_backend_app_graph(self):
        spec = make_jobspec("rstream", "4-MC", dataset="lj", scale="full")
        assert spec.label() == "rstream:4-MC@lj/full"


class TestJobResult:
    def _result(self, **overrides):
        spec = make_jobspec("gramer", "3-CF", dataset="p2p", scale="tiny")
        fields = dict(
            spec=spec, system="GRAMER", ok=True, seconds=1.0,
            energy_j=2.0, detail={"cycles": 10}, wall_seconds=0.5,
        )
        fields.update(overrides)
        return JobResult(**fields)

    def test_fingerprint_ignores_wall_time_and_cache_flag(self):
        a = self._result(wall_seconds=0.1)
        b = self._result(wall_seconds=9.9).as_cached()
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_sees_deterministic_fields(self):
        assert (
            self._result(seconds=1.0).fingerprint()
            != self._result(seconds=2.0).fingerprint()
        )
        assert (
            self._result(detail={"cycles": 10}).fingerprint()
            != self._result(detail={"cycles": 11}).fingerprint()
        )

    def test_software_fingerprint_is_stable(self):
        # Software results key pattern counts by PatternCode, which
        # json.dumps rejects as a dict key; the fingerprint stringifies it.
        spec = make_jobspec("software", "3-CF", dataset="citeseer", scale="tiny")
        first = run_spec(spec, use_cache=False).fingerprint()
        assert first == run_spec(spec, use_cache=False).fingerprint()
        assert '"<triangle>":6' in first

    def test_gramer_fingerprint_bytes_unchanged(self):
        # Manifests attest sha256(fingerprint); this digest was recorded
        # before software results became fingerprintable, so results that
        # fingerprinted then still hash to the same bytes.
        spec = make_jobspec("gramer", "3-CF", dataset="citeseer", scale="tiny")
        fingerprint = run_spec(spec, use_cache=False).fingerprint()
        assert hashlib.sha256(fingerprint.encode("utf-8")).hexdigest() == (
            "e7445659a6a1254dd817ca5250f961ac4bdb1b88a8257c61daebf6e51afbe193"
        )

    def test_json_safe_keys_only_converts_rejected_keys(self):
        code = PatternCode(size=3, adjacency=7, labels=(0, 0, 0))
        payload = {"a": (1, {2: {code: 6}}), 1.5: None, None: [True]}
        assert json_safe_keys(payload) == {
            "a": [1, {2: {str(code): 6}}],
            1.5: None,
            None: [True],
        }

    def test_failed_result_captures_exception(self):
        spec = make_jobspec("gramer", "3-CF", dataset="p2p")
        failure = failed_result(spec, ValueError("boom"))
        assert not failure.ok
        assert failure.seconds is None
        assert failure.error == "ValueError: boom"
        assert failure.detail["error_type"] == "ValueError"
