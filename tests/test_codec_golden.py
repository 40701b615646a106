"""Golden codec payloads and synthetic fail logs: their bytes are pinned.

The U, ADI, order and curve stages are cached as JSON payloads, and a
cache file written by one version of the code must serve the next.
These cases run the flow on a fixed generator circuit for both fault
models and hash the canonical JSON (:func:`repro.flow.cache.
canonical_json`) of the ``U`` payload (with and without
``prune_useless``), of the ADI payload and every order's permutation
payload (both ADI modes), and of every order's coverage-curve payload.
Any change to the first detections, the hex detection masks, the payload
keys, the ADI reduction, an order or a curve moves a digest.

The synthetic fail log of :func:`repro.diagnosis.random_fail_log` feeds
the diagnosis benchmark, so its seeded draw is pinned too: the device
masks, the true positions and the failing outputs.
"""

import hashlib

import pytest

from repro.adi import ORDERS
from repro.diagnosis import build_pass_fail_dictionary, random_fail_log
from repro.flow import (
    AdiSpec,
    CircuitSpec,
    FaultModelSpec,
    Flow,
    FlowConfig,
    USpec,
)
from repro.flow import serialize
from repro.flow.cache import canonical_json

MODELS = ("stuck_at", "transition")
MODES = ("minimum", "average")


def _flow(model: str, mode: str = "minimum",
          prune_useless: bool = False) -> Flow:
    return Flow(FlowConfig(
        circuit=CircuitSpec(kind="generator", name="codec", num_inputs=10,
                            num_gates=80, num_outputs=4, gen_seed=7),
        fault_model=FaultModelSpec(name=model),
        u=USpec(max_vectors=256, prune_useless=prune_useless),
        adi=AdiSpec(mode=mode),
        seed=2005,
    ))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: (model, mode) -> (ADI payload sha256, order payloads sha256).
GOLDEN_PAYLOADS = {
    ("stuck_at", "minimum"): (
        "c7ed976cd56a3c6b337b2182e9617e480097328649c33674c79f5f935f54b263",
        "4cf25df405e0152cba7d5be618a5610785bffeaece0531b29d39db2e09df09aa"),
    ("stuck_at", "average"): (
        "357ca61db12215fdbc3397adc7671bb8080cdbea20f6067a91433e640b1d3d77",
        "12a8492ae367fba96b6369502f7d3caa98cf82f6c78024833c54fb609365de0b"),
    ("transition", "minimum"): (
        "09d86685583a9a84695d1b951e59d58460081047b800e45a28e32c37776fe6eb",
        "706cac6dd2ea213d1b766edc649c1e50f410d7edae90b5ffcae575fcf2b80269"),
    ("transition", "average"): (
        "f659b686136f4404662cfa2dcf9a38344189c2636dd2802cf08cfad64e8e3bfd",
        "138bb434950c9ab007b2356d9481b978ecbd49a5e6bcba7f81bcd0143bf32f3c"),
}

#: (model, prune_useless) -> sha256 of the U selection payload.
GOLDEN_SELECTIONS = {
    ("stuck_at", False):
        "208d6b5addcaec21d2e3fa8fc08d2e8f0b301cdcffaa8fa89733559062ed9322",
    ("stuck_at", True):
        "f6e8afbaf00d9766e937dc172f82c29f16e5363abbe12b7d529229a970e72774",
    ("transition", False):
        "989f8d8e15669e899c8fc71a1505f8f1a72d6878c62a896db7d1cb11004c1a25",
    ("transition", True):
        "c5144c76f1a42c537e157ce6c1c2fa68b45f9cefdf081669f9e2f54346fc19fa",
}

#: model -> sha256 of every order's curve payload.
GOLDEN_CURVES = {
    "stuck_at":
        "b7f302d031ff7b8b28104c95babad8fc004aef4a7ef8a44c6068c1df38ca83a8",
    "transition":
        "e139676763e338e3384b2703e1b8aa5f378ac34dd22eec96536f86c00b1b7702",
}

#: model -> sha256 of the seeded synthetic fail log.
GOLDEN_LOGS = {
    "stuck_at":
        "24b71e898c5d68928431cfc07da0daf42e49e96e5c7759515a0c144d99657693",
    "transition":
        "8c991382387e6dc50d48759333e1108ac41466de360fbc1f76d6cec074aef7f9",
}


def _payload_digests(model: str, mode: str):
    flow = _flow(model, mode)
    adi = canonical_json(serialize.adi_to_json(flow.adi()))
    orders = canonical_json({
        name: serialize.permutation_to_json(flow.permutation(name))
        for name in sorted(ORDERS)
    })
    return _sha(adi), _sha(orders)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mode", MODES)
def test_payloads_match_golden(model, mode):
    assert _payload_digests(model, mode) == GOLDEN_PAYLOADS[(model, mode)]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mode", MODES)
def test_adi_payload_round_trips(model, mode):
    flow = _flow(model, mode)
    payload = serialize.adi_to_json(flow.adi())
    restored = serialize.adi_from_json(payload, tuple(flow.faults()))
    assert serialize.adi_to_json(restored) == payload
    assert (restored.adi == flow.adi().adi).all()
    assert (restored.ndet == flow.adi().ndet).all()


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("prune_useless", (False, True))
def test_selection_payload_matches_golden(model, prune_useless):
    flow = _flow(model, prune_useless=prune_useless)
    payload = serialize.selection_to_json(flow.selection(), flow.faults())
    assert (_sha(canonical_json(payload))
            == GOLDEN_SELECTIONS[(model, prune_useless)])


@pytest.mark.parametrize("model", MODELS)
def test_curve_payloads_match_golden(model):
    flow = _flow(model)
    curves = canonical_json({
        name: serialize.curve_to_json(flow.report(name))
        for name in sorted(ORDERS)
    })
    assert _sha(curves) == GOLDEN_CURVES[model]


def _log_digest(model: str) -> str:
    flow = _flow(model)
    circ = flow.circuit()
    dictionary = build_pass_fail_dictionary(circ, flow.faults(),
                                            flow.tests().tests)
    log = random_fail_log(dictionary, 64, seed=17, drop_probability=0.25,
                          circ=circ)
    return _sha("\n".join([
        repr([log.observed_mask(d) for d in range(log.num_devices)]),
        repr(list(log.true_positions)),
        repr(list(log.failing_outputs)),
    ]))


@pytest.mark.parametrize("model", MODELS)
def test_synthetic_fail_log_matches_golden(model):
    assert _log_digest(model) == GOLDEN_LOGS[model]
