"""E10 — Model interchange: faithful, stable and cheap (paper §1).

Claim: MDA tooling rests on MOF/XMI interchange; a round trip must be
lossless (stable fixed point) and scale with model size.

Measured: XML and JSON round-trip stability, document size, and the
time of each write and each read (one call each), across a model-size
sweep up to ~10^4 elements.
"""

import time

import pytest

from repro.mof import Model
from repro.uml import UML
from repro.xmi import read_json, read_xml, write_json, write_xml
from workloads import make_sized_pim

SIZES = [25, 50, 100, 200, 1000]


def wrap(size):
    model = Model(f"urn:pim{size}")
    model.add_root(make_sized_pim(size).model)
    return model


def timed(call):
    """``call()`` and the milliseconds it took."""
    started = time.perf_counter()
    result = call()
    return result, (time.perf_counter() - started) * 1e3


def test_e10_report_and_shape():
    print("\nE10: interchange round trip (ms per call)")
    print(f"{'classes':>8} {'elements':>9} {'xml KiB':>8} {'write':>7} "
          f"{'read':>7} {'json KiB':>9} {'write':>7} {'read':>7}")
    for size in SIZES:
        model = wrap(size)
        elements = sum(1 for _ in model.all_elements())

        xml_text, xml_write_ms = timed(lambda: write_xml(model))
        xml_model, xml_read_ms = timed(lambda: read_xml(xml_text, [UML]))
        json_text, json_write_ms = timed(lambda: write_json(model))
        json_model, json_read_ms = timed(
            lambda: read_json(json_text, [UML]))

        print(f"{size:>8} {elements:>9} {len(xml_text) / 1024:>8.1f} "
              f"{xml_write_ms:>7.2f} {xml_read_ms:>7.2f} "
              f"{len(json_text) / 1024:>9.1f} {json_write_ms:>7.2f} "
              f"{json_read_ms:>7.2f}")
        # losslessness: the round trip is a fixed point
        assert write_xml(xml_model) == xml_text
        assert write_json(json_model) == json_text
        assert sum(1 for _ in xml_model.all_elements()) == elements
        assert sum(1 for _ in json_model.all_elements()) == elements


def test_e10_xml_roundtrip_cost(benchmark):
    model = wrap(100)

    def roundtrip():
        return read_xml(write_xml(model), [UML])
    loaded = benchmark(roundtrip)
    assert loaded.roots


def test_e10_json_roundtrip_cost(benchmark):
    model = wrap(100)

    def roundtrip():
        return read_json(write_json(model), [UML])
    loaded = benchmark(roundtrip)
    assert loaded.roots
