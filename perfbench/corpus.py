"""Seeded corpora for the benchmark, written as sealed XMI.

Each workload's input is a ``repro.generate`` model at the run's seed,
unrepaired, with the position-derived ids ``generate_model`` assigns,
serialized exactly as ``python -m repro generate -o FILE`` writes it.
The program under test receives only the file.

The corpus at the default seed is pinned: every run regenerates it and
fails if its sha256 or element count moved, so a change to
``repro.generate`` cannot silently change what a workload measures.
"""

import hashlib
import os

from repro.generate import generate_model
from repro.xmi import serialize_model

DEFAULT_SEED = 0

#: shape -> (package, size)
SHAPES = {
    "demo": ("demo", 10_000),
    "uml": ("uml", 5_000),
}

#: shape -> (sha256 of the XMI text, elements) at DEFAULT_SEED
PINNED = {
    "demo": ("b3079a8c4631d4bcc7466efbb68954898eadd1e22957baee6ffbb37c3a65c3fb",
             10_000),
    "uml": ("05c0ab293ed8411dc9bf065d6dc32beaa140356b517288c6cbfa34ef7cebf261",
            5_000),
}


class Corpus:
    """One generated corpus file plus its identity."""

    def __init__(self, shape, seed, path, sha256, elements, model):
        self.shape = shape
        self.seed = seed
        self.path = path
        self.sha256 = sha256
        self.elements = elements
        self.model = model          # the generator's in-memory model


def build(shape, seed, directory):
    """Generate the *shape* corpus at *seed* and write it under
    *directory*; returns a :class:`Corpus`."""
    package, size = SHAPES[shape]
    result = generate_model(package, size=size, seed=seed, repair=False)
    text = serialize_model(result.model)
    path = os.path.join(directory, f"{shape}-seed{seed}.xmi")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return Corpus(shape, seed, path, digest, result.n_elements,
                  result.model)


def pin_problems(corpus, directory):
    """Mismatches of the default-seed corpus of *corpus*'s shape against
    :data:`PINNED` (generated afresh unless *corpus* is that one)."""
    pinned = corpus
    if corpus.seed != DEFAULT_SEED:
        pinned = build(corpus.shape, DEFAULT_SEED, directory)
        os.remove(pinned.path)
    want_sha, want_elements = PINNED[corpus.shape]
    problems = []
    if pinned.sha256 != want_sha:
        problems.append(f"{corpus.shape} corpus at seed {DEFAULT_SEED}: "
                        f"sha256 {pinned.sha256}, pinned {want_sha}")
    if pinned.elements != want_elements:
        problems.append(f"{corpus.shape} corpus at seed {DEFAULT_SEED}: "
                        f"{pinned.elements} elements, pinned "
                        f"{want_elements}")
    return problems
