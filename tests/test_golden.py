"""Every layer's outputs against the digests in golden.sha256 (see golden.py).

A failure names the layer whose outputs changed.  To see which lines, run
`python tests/golden.py --dump DIR` here and on the parent commit, and diff
the two directories.
"""

import pytest

import golden


@pytest.fixture(scope="module")
def digests():
    return golden.build().digests()


def test_digest_file_names_every_layer():
    assert list(golden.read_digests()) == list(golden.LAYERS)


@pytest.mark.parametrize("layer", golden.LAYERS)
def test_layer_outputs_unchanged(digests, layer):
    assert digests[layer] == golden.read_digests()[layer]
