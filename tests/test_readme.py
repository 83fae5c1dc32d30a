"""The README's code examples name what the package has."""

import ast
import json
import re
from pathlib import Path

import channel_spectra
from channel_spectra.channel import POTENTIAL, potential_from_dict

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", _README, flags=re.M | re.S)


def _json_values(text):
    """Every JSON value in a block, which may hold several one after another."""
    decoder = json.JSONDecoder()
    pos = 0
    while (pos := text.find("{", pos)) >= 0:
        value, pos = decoder.raw_decode(text, pos)
        yield value


def _potentials(value):
    if isinstance(value, dict):
        if "kind" in value:
            yield value
        value = list(value.values())
    if isinstance(value, list):
        for sub in value:
            yield from _potentials(sub)


def test_readme_python_imports_exist():
    names = []
    for lang, body in _BLOCKS:
        if lang != "python":
            continue
        for node in ast.walk(ast.parse(body)):
            if isinstance(node, ast.ImportFrom) and node.module == "channel_spectra":
                names += [alias.name for alias in node.names]
    assert names, "no channel_spectra import in a README python block"
    missing = [n for n in names if not hasattr(channel_spectra, n)]
    assert not missing


def test_readme_potential_examples_parse():
    examples = []
    for lang, body in _BLOCKS:
        if lang == "json":
            for value in _json_values(body):
                examples += _potentials(value)
        elif lang == "sh":
            examples += map(json.loads, re.findall(r"potential=(\{.*?\})'", body))
    for example in examples:
        potential_from_dict(example)
    # one example per kind, so a new kind cannot go undocumented
    assert {e["kind"] for e in examples} == set(POTENTIAL.schemas)
