"""Differential: the regex front end against the reference parser.

``reference_parser`` is the character-at-a-time lexer and parser the
package used before.  Every input below goes through both, and the
outcomes must be identical: the same AST down to each value's
``number`` and ``quoted`` (``Value`` equality compares text only), or
the same :class:`RSLSyntaxError` message and position.  ``tokenize``
is held to the reference token stream too.

The inputs (over 10k, seeded):

* the submit texts of the three benchmark traffic mixes;
* the assertions of generated policies and of the NFC scenario;
* generated specifications and multi-requests with quoted values,
  variable references and concatenations, half of them then broken;
* structured noise built from quotes, doubled quotes, ``$(``, ``#``,
  ``&``/``+`` inside words, vertical tabs and form feeds.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
import time
from pathlib import Path
from typing import Iterator, List

import pytest

from repro.rsl.ast import Concatenation, MultiRequest, Specification, Value
from repro.rsl.errors import RSLSyntaxError
from repro.rsl.lexer import TokenType, scan, tokenize
from repro.rsl.parser import parse_rsl
from repro.workloads.generator import PolicyShape, generate_policy
from repro.workloads.scenarios import NFC_LOCAL_POLICY, NFC_VO_POLICY

from tests.rsl import reference_parser as reference

MIXES_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "mixes.py"

#: Submit texts taken from each traffic mix.
SUBMITS_PER_MIX = 1500
STRUCTURED_INPUTS = 3000
NOISE_INPUTS = 6000

NOISE_PIECES = (
    "&", "+", "(", ")", "=", "!=", "<", "<=", ">", ">=", "!", "#",
    " ", "\t", "\n", "\x0b", "\x0c",
    '"', "'", '""', "''", '"a""b"', "'it''s'",
    "$(", "$(HOME)", "$( )", "$", ")$(",
    "a", "b1", "42", "-4.5", "1e3", "nan", "inf", "1_0",
    "a&b", "x+y", "a&", "+b", "&(", "+(",
    "/O=Grid/CN=Bo Liu", "NULL", "self", "\xa0", "٣",
)


def _load_mixes():
    spec = importlib.util.spec_from_file_location("perfbench_mixes", MIXES_PATH)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def mix_submits() -> List[str]:
    mixes = _load_mixes()
    texts: List[str] = []
    for mix in mixes.MIXES.values():
        inputs = mix.inputs(1, "small")
        submits = (
            step.rsl for step in mix.stream(inputs, 1) if isinstance(step, mixes.Submit)
        )
        texts.extend(itertools.islice(submits, SUBMITS_PER_MIX))
    return texts


def policy_assertions() -> List[str]:
    policies = [
        generate_policy(
            PolicyShape(
                users=120,
                statements_per_user=1,
                assertions_per_statement=3,
                relations_per_assertion=relations,
                group_requirements=2,
                seed=seed,
            )
        )
        for seed, relations in ((1, 2), (2, 4), (3, 6))
    ]
    texts = [
        str(assertion.spec)
        for policy in policies
        for statement in policy.statements
        for assertion in statement.assertions
    ]
    for body in (NFC_VO_POLICY, NFC_LOCAL_POLICY):
        for line in body.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("&("):
                texts.append(line)
    return texts


def noise(count: int, seed: int = 15) -> Iterator[str]:
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(
            rng.choice(NOISE_PIECES) for _ in range(rng.randint(0, 16))
        )


def _structured_value(rng: random.Random) -> str:
    atoms = (
        rng.choice(("x", "4", "-2.5", "/sandbox/dev", "a&b", "NULL", "1e999")),
        '"' + rng.choice(("", "two words", 'say ""hi""', "(a=b)", "#")) + '"',
        "'" + rng.choice(("", "it''s", "x y")) + "'",
        "$(" + rng.choice(("HOME", " USER ", "GLOBUS_LOCATION")) + ")",
    )
    parts = [rng.choice(atoms) for _ in range(rng.choice((1, 1, 1, 2, 3)))]
    return rng.choice(("#", " # ")).join(parts)


def structured(count: int, seed: int = 16) -> Iterator[str]:
    """Well-formed specifications and multi-requests, half of them
    then broken by one deletion, insertion or truncation."""
    rng = random.Random(seed)
    gap = (" ", "", "", "\t", "\n ")
    for _ in range(count):
        def spec() -> str:
            relations = "".join(
                f"({rng.choice(gap)}{rng.choice(('count', 'Executable', 'jobtag'))}"
                f"{rng.choice(gap)}{rng.choice(('=', '!=', '<', '<=', '>', '>='))}"
                + " ".join(_structured_value(rng) for _ in range(rng.randint(1, 3)))
                + f"{rng.choice(gap)})"
                for _ in range(rng.randint(1, 4))
            )
            return rng.choice(("&", "& ", "")) + relations

        if rng.random() < 0.3:
            text = "+" + "".join(f"({spec()})" for _ in range(rng.randint(1, 3)))
        else:
            text = spec()
        if rng.random() < 0.5 and text:
            at = rng.randrange(len(text))
            mutation = rng.randrange(3)
            if mutation == 0:
                text = text[:at] + text[at + 1:]
            elif mutation == 1:
                text = text[:at] + rng.choice(NOISE_PIECES) + text[at:]
            else:
                text = text[:at]
        yield text


def _values(node) -> list:
    specs = [node] if isinstance(node, Specification) else list(node)
    out = []
    for spec in specs:
        for relation in spec.relations:
            for value in relation.values:
                parts = value.parts if isinstance(value, Concatenation) else (value,)
                out.append(
                    [
                        (type(part).__name__, str(part))
                        + (
                            (part.number, part.quoted)
                            if isinstance(part, Value)
                            else ()
                        )
                        for part in parts
                    ]
                )
    return out


def outcome(parse, text: str):
    try:
        node = parse(text)
    except RSLSyntaxError as exc:
        return ("error", str(exc), exc.position)
    return ("ok", type(node), node, _values(node))


def tokens(lex, text: str):
    try:
        return lex(text)
    except RSLSyntaxError as exc:
        return ("error", str(exc), exc.position)


@pytest.fixture(scope="module")
def inputs() -> List[str]:
    return (
        mix_submits()
        + policy_assertions()
        + list(structured(STRUCTURED_INPUTS))
        + list(noise(NOISE_INPUTS))
    )


class TestParserDifferential:
    def test_enough_inputs_of_every_kind(self, inputs):
        assert len(inputs) >= 10_000
        kinds = [outcome(parse_rsl, text)[:2] for text in inputs]
        # Both paths are exercised in volume, and multi-requests too.
        assert sum(kind == "ok" for kind, _ in kinds) > 4000
        assert sum(kind == "error" for kind, _ in kinds) > 2000
        assert ("ok", MultiRequest) in kinds

    def test_zero_divergences(self, inputs):
        divergences = []
        for text in inputs:
            expected = outcome(reference.parse_rsl, text)
            actual = outcome(parse_rsl, text)
            if expected != actual:
                divergences.append((text, expected, actual))
        assert divergences == [], divergences[:5]

    def test_token_streams_match(self, inputs):
        divergences = [
            text
            for text in inputs
            if tokens(reference.tokenize, text) != tokens(tokenize, text)
        ]
        assert divergences == [], divergences[:5]

    @pytest.mark.parametrize(
        "text",
        [
            '&(a="x""y")',
            '&(a="x""")',
            '&(a="x"")',
            '&(a="""")(b="',
            "&(a='x''y'')",
            "&(a=$(HOME)#\"/x\")(b=$(",
            "&(a=$( ))",
            "&(a=\x0b)",
            "&(a=b\x0b&c)",
            "&(a=b&)(c=d+)",
            "&(a=١٢)(b=\xa01\xa0)",
            "+(&(a=1))(b=2",
        ],
    )
    def test_edge_cases(self, text):
        assert outcome(parse_rsl, text) == outcome(reference.parse_rsl, text)


class TestScanCost:
    def test_long_whitespace_scans_in_linear_time(self):
        # A scan that rescanned unmatched trailing whitespace from every
        # position would take tens of seconds here, not milliseconds.
        text = "&(a=b)" + " \t\n" * 40_000
        started = time.perf_counter()
        assert [token[0] for token in scan(text)][-1] is TokenType.EOF
        with pytest.raises(RSLSyntaxError, match="unterminated string"):
            scan('&(a="' + "x" * 120_000)
        assert time.perf_counter() - started < 2.0
