"""The lexer's output is pinned: token stream digest and every LexError.

The digest covers (kind, value, location) of every token of the bundled
suite and of 300 generated programs.  It and the error table below were
computed with the earlier character-at-a-time lexer, so the one-pattern
scanner must reproduce that lexer token for token.  The only rows that
changed are the digits that ``str.isdigit`` accepts and ``int`` rejects
(such as '²'): they used to escape as ``ValueError`` and are now
"malformed number" at the literal.
"""

import hashlib

import pytest

from repro.bench import registry
from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.qa.generator import generate_program

FUZZ_SEEDS = 300
STREAM_DIGEST = "f1d1ac9366b8a07a8f0f6a78039606f4c5433f532e63dbc6faf8901cbe5970c2"
STREAM_TOKENS = 145033

#: (source, message, line, column), as the earlier lexer raised them.
LEX_ERRORS = [
    ("12ab", "malformed number", 1, 3),
    ('"oops', "unterminated text literal", 1, 1),
    ("'ab'", "char literal must contain one character", 1, 1),
    ("@", "unexpected character '@'", 1, 1),
    ("(* never closed", "unterminated comment", 1, 1),
    ("abc\n  @", "unexpected character '@'", 2, 3),
    ("x := 12ab;", "malformed number", 1, 8),
    ("x\n  := 1a;", "malformed number", 2, 7),
    ('"a\\qb"', "bad escape '\\q'", 1, 1),
    ('"tab\\', "bad escape '\\'", 1, 1),
    ("'", "unterminated char literal", 1, 1),
    ("'\n'", "unterminated char literal", 1, 1),
    ("''", "char literal must contain one character", 1, 1),
    ("'\\z'", "bad escape '\\z'", 1, 1),
    ("'\\", "bad escape '\\'", 1, 1),
    ("x (* a (* b *) c", "unterminated comment", 1, 3),
    ("(* (* *)", "unterminated comment", 1, 1),
    ("(* x *)(*)", "unterminated comment", 1, 8),
    ("a $ b", "unexpected character '$'", 1, 3),
    ("x := ~1;", "unexpected character '~'", 1, 6),
    ("x := 1.5e;", "malformed number", 1, 9),
    ('"line\nbreak"', "unterminated text literal", 1, 1),
    ("MODULE M;\n\t\t`", "unexpected character '`'", 2, 3),
    ("é := 1; ¬", "unexpected character '¬'", 1, 9),
    ("x := ²a;", "malformed number", 1, 7),
    ("½", "unexpected character '½'", 1, 1),
    ("Ⅷ", "unexpected character 'Ⅷ'", 1, 1),
    ("a\r\n  @", "unexpected character '@'", 2, 3),
    ("(*\n\n*) \n  @", "unexpected character '@'", 4, 3),
    ("x := 3\xa0;", "unexpected character '\\xa0'", 1, 7),
    ("x\x0c", "unexpected character '\\x0c'", 1, 2),
    ("٣٤ ٣a", "malformed number", 1, 5),
    ("abc² @", "unexpected character '@'", 1, 6),
    ("_x1 été @", "unexpected character '@'", 1, 9),
    ('"ok" \'c\' "\\t\\n\\\\\\"\\\'\\0\\r" @', "unexpected character '@'", 1, 27),
    ("'\\'", "char literal must contain one character", 1, 1),
    # The earlier lexer raised ValueError from int() on these.
    ("x := ²;", "malformed number", 1, 6),
    ("x := 1²;", "malformed number", 1, 6),
    ("x := 12²3;", "malformed number", 1, 6),
    ("①", "malformed number", 1, 1),
]


def test_token_stream_digest_is_pinned():
    sources = [(name, registry.load_source(name))
               for name in registry.benchmark_names()]
    sources += [("s{}".format(seed), generate_program(seed).render())
                for seed in range(FUZZ_SEEDS)]
    digest = hashlib.sha256()
    count = 0
    for unit, source in sources:
        for tok in tokenize(source, unit):
            digest.update("{}\t{!r}\t{}:{}:{}\n".format(
                tok.kind.name, tok.value, tok.loc.unit, tok.loc.line,
                tok.loc.column).encode())
            count += 1
    assert (digest.hexdigest(), count) == (STREAM_DIGEST, STREAM_TOKENS)


@pytest.mark.parametrize("source,message,line,column", LEX_ERRORS)
def test_lex_error_message_and_location(source, message, line, column):
    with pytest.raises(LexError) as err:
        tokenize(source, "c.m3")
    assert (err.value.message, err.value.loc.unit, err.value.loc.line,
            err.value.loc.column) == (message, "c.m3", line, column)


def test_words_outside_ascii_follow_str_methods():
    toks = tokenize("été_2 ٣٤ 12 MODULEé")
    assert [(t.kind.name, t.value, t.loc.column) for t in toks] == [
        ("IDENT", "été_2", 1), ("INT", 34, 7), ("INT", 12, 10),
        ("IDENT", "MODULEé", 13), ("EOF", "", 20),
    ]
