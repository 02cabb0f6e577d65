// Package sqlparser implements a lexer and recursive-descent parser for the
// SQL subset the reproduced system compiles: SELECT queries with inner and
// left-outer joins, derived tables and IN-subqueries (including correlated
// ones, which are decorrelated into joins and marked so the enumerator keeps
// them on the inner side), conjunctive WHERE clauses, GROUP BY and ORDER BY.
//
// The parser produces query.Block values through the same builder the
// workload generators use, so both construction paths share validation.
package sqlparser

import (
	"fmt"
	"math"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // punctuation and operators
	tokInvalid // where scan found a lexical error; the grammar accepts it nowhere
)

// token is one lexeme: its kind and the bytes [pos, end) of the statement it
// covers, the quotes included for a string literal. Offsets are 32-bit;
// lex refuses a longer statement.
type token struct {
	kind     tokenKind
	pos, end int32
}

// Byte classes. The lexer reads bytes, not runes: identifiers are
// [A-Za-z_][A-Za-z0-9_]*, whitespace is the six ASCII characters, and a byte
// of 0x80 and above has no class, so outside a string literal it is an
// unexpected character at its own offset — never half of a Latin-1 letter.
const (
	clsSpace uint8 = 1 << iota
	clsIdentStart
	clsDigit
	clsPunct     // ( ) , . *  — always one byte
	clsCompare   // = < > !   — may take a second byte, = or >
	clsIdentPart = clsIdentStart | clsDigit
)

var class = func() (t [256]uint8) {
	for _, c := range " \t\n\r\v\f" {
		t[c] = clsSpace
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = clsIdentStart, clsIdentStart
	}
	t['_'] = clsIdentStart
	for c := '0'; c <= '9'; c++ {
		t[c] = clsDigit
	}
	for _, c := range "(),.*" {
		t[c] = clsPunct
	}
	for _, c := range "=<>!" {
		t[c] = clsCompare
	}
	return t
}()

// lex reports the statement's first lexical error, or nil. The parser
// scans one token at a time and calls lex only once it has failed, so that
// a lexical error anywhere in the statement is reported before any
// grammatical one without a token list being built for every parse.
func lex(src string) error {
	if len(src) > math.MaxInt32 {
		return fmt.Errorf("sql: statement of %d bytes is too long", len(src))
	}
	for pos := 0; ; {
		t, err := scan(src, pos)
		if err != nil || t.kind == tokEOF {
			return err
		}
		pos = int(t.end)
	}
}

// scan returns the token at or after offset pos: an EOF token at the end of
// the input, an invalid one with the error when the bytes there are not a
// token.
func scan(src string, pos int) (token, error) {
	pos = skipSpace(src, pos)
	if pos >= len(src) {
		return token{tokEOF, int32(pos), int32(pos)}, nil
	}
	start, kind := pos, tokSymbol
	invalid := token{tokInvalid, int32(start), int32(start)}
	switch c := src[pos]; {
	case class[c]&clsIdentStart != 0:
		kind = tokIdent
		for pos < len(src) && class[src[pos]]&clsIdentPart != 0 {
			pos++
		}
	case class[c]&clsDigit != 0:
		// digits[.digits]; the run of digits and dots is consumed whole
		// so that 1.2.3 is one malformed number, not a number and junk.
		kind = tokNumber
		dots, last := 0, c
		for pos < len(src) && (class[src[pos]]&clsDigit != 0 || src[pos] == '.') {
			if last = src[pos]; last == '.' {
				dots++
			}
			pos++
		}
		if dots > 1 || last == '.' {
			return invalid, fmt.Errorf("sql: malformed number %q at offset %d", src[start:pos], start)
		}
	case c == '\'':
		kind = tokString
		pos++
		for pos < len(src) && src[pos] != '\'' {
			pos++
		}
		if pos >= len(src) {
			return invalid, fmt.Errorf("sql: unterminated string literal at offset %d", start)
		}
		pos++
	case class[c]&clsPunct != 0:
		pos++
	case class[c]&clsCompare != 0:
		pos++
		if pos < len(src) && (src[pos] == '=' || src[pos] == '>') {
			pos++
		}
	default:
		return invalid, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
	}
	return token{kind, int32(start), int32(pos)}, nil
}

// skipSpace returns the offset of the first byte at or after pos that is
// neither whitespace nor inside a -- line comment.
func skipSpace(src string, pos int) int {
	for pos < len(src) {
		switch {
		case class[src[pos]]&clsSpace != 0:
			pos++
		case src[pos] == '-' && pos+1 < len(src) && src[pos+1] == '-':
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
		default:
			return pos
		}
	}
	return pos
}
