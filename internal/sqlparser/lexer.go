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
	tokSymbol // punctuation and operators
)

// token is one lexeme: its kind and the bytes [pos, end) of the statement it
// covers, the quotes included for a string literal. Offsets are 32-bit so
// that the token slice of a statement stays a few cache lines.
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

// lex tokenizes the whole input up front, so that a lexical error anywhere
// in the statement is reported before any grammatical one; SQL statements
// are short enough that a token slice, sized once, is simpler than a
// streaming scanner.
func lex(src string) ([]token, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("sql: statement of %d bytes is too long", len(src))
	}
	toks := make([]token, 0, len(src)/2+1)
	pos := 0
	for {
		pos = skipSpace(src, pos)
		if pos >= len(src) {
			return append(toks, token{tokEOF, int32(pos), int32(pos)}), nil
		}
		start, kind := pos, tokSymbol
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
				return nil, fmt.Errorf("sql: malformed number %q at offset %d", src[start:pos], start)
			}
		case c == '\'':
			kind = tokString
			pos++
			for pos < len(src) && src[pos] != '\'' {
				pos++
			}
			if pos >= len(src) {
				return nil, fmt.Errorf("sql: unterminated string literal at offset %d", start)
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
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
		}
		toks = append(toks, token{kind, int32(start), int32(pos)})
	}
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
