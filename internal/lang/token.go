// Package lang is the front end for the small loop language the paper's
// examples are written in (Figures 3, 5, 7, 9, 11, 12): integer arrays,
// nested for-loops annotated "do seq" or "do par", if-statements and
// arithmetic assignments.
package lang

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexical tokens.
type tokKind int

// Token kinds.
const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokKeyword // int for if else do seq par
	tokPunct   // ( ) { } [ ] ; , = + - * / % ++ += < <= > >= == !=
)

// token is a lexical token with source position (1-based line/column).
type token struct {
	Kind tokKind
	Text string
	Val  int64
	line int
	col  int
}

func (t token) String() string {
	switch t.Kind {
	case tokEOF:
		return "end of input"
	case tokNumber:
		return fmt.Sprintf("number %d", t.Val)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

var keywords = map[string]bool{
	"int": true, "for": true, "if": true, "else": true,
	"do": true, "seq": true, "par": true, "then": true,
}

// lexer turns source text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("lang: %d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			for l.pos < len(l.src) && !(l.peek() == '*' && l.peek2() == '/') {
				l.advance()
			}
			if l.pos >= len(l.src) {
				return token{}, l.errf("unterminated block comment")
			}
			l.advance()
			l.advance()
		default:
			return l.scan()
		}
	}
	return token{Kind: tokEOF, line: l.line, col: l.col}, nil
}

func (l *lexer) scan() (token, error) {
	line, col := l.line, l.col
	c := l.peek()
	switch {
	case unicode.IsLetter(rune(c)) || c == '_':
		var sb strings.Builder
		for l.pos < len(l.src) {
			c := l.peek()
			if unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_' {
				sb.WriteByte(l.advance())
			} else {
				break
			}
		}
		text := sb.String()
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{Kind: kind, Text: text, line: line, col: col}, nil
	case unicode.IsDigit(rune(c)):
		var v int64
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.peek())) {
			v = v*10 + int64(l.advance()-'0')
		}
		return token{Kind: tokNumber, Val: v, Text: fmt.Sprint(v), line: line, col: col}, nil
	default:
		// Multi-character punctuation first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "++", "+=", "<=", ">=", "==", "!=":
			l.advance()
			l.advance()
			return token{Kind: tokPunct, Text: two, line: line, col: col}, nil
		}
		switch c {
		case '(', ')', '{', '}', '[', ']', ';', ',', '=', '+', '-', '*', '/', '%', '<', '>':
			l.advance()
			return token{Kind: tokPunct, Text: string(c), line: line, col: col}, nil
		}
		return token{}, l.errf("unexpected character %q", string(c))
	}
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == tokEOF {
			return out, nil
		}
	}
}
