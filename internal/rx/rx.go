// Package rx is a from-scratch backtracking regular-expression engine — the
// substrate behind the Perl-analog's m// and s/// operators, and Tcl's
// regexp command.  Perl 4's match operator is the dominant virtual command
// in several of the paper's benchmarks (txt2html spends 84% of its execute
// instructions in match); making the engine real means those numbers come
// from actual matching work, not a guess.
//
// Supported syntax: literals, '.', character classes [a-z0-9] (with ^
// negation), escapes (\d \w \s \D \W \S and C escapes), anchors ^ $,
// grouping ( ) with capture, alternation |, and the quantifiers * + ?
// (greedy) applied to the preceding atom.
package rx

import (
	"fmt"
)

type opKind uint8

const (
	opChar  opKind = iota // match one literal byte
	opAny                 // match any byte except newline
	opClass               // match a byte against a class bitmap
	opSplit               // try X then Y (backtrack point)
	opJmp
	opSave // record position in capture slot
	opBOL
	opEOL
	opMatch
)

type inst struct {
	op   opKind
	c    byte
	x, y int
	set  *classSet
}

type classSet struct {
	bits   [32]byte
	negate bool
}

func (cs *classSet) add(c byte) { cs.bits[c>>3] |= 1 << (c & 7) }
func (cs *classSet) addRange(a, b byte) {
	for c := int(a); c <= int(b); c++ {
		cs.add(byte(c))
	}
}
func (cs *classSet) has(c byte) bool {
	in := cs.bits[c>>3]&(1<<(c&7)) != 0
	return in != cs.negate
}

// Regexp is a compiled pattern.
type Regexp struct {
	prog []inst
	ncap int
}

// Groups returns the number of capturing groups.
func (re *Regexp) Groups() int { return re.ncap }

// Match is the result of a match attempt.
type Match struct {
	Ok bool
	// Caps holds 2*(groups+1) offsets: Caps[0]:Caps[1] is the whole
	// match, Caps[2k]:Caps[2k+1] is group k.  Unmatched groups are -1.
	Caps []int
	// Steps counts backtracking-engine steps — the real work performed,
	// which the interpreters charge as native instructions.
	Steps int
}

// Group returns the text of capture group k ("" when unmatched).
func (m Match) Group(s []byte, k int) []byte {
	if !m.Ok || 2*k+1 >= len(m.Caps) || m.Caps[2*k] < 0 {
		return nil
	}
	return s[m.Caps[2*k]:m.Caps[2*k+1]]
}

// --- compiler ----------------------------------------------------------------

type compiler struct {
	pat  string
	pos  int
	prog []inst
	ncap int
}

// Compile parses and compiles a pattern.
func Compile(pattern string) (*Regexp, error) {
	c := &compiler{pat: pattern}
	c.emit(inst{op: opSave, x: 0})
	if err := c.alternation(); err != nil {
		return nil, err
	}
	if c.pos < len(c.pat) {
		return nil, fmt.Errorf("rx: unexpected %q at %d", c.pat[c.pos], c.pos)
	}
	c.emit(inst{op: opSave, x: 1})
	c.emit(inst{op: opMatch})
	return &Regexp{prog: c.prog, ncap: c.ncap}, nil
}

// MustCompile panics on error; for statically known patterns.
func MustCompile(pattern string) *Regexp {
	re, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return re
}

func (c *compiler) emit(in inst) int {
	c.prog = append(c.prog, in)
	return len(c.prog) - 1
}

func (c *compiler) peek() byte {
	if c.pos >= len(c.pat) {
		return 0
	}
	return c.pat[c.pos]
}

// alternation := concat ('|' concat)*
func (c *compiler) alternation() error {
	start := len(c.prog)
	if err := c.concat(); err != nil {
		return err
	}
	for c.peek() == '|' {
		c.pos++
		// Wrap what we have: split(start, alt2); body; jmp end.
		body := append([]inst(nil), c.prog[start:]...)
		c.prog = c.prog[:start]
		sp := c.emit(inst{op: opSplit})
		c.prog = append(c.prog, body...)
		shift(c.prog[sp+1:], 1)
		jp := c.emit(inst{op: opJmp})
		c.prog[sp].x = sp + 1
		c.prog[sp].y = len(c.prog)
		if err := c.concat(); err != nil {
			return err
		}
		c.prog[jp].x = len(c.prog)
	}
	return nil
}

// concat := quantified*
func (c *compiler) concat() error {
	for {
		ch := c.peek()
		if ch == 0 || ch == '|' || ch == ')' {
			return nil
		}
		if err := c.quantified(); err != nil {
			return err
		}
	}
}

// quantified := atom ('*' | '+' | '?')?
func (c *compiler) quantified() error {
	start := len(c.prog)
	if err := c.atom(); err != nil {
		return err
	}
	switch c.peek() {
	case '*':
		c.pos++
		body := append([]inst(nil), c.prog[start:]...)
		c.prog = c.prog[:start]
		sp := c.emit(inst{op: opSplit})
		c.prog = append(c.prog, body...)
		shift(c.prog[sp+1:], 1)
		jp := c.emit(inst{op: opJmp, x: sp})
		_ = jp
		c.prog[sp].x = sp + 1
		c.prog[sp].y = len(c.prog)
	case '+':
		c.pos++
		sp := c.emit(inst{op: opSplit})
		c.prog[sp].x = start
		c.prog[sp].y = len(c.prog)
	case '?':
		c.pos++
		body := append([]inst(nil), c.prog[start:]...)
		c.prog = c.prog[:start]
		sp := c.emit(inst{op: opSplit})
		c.prog = append(c.prog, body...)
		shift(c.prog[sp+1:], 1)
		c.prog[sp].x = sp + 1
		c.prog[sp].y = len(c.prog)
	}
	return nil
}

// shift relocates absolute targets in a copied body by delta.
func shift(body []inst, delta int) {
	for i := range body {
		switch body[i].op {
		case opSplit:
			body[i].x += delta
			body[i].y += delta
		case opJmp:
			body[i].x += delta
		}
	}
}

func (c *compiler) atom() error {
	ch := c.peek()
	switch ch {
	case '(':
		c.pos++
		c.ncap++
		n := c.ncap
		c.emit(inst{op: opSave, x: 2 * n})
		if err := c.alternation(); err != nil {
			return err
		}
		if c.peek() != ')' {
			return fmt.Errorf("rx: missing ) in %q", c.pat)
		}
		c.pos++
		c.emit(inst{op: opSave, x: 2*n + 1})
	case '.':
		c.pos++
		c.emit(inst{op: opAny})
	case '^':
		c.pos++
		c.emit(inst{op: opBOL})
	case '$':
		c.pos++
		c.emit(inst{op: opEOL})
	case '[':
		c.pos++
		set, err := c.class()
		if err != nil {
			return err
		}
		c.emit(inst{op: opClass, set: set})
	case '\\':
		c.pos++
		e := c.peek()
		c.pos++
		if set := escapeClass(e); set != nil {
			c.emit(inst{op: opClass, set: set})
			return nil
		}
		c.emit(inst{op: opChar, c: escapeChar(e)})
	case '*', '+', '?':
		return fmt.Errorf("rx: quantifier %q with nothing to repeat", ch)
	case 0:
		return fmt.Errorf("rx: unexpected end of pattern")
	default:
		c.pos++
		c.emit(inst{op: opChar, c: ch})
	}
	return nil
}

func (c *compiler) class() (*classSet, error) {
	set := &classSet{}
	if c.peek() == '^' {
		set.negate = true
		c.pos++
	}
	first := true
	for {
		ch := c.peek()
		if ch == 0 {
			return nil, fmt.Errorf("rx: missing ] in %q", c.pat)
		}
		if ch == ']' && !first {
			c.pos++
			return set, nil
		}
		first = false
		if ch == '\\' {
			c.pos++
			e := c.peek()
			c.pos++
			if sub := escapeClass(e); sub != nil {
				for b := 0; b < 256; b++ {
					if sub.has(byte(b)) {
						set.add(byte(b))
					}
				}
				continue
			}
			ch = escapeChar(e)
		} else {
			c.pos++
		}
		if c.peek() == '-' && c.pos+1 < len(c.pat) && c.pat[c.pos+1] != ']' {
			c.pos++
			hi := c.peek()
			c.pos++
			if hi == '\\' {
				hi = escapeChar(c.peek())
				c.pos++
			}
			if hi < ch {
				return nil, fmt.Errorf("rx: invalid range %c-%c", ch, hi)
			}
			set.addRange(ch, hi)
		} else {
			set.add(ch)
		}
	}
}

func escapeChar(e byte) byte {
	switch e {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	}
	return e
}

func escapeClass(e byte) *classSet {
	mk := func(fill func(*classSet), neg bool) *classSet {
		s := &classSet{negate: neg}
		fill(s)
		return s
	}
	digits := func(s *classSet) { s.addRange('0', '9') }
	words := func(s *classSet) {
		s.addRange('a', 'z')
		s.addRange('A', 'Z')
		s.addRange('0', '9')
		s.add('_')
	}
	space := func(s *classSet) {
		for _, c := range []byte{' ', '\t', '\n', '\r', '\f', 0x0b} {
			s.add(c)
		}
	}
	switch e {
	case 'd':
		return mk(digits, false)
	case 'D':
		return mk(digits, true)
	case 'w':
		return mk(words, false)
	case 'W':
		return mk(words, true)
	case 's':
		return mk(space, false)
	case 'S':
		return mk(space, true)
	}
	return nil
}
