package rx

// DefaultStepLimit bounds backtracking work per match attempt; pathological
// patterns fail the match (Ok=false) rather than hanging the lab.
const DefaultStepLimit = 10_000_000

type matcher struct {
	prog  []inst
	s     []byte
	caps  []int
	steps int
	limit int
	depth int
}

// maxDepth bounds backtracking recursion so pathological patterns fail the
// match instead of exhausting the goroutine stack.
const maxDepth = 100_000

// run executes the backtracking VM from pc at subject position sp.
func (m *matcher) run(pc, sp int) bool {
	m.depth++
	defer func() { m.depth-- }()
	if m.depth > maxDepth {
		m.steps = m.limit + 1
		return false
	}
	for {
		m.steps++
		if m.steps > m.limit {
			return false
		}
		in := &m.prog[pc]
		switch in.op {
		case opChar:
			if sp >= len(m.s) || m.s[sp] != in.c {
				return false
			}
			sp++
			pc++
		case opAny:
			if sp >= len(m.s) || m.s[sp] == '\n' {
				return false
			}
			sp++
			pc++
		case opClass:
			if sp >= len(m.s) || !in.set.has(m.s[sp]) {
				return false
			}
			sp++
			pc++
		case opBOL:
			if sp != 0 {
				return false
			}
			pc++
		case opEOL:
			if sp != len(m.s) {
				return false
			}
			pc++
		case opJmp:
			pc = in.x
		case opSplit:
			if m.run(in.x, sp) {
				return true
			}
			pc = in.y
		case opSave:
			old := m.caps[in.x]
			m.caps[in.x] = sp
			if m.run(pc+1, sp) {
				return true
			}
			m.caps[in.x] = old
			return false
		case opMatch:
			return true
		default:
			return false
		}
	}
}

func (re *Regexp) matchAt(s []byte, from, limit int) Match {
	m := &matcher{prog: re.prog, s: s, limit: limit}
	m.caps = make([]int, 2*(re.ncap+1))
	for i := range m.caps {
		m.caps[i] = -1
	}
	ok := m.run(0, from)
	res := Match{Ok: ok, Steps: m.steps}
	if ok {
		res.Caps = m.caps
	}
	return res
}

// Search finds the leftmost match at or after from.  The step budget is
// shared across all start positions, so pathological patterns cost at most
// DefaultStepLimit steps per search, not per position.
func (re *Regexp) Search(s []byte, from int) Match {
	total := 0
	for at := from; at <= len(s); at++ {
		m := re.matchAt(s, at, DefaultStepLimit-total)
		total += m.Steps
		if m.Ok {
			m.Steps = total
			return m
		}
		if total >= DefaultStepLimit {
			break
		}
		// A pattern anchored at ^ can only match at position 0.
		if len(re.prog) > 1 && re.prog[1].op == opBOL {
			break
		}
	}
	return Match{Steps: total}
}

// MatchString reports whether the pattern matches anywhere in s.
func (re *Regexp) MatchString(s string) Match {
	return re.Search([]byte(s), 0)
}

// ReplaceAll substitutes every match in s with the expansion of repl, where
// $0..$9 (and $& for the whole match) refer to capture groups.  It returns
// the new text, the number of substitutions, and the total engine steps.
func (re *Regexp) ReplaceAll(s []byte, repl []byte, global bool) (out []byte, n, steps int) {
	pos := 0
	for pos <= len(s) {
		m := re.Search(s, pos)
		steps += m.Steps
		if !m.Ok {
			break
		}
		start, end := m.Caps[0], m.Caps[1]
		out = append(out, s[pos:start]...)
		out = append(out, expand(repl, s, m)...)
		n++
		if end == start {
			// Empty match: avoid an infinite loop.
			if start < len(s) {
				out = append(out, s[start])
			}
			pos = end + 1
		} else {
			pos = end
		}
		if !global {
			break
		}
	}
	if pos < len(s) {
		out = append(out, s[pos:]...)
	}
	return out, n, steps
}

// expand materializes a replacement template against a match.
func expand(repl, s []byte, m Match) []byte {
	var out []byte
	for i := 0; i < len(repl); i++ {
		c := repl[i]
		if c != '$' || i+1 >= len(repl) {
			out = append(out, c)
			continue
		}
		i++
		d := repl[i]
		switch {
		case d == '&':
			out = append(out, m.Group(s, 0)...)
		case d >= '0' && d <= '9':
			out = append(out, m.Group(s, int(d-'0'))...)
		default:
			out = append(out, '$', d)
		}
	}
	return out
}
