package atom

import "interplab/internal/trace"

// refExec is Probe.Exec as it was before the walk stepped from branch to
// branch: one loop turn per instruction, each row emitted on its own.  It
// is kept as the oracle FuzzExecStream holds Exec to, row for row and
// draw for draw.
func refExec(p *Probe, r *Routine, n int) {
	if n <= 0 {
		return
	}
	p.setCur(r)
	p.account(uint64(n))
	stream := p.stream
	base, size, brEvery, shEvery := r.Base, r.Size, r.branchEvery, r.shortEvery
	cursor, sinceBr, sinceSh := r.cursor, r.sinceBr, r.sinceSh
	var short, br, taken uint64
	for i := 0; i < n; i++ {
		pc := base + uint32(cursor)*4
		cursor++
		sinceBr++
		sinceSh++
		if cursor >= size {
			// Loop back to the routine top: a taken backward branch.
			cursor = 0
			sinceBr = 0
			br++
			taken++
			if stream {
				p.emit(trace.Event{PC: pc, Addr: base, Kind: trace.Branch, Flags: trace.FlagTaken})
			}
			continue
		}
		if sinceBr >= brEvery {
			sinceBr = 0
			br++
			site := (pc>>2)*2654435761 ^ pc>>13
			var isTaken bool
			if site%8 == 0 {
				isTaken = r.next32()&1 != 0 // data-dependent site
			} else {
				isTaken = site&8 != 0 // stable per-site direction
			}
			if !isTaken {
				if stream {
					p.emit(trace.Event{PC: pc, Addr: pc + 16, Kind: trace.Branch})
				}
				continue
			}
			taken++
			// Short backward branch: stay inside the routine.
			back := int((site/16)%uint32(brEvery) + 1)
			if back > cursor {
				back = cursor
			}
			cursor -= back
			if stream {
				p.emit(trace.Event{PC: pc, Addr: base + uint32(cursor)*4, Kind: trace.Branch, Flags: trace.FlagTaken})
			}
			continue
		}
		if sinceSh >= shEvery {
			sinceSh = 0
			short++
			if stream {
				p.emit(trace.Event{PC: pc, Kind: trace.ShortInt})
			}
			continue
		}
		if stream {
			p.emit(trace.Event{PC: pc, Kind: trace.Int})
		}
	}
	r.cursor, r.sinceBr, r.sinceSh = cursor, sinceBr, sinceSh
	k := &p.tally.ByKind
	k[trace.Int] += uint64(n) - short - br
	k[trace.ShortInt] += short
	k[trace.Branch] += br
	p.tally.TakenBr += taken
}
