package workloads

import (
	"fmt"

	"interplab/internal/core"
	"interplab/internal/minicc"
)

// Micro is one Table 1 microbenchmark: the same simple operation iterated
// the same number of times in every system, so slowdowns are ratios of the
// measured costs.
type Micro struct {
	Name  string
	Desc  string
	Iters int
	Progs map[core.System]core.Program
}

func microProg(sys core.System, name string, run func(ctx *core.Ctx) error) core.Program {
	return core.Program{System: sys, Name: "micro-" + name, Desc: "microbenchmark", Run: run}
}

// mkMicro assembles the per-system programs from source generators.
func mkMicro(name, desc string, iters int, cSrc string, perlSrc, tclSrc string) Micro {
	m := Micro{Name: name, Desc: desc, Iters: iters, Progs: map[core.System]core.Program{}}
	m.Progs[core.SysC] = microProg(core.SysC, name, func(ctx *core.Ctx) error {
		installInputs(ctx)
		return runNative(ctx, name, minicc.WithStdlib(cSrc))
	})
	m.Progs[core.SysMIPSI] = microProg(core.SysMIPSI, name, func(ctx *core.Ctx) error {
		installInputs(ctx)
		return runMIPS(ctx, Knobs{}, name, minicc.WithStdlib(cSrc))
	})
	m.Progs[core.SysJava] = microProg(core.SysJava, name, func(ctx *core.Ctx) error {
		installInputs(ctx)
		return runJava(ctx, Knobs{}, name, minicc.WithStdlibJVM(cSrc))
	})
	m.Progs[core.SysPerl] = microProg(core.SysPerl, name, func(ctx *core.Ctx) error {
		installInputs(ctx)
		return runPerl(ctx, Knobs{}, perlSrc)
	})
	m.Progs[core.SysTcl] = microProg(core.SysTcl, name, func(ctx *core.Ctx) error {
		installInputs(ctx)
		return runTcl(ctx, Knobs{}, tclSrc, false)
	})
	return m
}

// Micros returns the Table 1 suite at the given scale.
func Micros(scale float64) []Micro {
	n := func(base int) int {
		v := int(float64(base) * scale)
		if v < 4 {
			v = 4
		}
		return v
	}

	assignN := n(2000)
	assign := mkMicro("a=b+c", "assign the sum of two memory locations to a third", assignN,
		fmt.Sprintf(`
int a; int b; int c;
int main() {
    int i;
    b = 17; c = 25;
    for (i = 0; i < %d; i++) { a = b + c; }
    return a - 42;
}`, assignN),
		fmt.Sprintf(`
$b = 17; $c = 25;
for ($i = 0; $i < %d; $i++) { $a = $b + $c; }
exit($a - 42);
`, assignN),
		fmt.Sprintf(`
set b 17
set c 25
for {set i 0} {$i < %d} {incr i} { set a [expr $b + $c] }
exit [expr $a - 42]
`, assignN))

	ifN := n(2000)
	ifm := mkMicro("if", "conditional assignment", ifN,
		fmt.Sprintf(`
int a; int b; int c;
int main() {
    int i;
    b = 3; c = 9;
    for (i = 0; i < %d; i++) { if (b < c) { a = b; } else { a = c; } }
    return a - 3;
}`, ifN),
		fmt.Sprintf(`
$b = 3; $c = 9;
for ($i = 0; $i < %d; $i++) { if ($b < $c) { $a = $b; } else { $a = $c; } }
exit($a - 3);
`, ifN),
		fmt.Sprintf(`
set b 3
set c 9
for {set i 0} {$i < %d} {incr i} { if {$b < $c} { set a $b } else { set a $c } }
exit [expr $a - 3]
`, ifN))

	procN := n(1200)
	proc := mkMicro("null-proc", "null procedure call", procN,
		fmt.Sprintf(`
int nullp() { return 0; }
int main() {
    int i;
    for (i = 0; i < %d; i++) { nullp(); }
    return 0;
}`, procN),
		fmt.Sprintf(`
sub nullp { return 0; }
for ($i = 0; $i < %d; $i++) { &nullp(); }
`, procN),
		fmt.Sprintf(`
proc nullp {} { return }
for {set i 0} {$i < %d} {incr i} { nullp }
`, procN))

	catN := n(400)
	concat := mkMicro("string-concat", "concatenate two strings", catN,
		fmt.Sprintf(`
char buf[64];
char *x = "interpreted languages";
char *y = " are everywhere now";
int main() {
    int i;
    for (i = 0; i < %d; i++) {
        buf[0] = 0;
        strcat(buf, x);
        strcat(buf, y);
    }
    return strlen(buf) - 40;
}`, catN),
		fmt.Sprintf(`
$x = "interpreted languages";
$y = " are everywhere now";
for ($i = 0; $i < %d; $i++) { $s = $x . $y; }
exit(length($s) - 40);
`, catN),
		fmt.Sprintf(`
set x "interpreted languages"
set y " are everywhere now"
for {set i 0} {$i < %d} {incr i} { set s "$x$y" }
exit [expr [string length $s] - 40]
`, catN))

	splN := n(300)
	split := mkMicro("string-split", "split a string into four component strings", splN,
		fmt.Sprintf(`
char *line = "alpha beta gamma delta";
char p0[16]; char p1[16]; char p2[16]; char p3[16];
int splitter() {
    int i = 0;
    int f = 0;
    int k = 0;
    while (line[i]) {
        int c = line[i];
        if (c == ' ') {
            if (f == 0) p0[k] = 0;
            if (f == 1) p1[k] = 0;
            if (f == 2) p2[k] = 0;
            f++; k = 0;
        } else {
            if (f == 0) p0[k] = c;
            if (f == 1) p1[k] = c;
            if (f == 2) p2[k] = c;
            if (f == 3) p3[k] = c;
            k++;
        }
        i++;
    }
    p3[k] = 0;
    return f + 1;
}
int main() {
    int i;
    int nf = 0;
    for (i = 0; i < %d; i++) { nf = splitter(); }
    return nf - 4;
}`, splN),
		fmt.Sprintf(`
$line = "alpha beta gamma delta";
for ($i = 0; $i < %d; $i++) { @parts = split(/ /, $line); }
exit(scalar(@parts) - 4);
`, splN),
		fmt.Sprintf(`
set line "alpha beta gamma delta"
for {set i 0} {$i < %d} {incr i} { set parts [split $line " "] }
exit [expr [llength $parts] - 4]
`, splN))

	readN := n(60)
	read := mkMicro("read", "read a 4K file from a warm buffer cache", readN,
		fmt.Sprintf(`
char buf[4096];
int main() {
    int i;
    int n = 0;
    for (i = 0; i < %d; i++) {
        int fd = _open("readfile.bin", 0);
        n = _read(fd, buf, 4096);
        _close(fd);
    }
    return n - 4096;
}`, readN),
		fmt.Sprintf(`
for ($i = 0; $i < %d; $i++) {
    open(F, "readfile.bin");
    $data = <F>;
    close(F);
}
exit(length($data) - 4096);
`, readN),
		fmt.Sprintf(`
for {set i 0} {$i < %d} {incr i} {
    set f [open readfile.bin]
    set data [read $f 4096]
    close $f
}
exit [expr [string length $data] - 4096]
`, readN))

	return []Micro{assign, ifm, proc, concat, split, read}
}
