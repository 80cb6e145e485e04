package workloads

import (
	"fmt"

	"interplab/internal/core"
	"interplab/internal/minicc"
)

// The des reference benchmark: a 16-round Feistel block cipher over 32-bit
// blocks (two 16-bit halves) with a 64-entry S-box and a derived key
// schedule — the same algorithm in every language, like the paper's des.
// Each implementation encrypts, checksums, decrypts and verifies `blocks`
// blocks, prints the checksum, and fails on any mismatch, so cross-language
// agreement is checkable.

// desMiniC is the shared mini-C source (pointer-free, so it compiles for
// both the MIPS and the JVM backends).
func desMiniC(blocks int) string {
	return fmt.Sprintf(`
int SBOX[64];
int KS[16];
int EL;
int ER;

int ffun(int r, int k) {
    int t = (r ^ k) & 0xffff;
    int f = SBOX[t & 63] ^ (SBOX[(t >> 6) & 63] << 4) ^ (SBOX[(t >> 10) & 63] << 8);
    f = f & 0xffff;
    return ((f << 3) | ((f >> 13) & 7)) & 0xffff;
}

void crypt(int l, int r, int dir) {
    int i;
    int t;
    int k;
    for (i = 0; i < 16; i++) {
        if (dir) { k = KS[i]; } else { k = KS[15 - i]; }
        t = r;
        r = (l ^ ffun(r, k)) & 0xffff;
        l = t;
    }
    EL = r;
    ER = l;
}

int main() {
    int i;
    int b;
    int sum = 0;
    int errs = 0;
    for (i = 0; i < 64; i++) SBOX[i] = ((i * 17 + 3) ^ (i / 4)) %% 256;
    KS[0] = 0x3a5a;
    for (i = 1; i < 16; i++) KS[i] = ((KS[i-1] * 5 + 7) ^ (i * 73)) & 0xffff;
    for (b = 0; b < %d; b++) {
        int l = (b * 7919 + 13) & 0xffff;
        int r = (b * 10473 + 17) & 0xffff;
        crypt(l, r, 1);
        int cl = EL;
        int cr = ER;
        sum = (sum + cl * 3 + cr) & 0xffff;
        crypt(cl, cr, 0);
        if (EL != l) errs++;
        if (ER != r) errs++;
    }
    putn(sum);
    putc('\n');
    return errs;
}
`, blocks)
}

func desPerlSrc(blocks int) string {
	return fmt.Sprintf(`
for ($i = 0; $i < 64; $i++) { $SBOX[$i] = (($i * 17 + 3) ^ int($i / 4)) %% 256; }
$KS[0] = 0x3a5a;
for ($i = 1; $i < 16; $i++) { $KS[$i] = (($KS[$i-1] * 5 + 7) ^ ($i * 73)) & 0xffff; }

sub ffun {
    local($r, $k) = @_;
    local($t) = ($r ^ $k) & 0xffff;
    local($f) = $SBOX[$t & 63] ^ ($SBOX[($t >> 6) & 63] << 4) ^ ($SBOX[($t >> 10) & 63] << 8);
    $f = $f & 0xffff;
    return (($f << 3) | (($f >> 13) & 7)) & 0xffff;
}

sub crypt2 {
    local($l, $r, $dir) = @_;
    local($i, $t, $k);
    for ($i = 0; $i < 16; $i++) {
        if ($dir) { $k = $KS[$i]; } else { $k = $KS[15 - $i]; }
        $t = $r;
        $r = ($l ^ &ffun($r, $k)) & 0xffff;
        $l = $t;
    }
    $EL = $r;
    $ER = $l;
    return 0;
}

$sum = 0;
$errs = 0;
for ($b = 0; $b < %d; $b++) {
    $l = ($b * 7919 + 13) & 0xffff;
    $r = ($b * 10473 + 17) & 0xffff;
    &crypt2($l, $r, 1);
    $cl = $EL;
    $cr = $ER;
    $sum = ($sum + $cl * 3 + $cr) & 0xffff;
    &crypt2($cl, $cr, 0);
    if ($EL != $l) { $errs++; }
    if ($ER != $r) { $errs++; }
}
print "$sum\n";
if ($errs > 0) { die "des verify failed: $errs"; }
`, blocks)
}

func desTclSrc(blocks int) string {
	return fmt.Sprintf(`
for {set i 0} {$i < 64} {incr i} { set SBOX($i) [expr (($i * 17 + 3) ^ ($i / 4)) %% 256] }
set KS(0) 0x3a5a
set KS(0) [expr $KS(0) + 0]
for {set i 1} {$i < 16} {incr i} { set KS($i) [expr (($KS([expr $i - 1]) * 5 + 7) ^ ($i * 73)) & 0xffff] }

proc ffun {r k} {
    global SBOX
    set t [expr ($r ^ $k) & 0xffff]
    set f [expr $SBOX([expr $t & 63]) ^ ($SBOX([expr ($t >> 6) & 63]) << 4) ^ ($SBOX([expr ($t >> 10) & 63]) << 8)]
    set f [expr $f & 0xffff]
    return [expr (($f << 3) | (($f >> 13) & 7)) & 0xffff]
}

proc crypt2 {l r dir} {
    global KS
    for {set i 0} {$i < 16} {incr i} {
        if {$dir} { set k $KS($i) } else { set k $KS([expr 15 - $i]) }
        set t $r
        set r [expr ($l ^ [ffun $r $k]) & 0xffff]
        set l $t
    }
    return [list $r $l]
}

set sum 0
set errs 0
for {set b 0} {$b < %d} {incr b} {
    set l [expr ($b * 7919 + 13) & 0xffff]
    set r [expr ($b * 10473 + 17) & 0xffff]
    set c [crypt2 $l $r 1]
    set cl [lindex $c 0]
    set cr [lindex $c 1]
    set sum [expr ($sum + $cl * 3 + $cr) & 0xffff]
    set d [crypt2 $cl $cr 0]
    if {[lindex $d 0] != $l || [lindex $d 1] != $r} { incr errs }
}
puts $sum
if {$errs > 0} { error "des verify failed: $errs" }
`, blocks)
}

// DESChecksum computes the expected checksum for a block count (reference
// implementation in Go, used by tests to validate every language).
func DESChecksum(blocks int) int {
	var sbox [64]int
	for i := 0; i < 64; i++ {
		sbox[i] = ((i*17 + 3) ^ (i / 4)) % 256
	}
	var ks [16]int
	ks[0] = 0x3a5a
	for i := 1; i < 16; i++ {
		ks[i] = ((ks[i-1]*5 + 7) ^ (i * 73)) & 0xffff
	}
	ffun := func(r, k int) int {
		t := (r ^ k) & 0xffff
		f := sbox[t&63] ^ (sbox[(t>>6)&63] << 4) ^ (sbox[(t>>10)&63] << 8)
		f &= 0xffff
		return ((f << 3) | ((f >> 13) & 7)) & 0xffff
	}
	crypt := func(l, r int, enc bool) (int, int) {
		for i := 0; i < 16; i++ {
			k := ks[i]
			if !enc {
				k = ks[15-i]
			}
			l, r = r, (l^ffun(r, k))&0xffff
		}
		return r, l
	}
	sum := 0
	for b := 0; b < blocks; b++ {
		l := (b*7919 + 13) & 0xffff
		r := (b*10473 + 17) & 0xffff
		cl, cr := crypt(l, r, true)
		sum = (sum + cl*3 + cr) & 0xffff
		dl, dr := crypt(cl, cr, false)
		if dl != l || dr != r {
			panic("reference des verify failed")
		}
	}
	return sum
}

// DESNative is the compiled-C des (Table 2's C row).
func DESNative(blocks int) core.Program {
	return core.Program{
		System: core.SysC, Name: "des",
		Desc: "DES encryption and decryption (compiled)",
		Run: func(ctx *core.Ctx) error {
			return runNative(ctx, "des", minicc.WithStdlib(desMiniC(blocks)))
		},
	}
}

// DESMIPSI is des interpreted by the binary emulator.
func DESMIPSI(blocks int) core.Program {
	return core.Program{
		System: core.SysMIPSI, Name: "des",
		Desc: "DES encryption and decryption",
		Run: func(ctx *core.Ctx) error {
			return runMIPS(ctx, "des", minicc.WithStdlib(desMiniC(blocks)))
		},
	}
}

// DESJava is des compiled to bytecode and interpreted by the JVM analog.
func DESJava(blocks int) core.Program {
	return core.Program{
		System: core.SysJava, Name: "des",
		Desc: "DES encryption and decryption",
		Run: func(ctx *core.Ctx) error {
			return runJava(ctx, "des", minicc.WithStdlibJVM(desMiniC(blocks)))
		},
	}
}

// DESPerl is the Perl des.
func DESPerl(blocks int) core.Program {
	return core.Program{
		System: core.SysPerl, Name: "des",
		Desc: "DES encryption and decryption",
		Run: func(ctx *core.Ctx) error {
			return runPerl(ctx, desPerlSrc(blocks))
		},
	}
}

// DESTcl is the Tcl des.
func DESTcl(blocks int) core.Program {
	return core.Program{
		System: core.SysTcl, Name: "des",
		Desc: "DES encryption and decryption",
		Run: func(ctx *core.Ctx) error {
			return runTcl(ctx, desTclSrc(blocks), false)
		},
	}
}

// DESMiniCSource exposes the shared mini-C des source for ablations.
func DESMiniCSource(blocks int) string { return desMiniC(blocks) }

// SpecMiniCSources exposes the mini-C sources of the SPEC workalikes (the
// MIPSI and native suites), by name, as the assembler's fuzz seeds.
func SpecMiniCSources(scale float64) map[string]string { return specSources(scale) }

// DESTclSource exposes the Tcl des script for ablations.
func DESTclSource(blocks int) string { return desTclSrc(blocks) }
