package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"interplab/internal/core"
	"interplab/internal/jvm"
	"interplab/internal/mipsi"
	"interplab/internal/tcl"
)

// runExp captures one experiment's output at test scale.
func runExp(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(id, Options{Scale: 0.1, Out: &buf}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestUnknownExperiment(t *testing.T) {
	if err := Run("nope", Options{Out: &bytes.Buffer{}}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestTable1Shape(t *testing.T) {
	out := runExp(t, "table1")
	if !strings.Contains(out, "a=b+c") || !strings.Contains(out, "read") {
		t.Fatalf("missing benchmarks:\n%s", out)
	}
	// Shape claims: scalar ops are 10x+ slower everywhere; Tcl worst on
	// a=b+c; Perl and Tcl beat MIPSI and Java on string ops.
	rows := parseRows(t, out)
	assign := rows["a=b+c"]
	if assign[0] < 10 || assign[3] < 10 {
		t.Errorf("scalar slowdown too small: %v", assign)
	}
	if assign[3] < assign[0] || assign[3] < assign[1] {
		t.Errorf("Tcl should be worst on a=b+c: %v", assign)
	}
	concat := rows["string-concat"]
	if concat[2] > concat[0] || concat[3] > concat[0] {
		t.Errorf("Perl/Tcl should beat MIPSI on string-concat: %v", concat)
	}
	read := rows["read"]
	for i, v := range read {
		if v > assign[i] {
			t.Errorf("read should be slowed less than a=b+c (col %d): read=%v assign=%v", i, read, assign)
		}
	}
}

// parseRows extracts the four slowdown columns per benchmark row.
func parseRows(t *testing.T, out string) map[string][4]float64 {
	t.Helper()
	rows := make(map[string][4]float64)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 5 {
			continue
		}
		name := fields[0]
		switch name {
		case "a=b+c", "if", "null-proc", "string-concat", "string-split", "read":
		default:
			continue
		}
		var vals [4]float64
		ok := true
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(fields[len(fields)-4+i], 64)
			if err != nil {
				ok = false
				break
			}
			vals[i] = v
		}
		if ok {
			rows[name] = vals
		}
	}
	if len(rows) != 6 {
		t.Fatalf("parsed %d rows from:\n%s", len(rows), out)
	}
	return rows
}

func TestTable2Shape(t *testing.T) {
	out := runExp(t, "table2")
	for _, want := range []string{"MIPSI", "Java", "Perl", "Tcl", "des", "compress", "weblint", "xf"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
	// Fetch/decode ordering: MIPSI tens, Java ~teens, Perl hundreds, Tcl
	// thousands — checked via the des rows.
	fd := desFDColumn(t, out)
	if !(fd["Java"] < fd["MIPSI"] && fd["MIPSI"] < fd["Perl"] && fd["Perl"] < fd["Tcl"]) {
		t.Errorf("fetch/decode ordering wrong: %v", fd)
	}
	if fd["Tcl"] < 800 {
		t.Errorf("Tcl fd/cmd = %v, want thousands", fd["Tcl"])
	}
	if !strings.Contains(out, "(") {
		t.Error("Perl precompilation column missing")
	}
}

func desFDColumn(t *testing.T, out string) map[string]float64 {
	t.Helper()
	fd := make(map[string]float64)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 8 || fields[1] != "des" {
			continue
		}
		// Columns: Lang des size vcmds native [startup] fd ex cycles.
		v, err := strconv.ParseFloat(fields[len(fields)-3], 64)
		if err == nil {
			fd[fields[0]] = v
		}
	}
	if len(fd) < 4 {
		t.Fatalf("found %d des rows:\n%s", len(fd), out)
	}
	return fd
}

func TestTable3Config(t *testing.T) {
	out := runExp(t, "table3")
	for _, want := range []string{"dtlb", "itlb", "dmiss", "imiss", "512KB", "1-bit BHT"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 missing %q", want)
		}
	}
}

func TestFig1Concentration(t *testing.T) {
	out := runExp(t, "fig1")
	// Tcl/des: a couple of commands must dominate execute instructions.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "Tcl/des") {
			continue
		}
		fields := strings.Fields(line)
		top3 := strings.TrimSuffix(fields[3], "%")
		v, err := strconv.ParseFloat(top3, 64)
		if err != nil {
			t.Fatalf("bad fig1 row: %s", line)
		}
		if v < 50 {
			t.Errorf("Tcl/des top-3 share = %v%%, want concentrated", v)
		}
		return
	}
	t.Fatalf("no Tcl/des row:\n%s", out)
}

func TestFig2HasNativeForGraphics(t *testing.T) {
	out := runExp(t, "fig2")
	// The graphics-heavy Java benchmarks must show the native category.
	idx := strings.Index(out, "Java/hanoi")
	if idx < 0 {
		t.Fatalf("missing Java/hanoi:\n%s", out)
	}
	section := out[idx:]
	if end := strings.Index(section[1:], "\nJava/"); end > 0 {
		section = section[:end+1]
	}
	if !strings.Contains(section, "native") {
		t.Errorf("Java/hanoi should spend execute time in native:\n%s", section)
	}
}

func TestMemModelBands(t *testing.T) {
	out := runExp(t, "memmodel")
	if !strings.Contains(out, "memmodel") || !strings.Contains(out, "java.stack") {
		t.Fatalf("missing regions:\n%s", out)
	}
}

func TestFig3UniformityAndContrast(t *testing.T) {
	out := runExp(t, "fig3")
	busy := make(map[string]float64)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 10 || !strings.Contains(fields[0], "/") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err == nil {
			busy[fields[0]] = v
		}
	}
	// MIPSI rows must be near-uniform.
	var mipsi []float64
	for id, v := range busy {
		if strings.HasPrefix(id, "MIPSI/") {
			mipsi = append(mipsi, v)
		}
	}
	if len(mipsi) < 4 {
		t.Fatalf("too few MIPSI rows: %v", busy)
	}
	lo, hi := mipsi[0], mipsi[0]
	for _, v := range mipsi {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 12 {
		t.Errorf("MIPSI busy%% should be uniform across benchmarks: spread %v..%v", lo, hi)
	}
}

func TestFig4WorkingSets(t *testing.T) {
	out := runExp(t, "fig4")
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 13 {
			continue
		}
		id := fields[0]
		first, _ := strconv.ParseFloat(fields[1], 64)
		last, _ := strconv.ParseFloat(fields[12], 64)
		switch {
		case strings.HasPrefix(id, "MIPSI/") || id == "Java/des":
			if first > 0.5 {
				t.Errorf("%s: low-level VM should fit 8KB (%.2f misses/100)", id, first)
			}
		case strings.HasPrefix(id, "Tcl/") || strings.HasPrefix(id, "Perl/"):
			if first < last {
				t.Errorf("%s: bigger caches must not miss more (%.2f -> %.2f)", id, first, last)
			}
		}
	}
}

func TestAblationRuns(t *testing.T) {
	out := runExp(t, "ablation")
	for _, want := range []string{"iTLB", "flat memory", "fetch/decode"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation missing %q:\n%s", want, out)
		}
	}
}

// TestAblationArmsCheckExitStatus pins that every ablation knob arm fails
// on a nonzero guest exit status instead of rendering numbers: des's main
// returns its round-trip error count, so a knob that broke the cipher must
// fail the measurement.
func TestAblationArmsCheckExitStatus(t *testing.T) {
	const src = "int main() { return 3; }"
	for _, p := range []core.Program{
		ablationMIPSI(src, "test", func(*mipsi.Interp) {}),
		ablationJava(src, "test", func(*jvm.VM) {}),
		ablationTcl("exit 3", "test", func(*tcl.Interp) {}),
	} {
		_, err := core.Measure(p)
		if err == nil || !strings.HasSuffix(err.Error(), " 3") {
			t.Errorf("%s: measuring a guest that exits 3 gave error %v, want one naming the status", p.ID(), err)
		}
	}
}
