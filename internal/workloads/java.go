package workloads

import (
	"fmt"

	"interplab/internal/core"
	"interplab/internal/jvm"
	"interplab/internal/minicc"
)

// The Java-analog macro suite.  The graphics programs (hanoi, asteroids,
// mand) call the native library through the JVM's native-method registry,
// reproducing the paper's split between interpreted bytecodes and
// precompiled runtime-library work.

const gfxDecls = `
native int gfx_clear(int c);
native int gfx_plot(int x, int y, int c);
native int gfx_fillrect(int x, int y, int w, int h, int c);
native int gfx_line(int x0, int y0, int x1, int y1, int c);
native int gfx_text(int x, int y, char *s, int c);
`

// hanoiJavaSrc solves the towers graphically: every move redraws the pegs
// through the native library, as in the paper's Tk/Java hanoi.
func hanoiJavaSrc(disks int) string {
	return gfxDecls + fmt.Sprintf(`
int pegs[3];
int heights[3];
int stacks[30];
int moves;

void drawpeg(int p) {
    int x = 20 + p * 100;
    gfx_fillrect(x, 20, 80, 160, 1);
    gfx_line(x + 40, 30, x + 40, 170, 7);
    int h = heights[p];
    int i;
    for (i = 0; i < h; i++) {
        int d = stacks[p * 10 + i];
        gfx_fillrect(x + 40 - d * 5, 160 - i * 12, d * 10, 10, 3);
    }
}

void moveDisk(int from, int to) {
    int d = stacks[from * 10 + heights[from] - 1];
    heights[from]--;
    stacks[to * 10 + heights[to]] = d;
    heights[to]++;
    moves++;
    drawpeg(from);
    drawpeg(to);
}

void hanoi(int n, int from, int to, int via) {
    if (n == 0) return;
    hanoi(n - 1, from, via, to);
    moveDisk(from, to);
    hanoi(n - 1, via, to, from);
}

int main() {
    int n = %d;
    int i;
    gfx_clear(0);
    for (i = 0; i < n; i++) stacks[i] = n - i;
    heights[0] = n;
    drawpeg(0); drawpeg(1); drawpeg(2);
    hanoi(n, 0, 2, 1);
    gfx_text(10, 190, "done", 15);
    putn(moves);
    putc('\n');
    if (moves != (1 << n) - 1) return 1;
    return 0;
}
`, disks)
}

// asteroidsSrc runs a game loop: physics in bytecode, drawing in the
// native library (the paper: st_load is 30%% of commands but native code
// gets 48%% of execute instructions).
func asteroidsSrc(frames int) string {
	return gfxDecls + fmt.Sprintf(`
int ax[12];
int ay[12];
int vx[12];
int vy[12];
int sz[12];
int alive[12];
int score;

int main() {
    int f;
    int i;
    int n = 12;
    int seed = 77;
    for (i = 0; i < n; i++) {
        seed = (seed * 1103515 + 12345) & 0x7fffffff;
        ax[i] = seed %% 320;
        ay[i] = (seed >> 8) %% 200;
        vx[i] = seed %% 7 - 3;
        vy[i] = (seed >> 4) %% 5 - 2;
        sz[i] = 4 + seed %% 9;
        alive[i] = 1;
    }
    for (f = 0; f < %d; f++) {
        gfx_clear(0);
        for (i = 0; i < n; i++) {
            if (!alive[i]) continue;
            ax[i] = ax[i] + vx[i];
            ay[i] = ay[i] + vy[i];
            if (ax[i] < 0) ax[i] = ax[i] + 320;
            if (ax[i] >= 320) ax[i] = ax[i] - 320;
            if (ay[i] < 0) ay[i] = ay[i] + 200;
            if (ay[i] >= 200) ay[i] = ay[i] - 200;
            gfx_fillrect(ax[i], ay[i], sz[i], sz[i], 2 + i %% 6);
        }
        /* ship fires along a diagonal; hit detection in bytecode */
        int bx = f * 3 %% 320;
        int by = f * 2 %% 200;
        gfx_line(bx, 0, bx, 199, 7);
        for (i = 0; i < n; i++) {
            if (!alive[i]) continue;
            if (bx >= ax[i] && bx < ax[i] + sz[i] && by >= ay[i] && by < ay[i] + sz[i]) {
                alive[i] = 0;
                score = score + sz[i];
                sz[i] = 0;
            }
        }
        gfx_text(2, 2, "score", 15);
    }
    putn(score);
    putc('\n');
    return 0;
}
`, frames)
}

// mandSrc is a fixed-point Mandelbrot explorer plotting through the native
// library — compute-heavy bytecode with modest native calls.
func mandSrc(size int) string {
	return gfxDecls + fmt.Sprintf(`
int main() {
    int w = %d;
    int h = %d;
    int px;
    int py;
    int total = 0;
    for (py = 0; py < h; py++) {
        for (px = 0; px < w; px++) {
            /* fixed point with 10 fractional bits */
            int cr = (px - w * 3 / 4) * 3072 / w;
            int ci = (py - h / 2) * 2048 / h;
            int zr = 0;
            int zi = 0;
            int it = 0;
            while (it < 32) {
                int zr2 = (zr * zr) >> 10;
                int zi2 = (zi * zi) >> 10;
                if (zr2 + zi2 > 4096) break;
                int t = zr2 - zi2 + cr;
                zi = ((zr * zi) >> 9) + ci;
                zr = t;
                it++;
            }
            total = total + it;
            gfx_plot(px, py, it %% 16);
        }
    }
    putn(total);
    putc('\n');
    return 0;
}
`, size, size*2/3)
}

// javacSrc is a compiler-like workload: a lexer and recursive-descent
// parser over generated source text, all in interpreted bytecode.
func javacSrc() string {
	return `
char src[4096];
int len;
int pos;
int toks;
int depth;
int maxdepth;

int peekc() {
    if (pos >= len) return -1;
    return src[pos] & 255;
}

int isid(int c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

void skipws() {
    while (1) {
        int c = peekc();
        if (c == ' ' || c == 10 || c == 9 || c == 13) { pos++; continue; }
        if (c == '/' && pos + 1 < len && src[pos+1] == '*') {
            pos = pos + 2;
            while (pos + 1 < len && !(src[pos] == '*' && src[pos+1] == '/')) pos++;
            pos = pos + 2;
            continue;
        }
        if (c == '#') {
            while (peekc() != 10 && peekc() >= 0) pos++;
            continue;
        }
        return;
    }
}

/* token kinds: 1 ident, 2 number, 3 punct, 0 eof */
int tkind;
int tstart;

void next() {
    skipws();
    int c = peekc();
    toks++;
    tstart = pos;
    if (c < 0) { tkind = 0; return; }
    if (isid(c) && !(c >= '0' && c <= '9')) {
        while (isid(peekc())) pos++;
        tkind = 1;
        return;
    }
    if (c >= '0' && c <= '9') {
        while (peekc() >= '0' && peekc() <= '9') pos++;
        tkind = 2;
        return;
    }
    pos++;
    tkind = 3;
}

int curIs(int ch) {
    return tkind == 3 && src[tstart] == ch;
}

void expr();

void primary() {
    depth++;
    if (depth > maxdepth) maxdepth = depth;
    if (curIs('(')) {
        next();
        expr();
        if (curIs(')')) next();
    } else if (tkind == 1) {
        next();
        if (curIs('(')) {
            next();
            while (!curIs(')') && tkind != 0) {
                expr();
                if (curIs(',')) next();
            }
            if (curIs(')')) next();
        }
    } else if (tkind == 2) {
        next();
    } else {
        next();
    }
    depth--;
}

void expr() {
    primary();
    while (tkind == 3 && (src[tstart] == '+' || src[tstart] == '-' ||
           src[tstart] == '*' || src[tstart] == '<' || src[tstart] == '>' ||
           src[tstart] == '=')) {
        next();
        primary();
    }
}

void stmt() {
    if (tkind == 1 && src[tstart] == 'i' && src[tstart+1] == 'f') {
        next();
        if (curIs('(')) { next(); expr(); if (curIs(')')) next(); }
        stmt();
        return;
    }
    if (curIs('{')) {
        next();
        while (!curIs('}') && tkind != 0) stmt();
        if (curIs('}')) next();
        return;
    }
    expr();
    if (curIs(';')) next();
}

int main() {
    int fd = _open("prog.c", 0);
    if (fd < 0) return 1;
    len = _read(fd, src, 4096);
    _close(fd);
    pos = 0;
    next();
    int units = 0;
    while (tkind != 0) {
        stmt();
        units++;
        if (units > 4000) break;
    }
    putn(toks); putc(' '); putn(units); putc(' '); putn(maxdepth); putc('\n');
    return 0;
}
`
}

func javaProg(name, desc, src string, needGfx bool) core.Program {
	return core.Program{
		System: core.SysJava, Name: name, Desc: desc,
		Run: func(ctx *core.Ctx) error {
			installInputs(ctx)
			var extra [][]*jvm.NativeFn
			if needGfx {
				extra = append(extra, jvm.GfxNatives(ctx.Display(320, 200)))
			}
			return runJava(ctx, Knobs{}, name, minicc.WithStdlibJVM(src), extra...)
		},
	}
}

// JavaSuite returns the Table 2 Java programs.
func JavaSuite(scale float64) []core.Program {
	frames := int(40 * scale)
	if frames < 6 {
		frames = 6
	}
	size := int(60 * scale)
	if size < 24 {
		size = 24
	}
	disks := 5
	return []core.Program{
		javaProg("asteroids", "Asteroids game", asteroidsSrc(frames), true),
		javaProg("hanoi", "Towers of Hanoi (5 disks)", hanoiJavaSrc(disks), true),
		javaProg("javac", "Compiler front end over generated source", javacSrc(), false),
		javaProg("mand", "Interactive Mandelbrot explorer", mandSrc(size), true),
	}
}
