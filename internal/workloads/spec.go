package workloads

import (
	"fmt"

	"interplab/internal/core"
	"interplab/internal/minicc"
)

// The MIPSI macro suite: scaled-down workalikes of the paper's SPECint92
// programs, written in mini-C and compiled to MIPS binaries.  The same
// binaries run in Native mode as the compiled baselines of Figure 3.

// compressSrc is an LZW compressor over a file, like Unix compress.
func compressSrc() string {
	return `
char buf[8192];
int htab[65536];
int codes[65536];
int nextcode;

int hash(int key) { return ((key * 40503) >> 2) & 65535; }

int lookup(int key) {
    int h = hash(key);
    while (htab[h] != 0) {
        if (htab[h] == key) return codes[h];
        h = (h + 1) & 65535;
    }
    return -1;
}

void insert(int key, int code) {
    int h = hash(key);
    while (htab[h] != 0) h = (h + 1) & 65535;
    htab[h] = key;
    codes[h] = code;
}

int main() {
    int fd = _open("compress.in", 0);
    if (fd < 0) return 1;
    int n = _read(fd, buf, 8192);
    _close(fd);
    if (n < 2) return 2;

    nextcode = 256;
    int w = buf[0] & 255;
    int emitted = 0;
    int check = 0;
    int i;
    for (i = 1; i < n; i++) {
        int c = buf[i] & 255;
        int key = (w << 9) + c + 1;
        int code = lookup(key);
        if (code >= 0) {
            w = code;
        } else {
            emitted++;
            check = (check * 31 + w) & 0xffffff;
            if (nextcode < 4000) {
                insert(key, nextcode);
                nextcode++;
            }
            w = c;
        }
    }
    emitted++;
    check = (check * 31 + w) & 0xffffff;
    putn(emitted); putc(' '); putn(check); putc('\n');
    return 0;
}
`
}

// eqntottSrc converts a postfix boolean equation to a truth table: the
// variable count sets the 2^v assignment sweep.
func eqntottSrc(vars int) string {
	return fmt.Sprintf(`
char expr[] = "ab&cd|^ef&gh|^&ij&kl|^mn&!|^";
int stack[64];

int main() {
    int vars = %d;
    int ones = 0;
    int m;
    int limit = 1 << vars;
    for (m = 0; m < limit; m++) {
        int sp = 0;
        int i = 0;
        while (expr[i]) {
            int c = expr[i];
            if (c >= 'a' && c <= 'z') {
                int bit = (m >> ((c - 'a') %% vars)) & 1;
                stack[sp] = bit;
                sp++;
            } else {
                if (c == '!') {
                    stack[sp-1] = 1 - stack[sp-1];
                } else {
                    int b = stack[sp-1];
                    int a = stack[sp-2];
                    sp--;
                    if (c == '&') stack[sp-1] = a & b;
                    if (c == '|') stack[sp-1] = a | b;
                    if (c == '^') stack[sp-1] = a ^ b;
                }
            }
            i++;
        }
        ones += stack[0];
    }
    putn(ones); putc('\n');
    return 0;
}
`, vars)
}

// espressoSrc minimizes a boolean cover by pairwise term merging
// (Quine-McCluskey style), like espresso's core loop.
func espressoSrc(terms int) string {
	return fmt.Sprintf(`
int value[512];
int mask[512];
int live[512];
int n;

int main() {
    int seed = 12345;
    int i;
    int j;
    n = %d;
    for (i = 0; i < n; i++) {
        seed = (seed * 1103515 + 12345) & 0x7fffffff;
        value[i] = seed & 4095;
        mask[i] = 4095;
        live[i] = 1;
    }
    int merged = 1;
    int passes = 0;
    while (merged) {
        merged = 0;
        passes++;
        for (i = 0; i < n; i++) {
            if (!live[i]) continue;
            for (j = i + 1; j < n; j++) {
                if (!live[j]) continue;
                if (mask[i] != mask[j]) continue;
                int diff = (value[i] ^ value[j]) & mask[i];
                if (diff == 0) { live[j] = 0; merged = 1; continue; }
                int low = diff & (-diff);
                if (diff == low) {
                    mask[i] = mask[i] & ~low;
                    value[i] = value[i] & mask[i];
                    live[j] = 0;
                    merged = 1;
                }
            }
        }
    }
    int count = 0;
    int check = 0;
    for (i = 0; i < n; i++) {
        if (live[i]) {
            count++;
            check = (check * 13 + value[i] + mask[i]) & 0xffffff;
        }
    }
    putn(count); putc(' '); putn(check); putc(' '); putn(passes); putc('\n');
    return 0;
}
`, terms)
}

// liSrc is a small Lisp interpreter (cons cells, symbols, eval/apply,
// user-defined recursive functions) — a lisp interpreter being interpreted
// by an interpreter, as in the paper's li.
func liSrc(fibN int) string {
	return fmt.Sprintf(`
int car[60000];
int cdr[60000];
int tag[60000];      /* 1=number 2=symbol 3=cons */
int nval[60000];
int nextcell;

char names[512];
int nameoff[64];
int nsyms;

char src[] = "(defun fib (n) (if (lt n 2) n (add (fib (sub n 1)) (fib (sub n 2))))) (defun sum (l a) (if (null l) a (sum (cdr l) (add a (car l))))) (fib %d) (sum (quote (1 2 3 4 5 6 7 8)) 0)";
int pos;

int fnname[16];
int fnparams[16];
int fnbody[16];
int nfns;

int alloc(int t, int a, int d) {
    int c = nextcell;
    nextcell++;
    if (nextcell >= 60000) { puts("out of cells\n"); _exit(3); }
    tag[c] = t;
    car[c] = a;
    cdr[c] = d;
    return c;
}

int mknum(int v) {
    int c = alloc(1, 0, 0);
    nval[c] = v;
    return c;
}

int intern(char *s, int len) {
    int i;
    for (i = 0; i < nsyms; i++) {
        int off = nameoff[i];
        int k = 0;
        while (k < len && names[off + k] == s[k]) k++;
        if (k == len && names[off + k] == 0) return i;
    }
    int off = 0;
    if (nsyms > 0) {
        off = nameoff[nsyms - 1];
        while (names[off]) off++;
        off++;
    }
    nameoff[nsyms] = off;
    int k;
    for (k = 0; k < len; k++) names[off + k] = s[k];
    names[off + len] = 0;
    nsyms++;
    return nsyms - 1;
}

int issep(int c) { return c == ' ' || c == '(' || c == ')' || c == 0; }

int parse() {
    while (src[pos] == ' ') pos++;
    if (src[pos] == 0) return -1;
    if (src[pos] == '(') {
        pos++;
        int head = -1;
        int tail = -1;
        while (1) {
            while (src[pos] == ' ') pos++;
            if (src[pos] == ')') { pos++; break; }
            if (src[pos] == 0) { puts("eof in list\n"); _exit(4); }
            int e = parse();
            int cell = alloc(3, e, -1);
            if (head < 0) { head = cell; } else { cdr[tail] = cell; }
            tail = cell;
        }
        return head;
    }
    if (src[pos] >= '0' && src[pos] <= '9') {
        int v = 0;
        while (src[pos] >= '0' && src[pos] <= '9') {
            v = v * 10 + (src[pos] - '0');
            pos++;
        }
        return mknum(v);
    }
    int start = pos;
    while (!issep(src[pos])) pos++;
    int sym = alloc(2, 0, 0);
    nval[sym] = intern(&src[start], pos - start);
    return sym;
}

int lookupenv(int sym, int env) {
    while (env >= 0) {
        int pair = car[env];
        if (nval[car[pair]] == nval[sym]) return cdr[pair];
        env = cdr[env];
    }
    puts("unbound symbol\n");
    _exit(5);
    return -1;
}

int findfn(int symid) {
    int i;
    for (i = 0; i < nfns; i++) {
        if (fnname[i] == symid) return i;
    }
    return -1;
}

int eval(int e, int env);

int evalargs(int l, int env) {
    if (l < 0) return -1;
    int v = eval(car[l], env);
    return alloc(3, v, evalargs(cdr[l], env));
}

int symis(int e, char *s) {
    if (tag[e] != 2) return 0;
    int off = nameoff[nval[e]];
    int k = 0;
    while (s[k] && names[off + k] == s[k]) k++;
    return s[k] == 0 && names[off + k] == 0;
}

int eval(int e, int env) {
    if (tag[e] == 1) return e;
    if (tag[e] == 2) return lookupenv(e, env);
    int head = car[e];
    int args = cdr[e];
    if (symis(head, "quote")) return car[args];
    if (symis(head, "if")) {
        int c = eval(car[args], env);
        if (tag[c] == 1 && nval[c] != 0) return eval(car[cdr[args]], env);
        if (tag[c] == 3) return eval(car[cdr[args]], env);
        return eval(car[cdr[cdr[args]]], env);
    }
    if (symis(head, "defun")) {
        int f = nfns;
        nfns++;
        fnname[f] = nval[car[args]];
        fnparams[f] = car[cdr[args]];
        fnbody[f] = car[cdr[cdr[args]]];
        return mknum(0);
    }
    int vals = evalargs(args, env);
    if (symis(head, "add")) return mknum(nval[car[vals]] + nval[car[cdr[vals]]]);
    if (symis(head, "sub")) return mknum(nval[car[vals]] - nval[car[cdr[vals]]]);
    if (symis(head, "mul")) return mknum(nval[car[vals]] * nval[car[cdr[vals]]]);
    if (symis(head, "lt")) return mknum(nval[car[vals]] < nval[car[cdr[vals]]]);
    if (symis(head, "eq")) return mknum(nval[car[vals]] == nval[car[cdr[vals]]]);
    if (symis(head, "car")) return car[car[vals]];
    if (symis(head, "cdr")) {
        int d = cdr[car[vals]];
        if (d < 0) return mknum(0);
        return d;
    }
    if (symis(head, "cons")) return alloc(3, car[vals], car[cdr[vals]]);
    if (symis(head, "null")) {
        int v = car[vals];
        if (tag[v] == 1 && nval[v] == 0) return mknum(1);
        return mknum(0);
    }
    int f = findfn(nval[head]);
    if (f < 0) { puts("unknown function\n"); _exit(6); }
    int newenv = env;
    int p = fnparams[f];
    int a = vals;
    while (p >= 0) {
        int binding = alloc(3, car[p], car[a]);
        newenv = alloc(3, binding, newenv);
        p = cdr[p];
        a = cdr[a];
    }
    return eval(fnbody[f], newenv);
}

int main() {
    pos = 0;
    int last = 0;
    while (1) {
        int e = parse();
        if (e < 0) break;
        int v = eval(e, -1);
        if (tag[v] == 1) last = nval[v];
        if (tag[v] == 1 && nval[v] != 0) { putn(nval[v]); putc(' '); }
    }
    putc('\n');
    return 0;
}
`, fibN)
}

func mipsiProg(name, desc, src string) core.Program {
	return core.Program{
		System: core.SysMIPSI, Name: name, Desc: desc,
		Run: func(ctx *core.Ctx) error {
			installInputs(ctx)
			return runMIPS(ctx, Knobs{}, name, minicc.WithStdlib(src))
		},
	}
}

func nativeProg(name, desc, src string) core.Program {
	return core.Program{
		System: core.SysC, Name: name, Desc: desc,
		Run: func(ctx *core.Ctx) error {
			installInputs(ctx)
			return runNative(ctx, name, minicc.WithStdlib(src))
		},
	}
}

func specSources(scale float64) map[string]string {
	vars := 6 + int(2*scale)
	if vars > 10 {
		vars = 10
	}
	terms := int(200 * scale)
	if terms < 24 {
		terms = 24
	}
	fib := 9 + int(scale)
	if fib > 12 {
		fib = 12
	}
	return map[string]string{
		"compress": compressSrc(),
		"eqntott":  eqntottSrc(vars),
		"espresso": espressoSrc(terms),
		"li":       liSrc(fib),
	}
}

var specDescs = map[string]string{
	"compress": "Unix compress utility (LZW)",
	"eqntott":  "Equation to truth table conversion",
	"espresso": "Boolean minimization",
	"li":       "Lisp interpreter",
}

// MIPSISuite returns the interpreted SPEC workalikes.
func MIPSISuite(scale float64) []core.Program {
	var out []core.Program
	srcs := specSources(scale)
	for _, name := range []string{"compress", "eqntott", "espresso", "li"} {
		out = append(out, mipsiProg(name, specDescs[name], srcs[name]))
	}
	return out
}

// NativeSuite returns the same programs compiled and run directly — the
// C-compress / C-li baselines of Figure 3.
func NativeSuite(scale float64) []core.Program {
	var out []core.Program
	srcs := specSources(scale)
	for _, name := range []string{"compress", "eqntott", "espresso", "li"} {
		out = append(out, nativeProg(name, specDescs[name], srcs[name]))
	}
	return out
}
